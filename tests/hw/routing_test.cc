/**
 * @file
 * Tests for route computation over the XE8545 topology: path shapes,
 * SerDes-crossing detection, rate caps and waypoint routing.
 */

#include <gtest/gtest.h>

#include "hw/cluster.hh"

namespace dstrain {
namespace {

class RoutingTest : public testing::Test
{
  protected:
    RoutingTest()
        : cluster_(makeSpec())
    {
    }

    static ClusterSpec
    makeSpec()
    {
        ClusterSpec spec;
        spec.nodes = 2;
        return spec;
    }

    Cluster cluster_;
};

TEST_F(RoutingTest, GpuPeersUseDirectNvlink)
{
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(1));
    ASSERT_EQ(r.hops.size(), 1u);
    EXPECT_EQ(cluster_.topology()
                  .resource(cluster_.topology()
                                .halfLink(r.hops[0])
                                .resource)
                  .cls,
              LinkClass::NvLink);
    EXPECT_TRUE(r.crossings.empty());
    EXPECT_DOUBLE_EQ(r.serdes_factor, 1.0);
}

TEST_F(RoutingTest, GpuToRemoteGpuCrossesFabric)
{
    // Rank 0 (node 0) to rank 4 (node 1, local index 0).
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(4));
    // gpu -> cpu -> nic -> switch -> nic -> cpu -> gpu = 6 hops.
    EXPECT_EQ(r.hops.size(), 6u);
    // Both IODs cross PCIe-to-PCIe (GPUDirect on both ends).
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.248);
}

TEST_F(RoutingTest, DramToLocalNvmeIsCrossingFree)
{
    // Default drives attach to socket 1.
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[1], n0.nvmes[0]);
    EXPECT_EQ(r.hops.size(), 2u);  // dram -> cpu -> drive
    EXPECT_TRUE(r.crossings.empty());
}

TEST_F(RoutingTest, DramToRemoteSocketNvmeCrossesOnce)
{
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[0], n0.nvmes[0]);
    EXPECT_EQ(r.hops.size(), 3u);  // dram -> cpu0 -> cpu1 -> drive
    ASSERT_EQ(r.crossings.size(), 1u);
    EXPECT_EQ(r.crossings[0].ingress, SerdesSide::Xgmi);
    EXPECT_EQ(r.crossings[0].egress, SerdesSide::Pcie);
    // Cap: degraded PCIe x4 (8 * 0.82 * 0.448) ~ 2.94 GBps.
    EXPECT_NEAR(r.rate_cap, 8e9 * 0.82 * 0.448, 1e6);
}

TEST_F(RoutingTest, MediaRouteEndsBehindController)
{
    const NodeHandles &n0 = cluster_.node(0);
    const Route &r =
        cluster_.router().route(n0.drams[1], n0.nvme_medias[0]);
    EXPECT_EQ(r.hops.size(), 3u);  // dram -> cpu -> drive -> media
    // The media hop is the bottleneck (3.3 GBps < PCIe x4).
    EXPECT_NEAR(r.rate_cap, 3.3e9, 1e6);
}

TEST_F(RoutingTest, RouteViaPinsTheNic)
{
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    // GPU 0 sits on socket 0; pin its egress to NIC 1 (socket 1).
    Route r = cluster_.router().routeVia(n0.gpus[0], n0.nics[1],
                                         n1.gpus[0]);
    // gpu -> cpu0 -> cpu1 -> nic1 -> sw -> nic -> cpu -> gpu = 7 hops
    EXPECT_EQ(r.hops.size(), 7u);
    EXPECT_GE(r.crossings.size(), 3u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.2);
}

TEST_F(RoutingTest, RouteVia2PinsBothNics)
{
    const NodeHandles &n0 = cluster_.node(0);
    const NodeHandles &n1 = cluster_.node(1);
    Route r = cluster_.router().routeVia2(n0.drams[0], n0.nics[1],
                                          n1.nics[1], n1.drams[0]);
    // Two xGMI-involving crossings, one per node.
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_DOUBLE_EQ(r.serdes_factor, 0.224);
}

TEST_F(RoutingTest, RoutesAreCachedAndStable)
{
    const Route &a = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(5));
    const Route &b = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(5));
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.hops, b.hops);
}

TEST_F(RoutingTest, LatencyIsSumOfHops)
{
    const Route &r = cluster_.router().route(cluster_.gpuByRank(0),
                                             cluster_.gpuByRank(1));
    EXPECT_NEAR(r.latency, 700e-9, 1e-12);  // one NVLink hop
}

TEST(RoutingAblationTest, SerdesAblationLiftsTheCaps)
{
    ClusterSpec spec;
    spec.nodes = 2;
    spec.node.model_serdes_contention = false;
    Cluster ideal(spec);
    const Route &r = ideal.router().route(ideal.gpuByRank(0),
                                          ideal.gpuByRank(4));
    // Crossings are still reported, but the cap is the plain
    // bottleneck (the RoCE hop).
    EXPECT_EQ(r.crossings.size(), 2u);
    EXPECT_NEAR(r.rate_cap, 25e9 * 0.93, 1e6);
}

TEST(EcmpTest, SingleSwitchHasUniquePathsAndMatchesPlainRoute)
{
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(4);
    const auto &paths = cluster.router().equalCostRoutes(src, dst);
    ASSERT_EQ(paths.size(), 1u);
    // Degenerate ECMP must return the plain route's cache entry —
    // the bit-identity guarantee for the default fabric.
    for (std::uint64_t key = 0; key < 8; ++key) {
        EXPECT_EQ(&cluster.router().routeForFlow(src, dst, key),
                  &cluster.router().route(src, dst));
    }
}

TEST(EcmpTest, SpineLeafEnumeratesOnePathPerSpine)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    Cluster cluster(spec);
    // Ranks 0 and 12 live on nodes 0 and 3 — different leaves, so
    // every spine offers one equal-cost path.
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(12);
    const auto &paths = cluster.router().equalCostRoutes(src, dst);
    EXPECT_EQ(paths.size(), 4u);
    for (const Route &r : paths)
        EXPECT_EQ(r.hops.size(),
                  cluster.router().route(src, dst).hops.size());

    // Same-leaf traffic has a unique path through the shared leaf.
    EXPECT_EQ(cluster.router()
                  .equalCostRoutes(cluster.gpuByRank(0),
                                   cluster.gpuByRank(4))
                  .size(),
              1u);
}

TEST(EcmpTest, SelectionIsDeterministicAndKeyed)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    Cluster a(spec);
    Cluster b(spec);
    const int src_rank = 0;
    const int dst_rank = 12;
    bool spread = false;
    for (std::uint64_t key = 0; key < 16; ++key) {
        const Route &ra = a.router().routeForFlow(
            a.gpuByRank(src_rank), a.gpuByRank(dst_rank), key);
        const Route &rb = b.router().routeForFlow(
            b.gpuByRank(src_rank), b.gpuByRank(dst_rank), key);
        // Identical clusters pick identical paths for the same key.
        ASSERT_EQ(ra.hops.size(), rb.hops.size());
        for (std::size_t h = 0; h < ra.hops.size(); ++h)
            EXPECT_EQ(ra.hops[h], rb.hops[h]);
        // Repeat calls are stable.
        EXPECT_EQ(&ra, &a.router().routeForFlow(a.gpuByRank(src_rank),
                                                a.gpuByRank(dst_rank),
                                                key));
        if (ra.hops != a.router()
                           .routeForFlow(a.gpuByRank(src_rank),
                                         a.gpuByRank(dst_rank), 0)
                           .hops) {
            spread = true;
        }
    }
    // 16 keys over 4 equal-cost paths: the hash must not collapse
    // every flow onto one spine.
    EXPECT_TRUE(spread);
}

TEST(EcmpTest, DisabledEcmpFallsBackToPlainRoutes)
{
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    spec.fabric.ecmp = false;
    Cluster cluster(spec);
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(12);
    for (std::uint64_t key = 0; key < 8; ++key) {
        EXPECT_EQ(&cluster.router().routeForFlow(src, dst, key),
                  &cluster.router().route(src, dst));
    }
}

/** Field-by-field bitwise equality of two routes. */
void
expectSameRoute(const Route &a, const Route &b)
{
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.latency, b.latency);
    ASSERT_EQ(a.crossings.size(), b.crossings.size());
    for (std::size_t i = 0; i < a.crossings.size(); ++i) {
        EXPECT_EQ(a.crossings[i].ingress, b.crossings[i].ingress);
        EXPECT_EQ(a.crossings[i].egress, b.crossings[i].egress);
    }
    EXPECT_EQ(a.serdes_factor, b.serdes_factor);
    EXPECT_EQ(a.rate_cap, b.rate_cap);
}

TEST(RouteMemoTest, HitEqualsFreshMiss)
{
    // routeThrough() memoizes composites per (src, waypoints, dst,
    // flow key). A hit must reproduce a miss exactly, field by field:
    // compare a warm router's second answer against the first answer
    // of an identical cold cluster, over ECMP keys and 0-2 waypoints.
    ClusterSpec spec;
    spec.nodes = 4;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 2;
    spec.fabric.spines = 4;
    Cluster warm(spec);
    const NodeHandles &n0 = warm.node(0);
    const NodeHandles &n3 = warm.node(3);
    const std::vector<std::vector<ComponentId>> waypoint_sets = {
        {}, {n0.nics[1]}, {n0.nics[0], n3.nics[1]}};
    for (const auto &wps : waypoint_sets) {
        for (std::uint64_t key = 0; key < 6; ++key) {
            Cluster cold(spec);
            const Route miss = warm.router().routeThrough(
                n0.gpus[0], wps, n3.gpus[2], key);
            const Route hit = warm.router().routeThrough(
                n0.gpus[0], wps, n3.gpus[2], key);
            const Route fresh = cold.router().routeThrough(
                n0.gpus[0], wps, n3.gpus[2], key);
            ASSERT_TRUE(hit.valid());
            expectSameRoute(hit, miss);
            expectSameRoute(hit, fresh);
        }
    }
    // Waypoint-free composites equal the per-pair selection.
    const Route plain = warm.router().routeThrough(n0.gpus[0], {},
                                                   n3.gpus[2], 3);
    expectSameRoute(plain, warm.router().routeForFlow(n0.gpus[0],
                                                      n3.gpus[2], 3));
}

TEST(RouteMemoTest, ServedUntilInvalidatedThenDetours)
{
    // The memo is flushed with the per-pair caches and only then: a
    // link that dies under a memoized route keeps being served (the
    // stale FIB a reconvergence window models) until
    // invalidateRouteCaches(), after which the route detours.
    ClusterSpec spec;
    spec.nodes = 2;
    Cluster cluster(spec);
    Router &router = cluster.router();
    router.setAvoidDeadLinks(true);
    const ComponentId src = cluster.gpuByRank(0);
    const ComponentId dst = cluster.gpuByRank(4);
    const std::vector<ComponentId> via = {cluster.node(1).cpus[0]};

    const Route before = router.routeThrough(src, via, dst, 0);
    ResourceId dead = -1;
    for (HalfLinkId hid : before.hops) {
        const ResourceId rid = cluster.topology().halfLink(hid).resource;
        if (cluster.topology().resource(rid).cls == LinkClass::Roce) {
            dead = rid;
            break;
        }
    }
    ASSERT_GE(dead, 0);
    cluster.topology().resource(dead).capacity = 0.0;

    expectSameRoute(router.routeThrough(src, via, dst, 0), before);
    EXPECT_EQ(router.cacheInvalidations(), 0u);

    router.invalidateRouteCaches();
    EXPECT_EQ(router.cacheInvalidations(), 1u);
    const Route after = router.routeThrough(src, via, dst, 0);
    ASSERT_TRUE(after.valid());
    EXPECT_NE(after.hops, before.hops);
    for (HalfLinkId hid : after.hops)
        EXPECT_NE(cluster.topology().halfLink(hid).resource, dead);
    // Memo hits after the flush count no further invalidations.
    expectSameRoute(router.routeThrough(src, via, dst, 0), after);
    EXPECT_EQ(router.cacheInvalidations(), 1u);
}

TEST(RoutingDeathTest, SelfRouteRejected)
{
    Cluster cluster(ClusterSpec{});
    EXPECT_DEATH(
        cluster.router().route(cluster.gpuByRank(0),
                               cluster.gpuByRank(0)),
        "itself");
}

} // namespace
} // namespace dstrain
