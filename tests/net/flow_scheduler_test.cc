/**
 * @file
 * Tests for the max-min fair flow scheduler: single-flow timing,
 * fair sharing, per-flow caps, extra resources, and conservation
 * properties under randomized workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "util/rng.hh"
#include "util/task_pool.hh"

namespace dstrain {
namespace {

/** Fixture: a single-node cluster and a scheduler. */
class FlowSchedulerTest : public testing::Test
{
  protected:
    FlowSchedulerTest()
        : cluster_(ClusterSpec{}), flows_(sim_, cluster_.topology())
    {
    }

    Route
    gpuRoute(int a, int b)
    {
        return cluster_.router().route(cluster_.gpuByRank(a),
                                       cluster_.gpuByRank(b));
    }

    Simulation sim_;
    Cluster cluster_;
    FlowScheduler flows_;
};

TEST_F(FlowSchedulerTest, SingleFlowFinishesAtCapRate)
{
    // NVLink pair: 100 GBps * 0.8 efficiency = 80 GBps.
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, TwoFlowsShareFairly)
{
    int done = 0;
    for (int i = 0; i < 2; ++i) {
        FlowSpec spec;
        spec.route = gpuRoute(0, 1);
        spec.bytes = 40e9;
        spec.on_complete = [&] { ++done; };
        flows_.start(std::move(spec));
    }
    sim_.run();
    EXPECT_EQ(done, 2);
    // 80 GB total over an 80 GBps link shared: 1 second.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ShorterFlowFreesCapacity)
{
    // Flow A: 20 GB, flow B: 60 GB on the same 80 GBps link.
    // Shared at 40 each: A done at 0.5 s; B then runs at 80:
    // remaining 40 GB -> finishes at 1.0 s.
    SimTime a_done = 0.0;
    SimTime b_done = 0.0;
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 20e9;
    a.on_complete = [&] { a_done = sim_.now(); };
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(0, 1);
    b.bytes = 60e9;
    b.on_complete = [&] { b_done = sim_.now(); };
    flows_.start(std::move(b));
    sim_.run();
    EXPECT_NEAR(a_done, 0.5, 1e-6);
    EXPECT_NEAR(b_done, 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, RateCapHonored)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 10e9;
    spec.rate_cap = 10e9;  // cap below the 80 GBps link
    flows_.start(std::move(spec));
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ZeroByteFlowCompletesAsync)
{
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 0.0;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    EXPECT_FALSE(done);  // not synchronous
    sim_.run();
    EXPECT_TRUE(done);
}

TEST_F(FlowSchedulerTest, IndependentLinksDoNotContend)
{
    // 0->1 and 2->3 use different NVLink pairs.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(2, 3);
    b.bytes = 80e9;
    flows_.start(std::move(b));
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ExtraResourceConstrains)
{
    // Two flows on disjoint links but sharing one extra resource.
    ResourceId shared = cluster_.topology().addResource(
        LinkClass::IodXbar, 40e9, "test-xbar", 0, -1);
    for (int pair = 0; pair < 2; ++pair) {
        FlowSpec spec;
        spec.route = gpuRoute(pair * 2, pair * 2 + 1);
        spec.bytes = 20e9;
        spec.extra_resources = {shared};
        flows_.start(std::move(spec));
    }
    sim_.run();
    // 40 GB total through a 40 GBps pool: 1 second.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, RateLogsRecordTraffic)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 8e9;
    flows_.start(std::move(spec));
    sim_.run();
    flows_.finalizeLogs();

    Bytes total = 0.0;
    for (const Resource &r : cluster_.topology().resources())
        if (r.cls == LinkClass::NvLink)
            total += r.log.totalBytes();
    EXPECT_NEAR(total, 8e9, 1e3);
}

TEST_F(FlowSchedulerTest, IsActiveTracksFlowLifetime)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_TRUE(flows_.isActive(id));
    EXPECT_GT(flows_.currentRate(id), 0.0);
    sim_.run();
    EXPECT_FALSE(flows_.isActive(id));
    EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
    EXPECT_FALSE(flows_.isActive(id + 1000));  // never issued
}

TEST_F(FlowSchedulerTest, ZeroByteFlowIsNeverActive)
{
    // A degenerate transfer returns a valid id that behaves exactly
    // like a finished flow: inactive, rate 0.
    bool done = false;
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 0.0;
    spec.on_complete = [&] { done = true; };
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_FALSE(flows_.isActive(id));
    EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(flows_.isActive(id));
}

TEST_F(FlowSchedulerTest, UncontendedStartsTakeTheFastPath)
{
    // Flows on disjoint links never contend: after the first full
    // recompute no further ones are needed, and finishes are
    // incremental too.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(2, 3);
    b.bytes = 40e9;
    flows_.start(std::move(b));
    EXPECT_EQ(flows_.stats().recomputes, 0u);
    EXPECT_EQ(flows_.stats().fast_starts, 2u);
    sim_.run();
    EXPECT_EQ(flows_.stats().recomputes, 0u);
    EXPECT_EQ(flows_.stats().fast_finishes, 2u);
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, ContendedStartForcesRecompute)
{
    // A second flow on the same saturated link must trigger a full
    // water-filling pass and halve both rates.
    FlowSpec a;
    a.route = gpuRoute(0, 1);
    a.bytes = 80e9;
    const FlowId ida = flows_.start(std::move(a));
    FlowSpec b;
    b.route = gpuRoute(0, 1);
    b.bytes = 80e9;
    const FlowId idb = flows_.start(std::move(b));
    EXPECT_EQ(flows_.stats().fast_starts, 1u);  // only the first
    EXPECT_GE(flows_.stats().recomputes, 1u);
    EXPECT_NEAR(flows_.currentRate(ida), 40e9, 1e3);
    EXPECT_NEAR(flows_.currentRate(idb), 40e9, 1e3);
    sim_.run();
}

TEST_F(FlowSchedulerTest, FastAndSlowPathsAgreeOnRates)
{
    // Start a capped flow below the link capacity (fast path), then
    // force a recompute with a contended flow elsewhere on the same
    // link: the capped flow's rate must be unchanged by the full
    // pass, i.e. the incremental admission matched water-filling.
    FlowSpec capped;
    capped.route = gpuRoute(0, 1);
    capped.bytes = 10e9;
    capped.rate_cap = 8e9;
    const FlowId id = flows_.start(std::move(capped));
    EXPECT_EQ(flows_.stats().fast_starts, 1u);
    const Bps fast_rate = flows_.currentRate(id);
    EXPECT_NEAR(fast_rate, 8e9, 1.0);

    FlowSpec big;
    big.route = gpuRoute(0, 1);
    big.bytes = 80e9;
    flows_.start(std::move(big));  // forces full recompute
    EXPECT_GE(flows_.stats().recomputes, 1u);
    // 80 GBps link, fair share 40/40 but capped flow frozen at 8;
    // the big flow takes the rest.
    EXPECT_NEAR(flows_.currentRate(id), 8e9, 1.0);
    sim_.run();
}

/** Property: total bytes logged == total bytes injected. */
class FlowConservationProperty : public testing::TestWithParam<int>
{
};

TEST_P(FlowConservationProperty, BytesConserved)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    Simulation sim;
    Cluster cluster(ClusterSpec{});
    FlowScheduler flows(sim, cluster.topology());

    // Random single-hop NVLink flows; each contributes its bytes to
    // exactly one resource.
    Bytes injected = 0.0;
    const int n = 20;
    int completed = 0;
    for (int i = 0; i < n; ++i) {
        const int a = static_cast<int>(rng.below(4));
        int b = static_cast<int>(rng.below(4));
        if (b == a)
            b = (a + 1) % 4;
        FlowSpec spec;
        spec.route = cluster.router().route(cluster.gpuByRank(a),
                                            cluster.gpuByRank(b));
        spec.bytes = rng.uniform(1e6, 5e9);
        injected += spec.bytes;
        spec.on_complete = [&completed] { ++completed; };
        flows.start(std::move(spec));
    }
    sim.run();
    flows.finalizeLogs();
    EXPECT_EQ(completed, n);

    Bytes logged = 0.0;
    for (const Resource &r : cluster.topology().resources())
        logged += r.log.totalBytes();
    EXPECT_NEAR(logged, injected, injected * 1e-6 + n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationProperty,
                         testing::Range(1, 13));

/** The distinct resources a route crosses. */
std::vector<ResourceId>
routeResources(const Topology &topo, const Route &route)
{
    std::vector<ResourceId> rids;
    for (HalfLinkId h : route.hops) {
        const ResourceId rid = topo.halfLink(h).resource;
        if (std::find(rids.begin(), rids.end(), rid) == rids.end())
            rids.push_back(rid);
    }
    return rids;
}

TEST_F(FlowSchedulerTest, SetCapacityDegradesActiveFlow)
{
    // 80 GB on the 80 GBps NVLink pair; halve every route resource at
    // t=0.5 s: 40 GB done, the rest at 40 GBps -> finish at 1.5 s.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), spec.route);
    bool done = false;
    spec.on_complete = [&] { done = true; };
    flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacity(rid, r.nominal_capacity * 0.5);
        }
    });
    sim_.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
    EXPECT_GE(flows_.stats().capacity_updates, rids.size());
}

TEST_F(FlowSchedulerTest, ZeroCapacityStallsThenResumes)
{
    // A downed link freezes the flow at rate 0 (no completion event);
    // restoring the capacity resumes it with no bytes lost.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), spec.route);
    bool done = false;
    spec.on_complete = [&] { done = true; };
    const FlowId id = flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacity(rid, 0.0);
    });
    sim_.events().schedule(0.75, [&] {
        EXPECT_TRUE(flows_.isActive(id));
        EXPECT_DOUBLE_EQ(flows_.currentRate(id), 0.0);
        EXPECT_FALSE(done);
    });
    sim_.events().schedule(1.0, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacity(rid, r.nominal_capacity);
        }
    });
    sim_.run();
    // 40 GB before the outage, 40 GB after it: 0.5 + 0.5 + 0.5 s.
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
}

TEST_F(FlowSchedulerTest, SlackToSlackCapacityChangeIsFast)
{
    // A capped flow leaves the link unsaturated; trimming capacity
    // while it stays unsaturated must not trigger a re-waterfill.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 10e9;
    spec.rate_cap = 10e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), spec.route);
    flows_.start(std::move(spec));
    sim_.events().schedule(0.1, [&] {
        const std::uint64_t before = flows_.stats().recomputes;
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacity(rid, r.nominal_capacity * 0.9);
        }
        EXPECT_EQ(flows_.stats().recomputes, before);
        EXPECT_EQ(flows_.stats().fast_capacity_updates, rids.size());
    });
    sim_.run();
    // The cap still binds: unchanged finish time.
    EXPECT_NEAR(sim_.now(), 1.0, 1e-6);
}

TEST_F(FlowSchedulerTest, CancelAllRemovesEveryFlowSilently)
{
    // The hard-failure abort path: every active flow disappears at
    // once, no completion callbacks fire, and the touched resources
    // log a final zero rate so telemetry stays consistent.
    int completions = 0;
    for (int i = 0; i < 3; ++i) {
        FlowSpec spec;
        spec.route = gpuRoute(i, i + 1);
        spec.bytes = 80e9;
        spec.on_complete = [&] { ++completions; };
        flows_.start(std::move(spec));
    }
    sim_.events().schedule(0.2, [&] {
        EXPECT_EQ(flows_.activeCount(), 3u);
        EXPECT_EQ(flows_.cancelAll(), 3u);
        EXPECT_EQ(flows_.activeCount(), 0u);
        EXPECT_EQ(flows_.cancelAll(), 0u);  // idempotent when empty
    });
    sim_.run();
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(flows_.stats().cancels, 3u);
    // The simulation drained: no completion events left dangling.
    EXPECT_NEAR(sim_.now(), 0.2, 1e-9);
}

TEST_F(FlowSchedulerTest, StalledFlowsParkOnTheStalledList)
{
    // A downed link parks its flows: they leave every fill / scan /
    // index structure (observable via stalledCount) until the
    // capacity restore unparks them.
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    const std::vector<ResourceId> rids =
        routeResources(cluster_.topology(), spec.route);
    const FlowId id = flows_.start(std::move(spec));
    EXPECT_EQ(flows_.stalledCount(), 0u);
    sim_.events().schedule(0.5, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacity(rid, 0.0);
        EXPECT_EQ(flows_.stalledCount(), 1u);
        EXPECT_GE(flows_.stats().stalled_parks, 1u);
        EXPECT_TRUE(flows_.isActive(id));
    });
    sim_.events().schedule(1.0, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacity(rid, r.nominal_capacity);
        }
        EXPECT_EQ(flows_.stalledCount(), 0u);
        EXPECT_GT(flows_.currentRate(id), 0.0);
    });
    sim_.run();
    EXPECT_NEAR(sim_.now(), 1.5, 1e-6);
}

TEST_F(FlowSchedulerTest, StallResumeKeepsCompletionOrder)
{
    // Three equal flows on one link finish at the same instant; their
    // callbacks must fire in ascending start order — and a stall /
    // resume cycle in the middle (which reinserts all three into the
    // completion index from the unpark path) must not perturb that
    // order.
    std::vector<int> order;
    std::vector<ResourceId> rids;
    for (int i = 0; i < 3; ++i) {
        FlowSpec spec;
        spec.route = gpuRoute(0, 1);
        spec.bytes = 30e9;
        if (i == 0)
            rids = routeResources(cluster_.topology(), spec.route);
        spec.on_complete = [&order, i] { order.push_back(i); };
        flows_.start(std::move(spec));
    }
    sim_.events().schedule(0.3, [&] {
        for (ResourceId rid : rids)
            flows_.setCapacity(rid, 0.0);
        EXPECT_EQ(flows_.stalledCount(), 3u);
    });
    sim_.events().schedule(0.8, [&] {
        for (ResourceId rid : rids) {
            const Resource &r = cluster_.topology().resource(rid);
            flows_.setCapacity(rid, r.nominal_capacity);
        }
    });
    sim_.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    // 90 GB over 80 GBps plus the 0.5 s outage.
    EXPECT_NEAR(sim_.now(), 90.0 / 80.0 + 0.5, 1e-6);
    EXPECT_GE(flows_.stats().stalled_parks, 3u);
}

/** A self-contained sim + cluster + scheduler built from options. */
struct OptsTwin {
    explicit OptsTwin(const FlowSchedulerOptions &opts)
        : cluster(ClusterSpec{}), flows(sim, cluster.topology(), opts)
    {
    }

    Route
    gpuRoute(int a, int b)
    {
        return cluster.router().route(cluster.gpuByRank(a),
                                      cluster.gpuByRank(b));
    }

    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
};

TEST(FlowSchedulerBatchTest, CapacityStormMatchesUnbatchedCalls)
{
    // A capacity-only batch is state-equivalent to the per-link call
    // sequence: rates after the storm and the final drain time must
    // match bitwise, with the batch solving once instead of per link.
    OptsTwin plain{FlowSchedulerOptions{}};
    OptsTwin batched{FlowSchedulerOptions{}};

    std::vector<FlowId> ids;
    std::vector<ResourceId> rids;
    for (OptsTwin *tw : {&plain, &batched}) {
        for (int pair = 0; pair < 2; ++pair) {
            for (int dup = 0; dup < 2; ++dup) {
                FlowSpec spec;
                spec.route = tw->gpuRoute(pair * 2, pair * 2 + 1);
                if (tw == &plain && dup == 0)
                    for (ResourceId rid : routeResources(
                             tw->cluster.topology(), spec.route))
                        rids.push_back(rid);
                spec.bytes = 40e9;
                const FlowId id = tw->flows.start(std::move(spec));
                if (tw == &plain)
                    ids.push_back(id);
            }
        }
    }

    auto storm = [&](OptsTwin &tw, double factor) {
        for (ResourceId rid : rids) {
            const Resource &r = tw.cluster.topology().resource(rid);
            tw.flows.setCapacity(rid, r.nominal_capacity * factor);
        }
    };
    plain.sim.events().schedule(0.25, [&] { storm(plain, 0.5); });
    batched.sim.events().schedule(0.25, [&] {
        FlowScheduler::ScopedBatch batch(batched.flows);
        storm(batched, 0.5);
    });
    plain.sim.runUntil(0.5);
    batched.sim.runUntil(0.5);
    for (FlowId id : ids)
        ASSERT_EQ(plain.flows.currentRate(id),
                  batched.flows.currentRate(id))
            << "rate diverged for flow " << id;
    EXPECT_GT(batched.flows.stats().batched_events, 0u);
    EXPECT_LT(batched.flows.stats().recomputes +
                  batched.flows.stats().region_solves,
              plain.flows.stats().recomputes +
                  plain.flows.stats().region_solves);
    EXPECT_EQ(plain.sim.run(), batched.sim.run());
}

TEST(FlowSchedulerParallelTest, PooledFillsMatchSerialBitwise)
{
    // Batched starts force one solve spanning two components; with a
    // pool and a low threshold the components fill concurrently, and
    // the committed rates must equal the serial twin's bitwise.
    TaskPool pool(2);
    FlowSchedulerOptions par_opts;
    par_opts.fill_pool = &pool;
    par_opts.parallel_fill_threshold = 2;
    OptsTwin serial{FlowSchedulerOptions{}};
    OptsTwin par{par_opts};

    std::vector<FlowId> ids;
    for (OptsTwin *tw : {&serial, &par}) {
        FlowScheduler::ScopedBatch batch(tw->flows);
        for (int pair = 0; pair < 2; ++pair) {
            for (int dup = 0; dup < 2; ++dup) {
                FlowSpec spec;
                spec.route = tw->gpuRoute(pair * 2, pair * 2 + 1);
                spec.bytes = 20e9 + 10e9 * dup;
                const FlowId id = tw->flows.start(std::move(spec));
                if (tw == &serial)
                    ids.push_back(id);
            }
        }
    }
    for (FlowId id : ids)
        ASSERT_EQ(serial.flows.currentRate(id),
                  par.flows.currentRate(id))
            << "rate diverged for flow " << id;
    EXPECT_GT(par.flows.stats().parallel_component_solves, 0u);
    EXPECT_EQ(serial.flows.stats().parallel_component_solves, 0u);
    EXPECT_EQ(serial.sim.run(), par.sim.run());
}

TEST_F(FlowSchedulerTest, CancelReturnsRemainingBytes)
{
    FlowSpec spec;
    spec.route = gpuRoute(0, 1);
    spec.bytes = 80e9;
    bool completed = false;
    spec.on_complete = [&] { completed = true; };
    const FlowId id = flows_.start(std::move(spec));
    sim_.events().schedule(0.5, [&] {
        Bytes remaining = 0.0;
        EXPECT_TRUE(flows_.cancel(id, &remaining));
        EXPECT_NEAR(remaining, 40e9, 1e3);
        EXPECT_EQ(flows_.activeCount(), 0u);
        EXPECT_FALSE(flows_.cancel(id));  // already gone
    });
    sim_.run();
    EXPECT_FALSE(completed);
    EXPECT_EQ(flows_.stats().cancels, 1u);
}

TEST_F(FlowSchedulerTest, RetiredAndUnissuedIdsAreInactive)
{
    // The id map holds active flows only: a finished id, a zero-byte
    // id and an id never issued all read as inactive, rate 0, and
    // cannot be cancelled.
    FlowSpec done_spec;
    done_spec.route = gpuRoute(0, 1);
    done_spec.bytes = 8e9;
    const FlowId finished = flows_.start(std::move(done_spec));
    FlowSpec zero_spec;
    zero_spec.route = gpuRoute(2, 3);
    zero_spec.bytes = 0.0;
    const FlowId zero = flows_.start(std::move(zero_spec));
    sim_.run();
    for (const FlowId id : {FlowId{0}, finished, zero, zero + 1,
                            std::numeric_limits<FlowId>::max()}) {
        EXPECT_FALSE(flows_.isActive(id)) << id;
        EXPECT_EQ(flows_.currentRate(id), 0.0) << id;
        EXPECT_FALSE(flows_.cancel(id)) << id;
    }
    EXPECT_EQ(flows_.stats().cancels, 0u);
}

TEST_F(FlowSchedulerTest, IdMapSurvivesGrowthAndChurn)
{
    // One long-lived flow among ~100k short ones started in waves of
    // varying size: the id map grows to the largest wave and every
    // wave's ids are erased again, so lookups must keep finding the
    // long-lived flow across rehashes and backward-shift deletions.
    // Tiny rate caps keep every start and finish on the fast paths.
    constexpr Bps kCap = 1e3;
    FlowSpec long_spec;
    long_spec.route = gpuRoute(0, 1);
    long_spec.bytes = 1e15;
    long_spec.rate_cap = kCap;
    const FlowId long_id = flows_.start(std::move(long_spec));

    Rng rng(7);
    std::size_t started = 0;
    std::vector<FlowId> wave;
    FlowId last = long_id;
    while (started < 100000) {
        const std::size_t n = 1 + rng.below(3000);
        wave.clear();
        for (std::size_t i = 0; i < n; ++i) {
            FlowSpec spec;
            spec.route = (i % 2 == 0) ? gpuRoute(2, 3) : gpuRoute(3, 2);
            spec.bytes = kCap * (1.0 + static_cast<double>(rng.below(3)));
            spec.rate_cap = kCap;
            wave.push_back(flows_.start(std::move(spec)));
        }
        started += n;
        last = wave.back();
        for (const FlowId id : wave) {
            ASSERT_TRUE(flows_.isActive(id));
            ASSERT_EQ(flows_.currentRate(id), kCap);
        }
        EXPECT_FALSE(flows_.isActive(last + 1));
        // Drain the wave (every short flow ends within 3 s).
        sim_.runUntil(sim_.now() + 4.0);
        for (const FlowId id : wave) {
            ASSERT_FALSE(flows_.isActive(id));
            ASSERT_EQ(flows_.currentRate(id), 0.0);
        }
        ASSERT_FALSE(flows_.cancel(wave[n / 2]));
        ASSERT_TRUE(flows_.isActive(long_id));
        ASSERT_EQ(flows_.currentRate(long_id), kCap);
        ASSERT_EQ(flows_.activeCount(), 1u);
    }
    EXPECT_EQ(last, long_id + started);
    EXPECT_TRUE(flows_.cancel(long_id));
    EXPECT_FALSE(flows_.isActive(long_id));
}

/**
 * A hand-built topology for the never-binding pruning threshold: all
 * links are IodXbar (efficiency 1.0, so the effective capacity is the
 * given capacity bit for bit). Flows 1 and 2 share link S (the link
 * under test) and link T (never near binding); flow 1 also crosses a
 * private link P1 whose capacity equals its cap, flow 2 a roomy
 * private link P2; flow 3 crosses S and a zero-capacity link Z, so it
 * parks until Z is restored.
 */
struct PruneRig {
    static constexpr Bps kCap1 = 3e9;
    static constexpr Bps kCap2 = 5e9;
    static constexpr Bps kCap3 = 2e9;

    explicit PruneRig(Bps s_capacity)
    {
        const ComponentId a =
            topo.addComponent(ComponentKind::Switch, "a", 0, 0, 0);
        const ComponentId b =
            topo.addComponent(ComponentKind::Switch, "b", 0, 0, 1);
        auto link = [&](Bps cap, const char *name) {
            const ResourceId rid =
                topo.addResource(LinkClass::IodXbar, cap, name, 0, 0);
            return topo.addHalfLink(rid, a, b, PortKind::Device,
                                    PortKind::Device, LinkClass::IodXbar,
                                    0.0);
        };
        s = link(s_capacity, "S");
        t = link(1e12, "T");
        p1 = link(kCap1, "P1");
        p2 = link(2 * kCap2, "P2");
        z = link(1e12, "Z");
        FlowSchedulerOptions opts;
        opts.verify_fair_share = true;
        flows = std::make_unique<FlowScheduler>(sim, topo, opts);
        // Links are built with positive capacity; fault Z to zero.
        flows->setCapacity(topo.halfLink(z).resource, 0.0);
    }

    FlowId
    start(std::vector<HalfLinkId> hops, Bps cap, Bytes bytes)
    {
        FlowSpec spec;
        spec.route.hops = std::move(hops);
        spec.route.rate_cap = cap;
        spec.bytes = bytes;
        spec.on_complete = [this] { ++done; };
        return flows->start(std::move(spec));
    }

    Simulation sim;
    Topology topo;
    HalfLinkId s = -1, t = -1, p1 = -1, p2 = -1, z = -1;
    std::unique_ptr<FlowScheduler> flows;
    int done = 0;
};

TEST(FlowSchedulerPruneTest, ThresholdCapacitiesMatchTheOracle)
{
    // Link S sits at, or one ulp either side of, the summed caps of
    // its non-stalled crossers and that sum times (1 + 1e-6) — the
    // pruning threshold. verify_fair_share re-fills every component
    // with the unpruned oracle after every event and fatal()s on any
    // bitwise difference, so each run checks the pruned fill exactly.
    const Bps sum = PruneRig::kCap1 + PruneRig::kCap2;
    const Bps margin = sum * (1.0 + 1e-6);
    const Bps inf = std::numeric_limits<Bps>::infinity();
    for (const Bps cap :
         {sum, std::nextafter(sum, 0.0), std::nextafter(sum, inf), margin,
          std::nextafter(margin, 0.0), std::nextafter(margin, inf)}) {
        SCOPED_TRACE(cap);
        PruneRig rig(cap);
        // Flow 3 parks on Z first, so S's crossers' cap sum is exactly
        // kCap1 + kCap2 for the solves that admit flows 1 and 2.
        const FlowId f3 = rig.start({rig.s, rig.z}, PruneRig::kCap3, 1e9);
        const FlowId f1 =
            rig.start({rig.s, rig.t, rig.p1}, PruneRig::kCap1, 3e9);
        const FlowId f2 =
            rig.start({rig.s, rig.t, rig.p2}, PruneRig::kCap2, 10e9);
        EXPECT_EQ(rig.flows->stalledCount(), 1u);
        EXPECT_EQ(rig.flows->currentRate(f3), 0.0);
        EXPECT_EQ(rig.flows->currentRate(f1), PruneRig::kCap1);
        EXPECT_DOUBLE_EQ(rig.flows->currentRate(f2),
                         std::min(PruneRig::kCap2, cap - PruneRig::kCap1));
        // Restore Z: flow 3 unparks and rejoins S.
        rig.sim.events().schedule(0.5, [&] {
            rig.flows->setCapacity(rig.topo.halfLink(rig.z).resource,
                                   1e12);
        });
        rig.sim.run();
        EXPECT_EQ(rig.done, 3);
        EXPECT_EQ(rig.flows->activeCount(), 0u);
        EXPECT_GT(rig.flows->stats().verified_solves, 5u);
    }
}

} // namespace
} // namespace dstrain
