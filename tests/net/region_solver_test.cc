/**
 * @file
 * Solver fuzz: the region-scoped incremental solver must keep every
 * flow's rate bit-identical to a from-scratch fair-share fill on
 * randomized interleavings of start / finish / setCapacity /
 * setCapacities / cancel over generated fabrics.
 *
 * Two fuzzes share the op generators:
 *
 *  - RegionSolverFuzz runs one scheduler with verify_fair_share: it
 *    re-runs the from-scratch per-component oracle after every event
 *    (including the completions that fire inside runUntil()) and
 *    fatal()s on any bitwise divergence of a rate, the completion
 *    index or the stalled list. (Verify mode disables the start/finish
 *    fast paths — an incrementally assigned rate equals a fresh fill
 *    mathematically but not always in the last bit — so the oracle
 *    checks region-closure correctness, not float dust; see DESIGN.md
 *    §6.1.)
 *
 *  - ImplementationTwinFuzz drives the serial scheduler, pooled
 *    component fills and capacity-storm batching in lockstep and
 *    compares every rate bitwise after every op.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/cluster.hh"
#include "net/flow_scheduler.hh"
#include "util/rng.hh"
#include "util/task_pool.hh"

namespace dstrain {
namespace {

/** One simulation + cluster + scheduler built from explicit options. */
struct ImplTwin {
    ImplTwin(const ClusterSpec &spec, const FlowSchedulerOptions &opts)
        : cluster(spec), flows(sim, cluster.topology(), opts)
    {
    }

    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
    int done = 0;
};

/** Fuzz one verifying scheduler through a seeded op sequence. */
void
fuzzFabric(const ClusterSpec &spec, std::uint64_t seed, int ops)
{
    FlowSchedulerOptions opts;
    opts.verify_fair_share = true;
    ImplTwin tw(spec, opts);
    Rng rng(seed);

    // Fault candidates: the fabric's RoCE links (uplinks + trunks) —
    // the resources multi-link faults scale in real plans.
    std::vector<ResourceId> roce;
    std::vector<Bps> nominal;
    for (const Resource &r : tw.cluster.topology().resources()) {
        if (r.cls == LinkClass::Roce) {
            roce.push_back(r.id);
            nominal.push_back(r.nominal_capacity);
        }
    }
    ASSERT_FALSE(roce.empty());

    const int gpus = tw.cluster.spec().totalGpus();
    std::vector<FlowId> ids;
    int started = 0;

    const double fractions[] = {0.0, 0.25, 0.5, 1.0};
    SimTime t = 0.0;
    for (int op = 0; op < ops; ++op) {
        t += rng.uniform(1e-4, 5e-3);
        tw.sim.runUntil(t);

        const std::uint64_t kind = rng.below(10);
        if (kind < 5) {
            // Start: a cross-GPU transfer on an ECMP route.
            const int a = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(gpus)));
            int b = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            if (b == a)
                b = (a + 1) % gpus;
            const std::uint64_t key = rng.below(1u << 20);
            const Bytes bytes =
                static_cast<double>(1 + rng.below(64)) * 1e8;
            FlowSpec fs;
            fs.route = tw.cluster.router().routeForFlow(
                tw.cluster.gpuByRank(a), tw.cluster.gpuByRank(b), key);
            fs.bytes = bytes;
            fs.on_complete = [&tw] { ++tw.done; };
            ids.push_back(tw.flows.start(std::move(fs)));
            ++started;
        } else if (kind < 7) {
            // Single-link capacity change.
            const std::size_t i = rng.below(roce.size());
            tw.flows.setCapacity(roce[i],
                                 nominal[i] * fractions[rng.below(4)]);
        } else if (kind == 7) {
            // Batched multi-link change (the fault-domain path).
            std::vector<std::pair<ResourceId, Bps>> batch;
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = rng.below(roce.size());
                batch.emplace_back(roce[i],
                                   nominal[i] * fractions[rng.below(4)]);
            }
            tw.flows.setCapacities(batch);
        } else if (!ids.empty()) {
            // Cancel a random flow; a cancelled flow drops its
            // remainder, which must be a valid byte count.
            Bytes rem = -1.0;
            if (tw.flows.cancel(ids[rng.below(ids.size())], &rem)) {
                ASSERT_GE(rem, 0.0);
                ++tw.done;  // accounted as gone, never as completed
            }
        }
    }

    // Restore every link and drain: every surviving flow must finish.
    for (std::size_t i = 0; i < roce.size(); ++i)
        tw.flows.setCapacity(roce[i], nominal[i]);
    tw.sim.run();
    ASSERT_EQ(tw.flows.activeCount(), 0u);
    ASSERT_EQ(tw.done, started);

    // The oracle really ran, and the region solver really ran scoped
    // solves.
    EXPECT_GT(tw.flows.stats().verified_solves, 0u);
    EXPECT_GT(tw.flows.stats().region_solves, 0u);
}

ClusterSpec
fatTreeSpec()
{
    ClusterSpec spec;
    spec.nodes = 16;
    spec.fabric.kind = FabricKind::FatTree;
    spec.fabric.fat_tree_k = 4;
    return spec;
}

ClusterSpec
spineLeafSpec()
{
    ClusterSpec spec;
    spec.nodes = 8;
    spec.fabric.kind = FabricKind::SpineLeaf;
    spec.fabric.leaves = 4;
    spec.fabric.spines = 2;
    return spec;
}

class RegionSolverFuzz : public testing::TestWithParam<int>
{
};

TEST_P(RegionSolverFuzz, FatTreeBitIdenticalToOracle)
{
    fuzzFabric(fatTreeSpec(),
               static_cast<std::uint64_t>(GetParam()), 160);
}

TEST_P(RegionSolverFuzz, SpineLeafBitIdenticalToOracle)
{
    fuzzFabric(spineLeafSpec(),
               static_cast<std::uint64_t>(GetParam()) + 1000, 160);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSolverFuzz, testing::Range(1, 7));

/**
 * Implementation-equivalence fuzz: the serial scheduler, pooled
 * component fills and capacity-storm batching are three
 * implementations of one contract — bit-identical flow rates and
 * completion instants for any op history. Drive all three through
 * one seeded sequence of start / capacity-storm (including full
 * outages, so flows park and unpark) / cancel / cancelAll ops and
 * compare them after every op and at the drain.
 */
void
fuzzImplementationTwins(const ClusterSpec &spec, std::uint64_t seed,
                        int ops)
{
    TaskPool pool(2);
    FlowSchedulerOptions base_opts;  // serial, unbatched
    FlowSchedulerOptions par_opts;
    par_opts.fill_pool = &pool;
    par_opts.parallel_fill_threshold = 2;

    ImplTwin base(spec, base_opts);
    ImplTwin par(spec, par_opts);
    ImplTwin batched(spec, base_opts);  // storms arrive batched
    ImplTwin *const twins[] = {&base, &par, &batched};
    Rng rng(seed);

    std::vector<ResourceId> roce;
    std::vector<Bps> nominal;
    for (const Resource &r : base.cluster.topology().resources()) {
        if (r.cls == LinkClass::Roce) {
            roce.push_back(r.id);
            nominal.push_back(r.nominal_capacity);
        }
    }
    ASSERT_FALSE(roce.empty());

    const int gpus = base.cluster.spec().totalGpus();
    std::vector<FlowId> ids;

    auto compare = [&] {
        for (ImplTwin *tw : {&par, &batched}) {
            for (FlowId id : ids) {
                ASSERT_EQ(base.flows.isActive(id),
                          tw->flows.isActive(id))
                    << "activity diverged for flow " << id;
                ASSERT_EQ(base.flows.currentRate(id),
                          tw->flows.currentRate(id))
                    << "rate diverged for flow " << id;
            }
            ASSERT_EQ(base.flows.activeCount(),
                      tw->flows.activeCount());
            ASSERT_EQ(base.flows.stalledCount(),
                      tw->flows.stalledCount());
            ASSERT_EQ(base.done, tw->done);
        }
    };

    const double fractions[] = {0.0, 0.25, 0.5, 1.0};
    SimTime t = 0.0;
    for (int op = 0; op < ops; ++op) {
        t += rng.uniform(1e-4, 5e-3);
        for (ImplTwin *tw : twins)
            tw->sim.runUntil(t);

        const std::uint64_t kind = rng.below(12);
        if (kind < 6) {
            const int a = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            int b = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(gpus)));
            if (b == a)
                b = (a + 1) % gpus;
            const std::uint64_t key = rng.below(1u << 20);
            const Bytes bytes =
                static_cast<double>(1 + rng.below(64)) * 1e8;
            FlowId first = 0;
            for (ImplTwin *tw : twins) {
                FlowSpec fs;
                fs.route = tw->cluster.router().routeForFlow(
                    tw->cluster.gpuByRank(a), tw->cluster.gpuByRank(b),
                    key);
                fs.bytes = bytes;
                fs.on_complete = [tw] { ++tw->done; };
                const FlowId id = tw->flows.start(std::move(fs));
                if (tw == &base)
                    first = id;
                else
                    ASSERT_EQ(id, first);
            }
            ids.push_back(first);
        } else if (kind < 9) {
            // Capacity storm over a few links; the batched twin gets
            // it as one ScopedBatch (capacity-only batches are
            // state-equivalent), everyone else link by link.
            std::vector<std::pair<ResourceId, Bps>> storm;
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = rng.below(roce.size());
                storm.emplace_back(roce[i],
                                   nominal[i] * fractions[rng.below(4)]);
            }
            for (ImplTwin *tw : {&base, &par}) {
                for (const auto &[rid, cap] : storm)
                    tw->flows.setCapacity(rid, cap);
            }
            {
                FlowScheduler::ScopedBatch b(batched.flows);
                for (const auto &[rid, cap] : storm)
                    batched.flows.setCapacity(rid, cap);
            }
        } else if (kind == 9 && !ids.empty()) {
            const FlowId id = ids[rng.below(ids.size())];
            Bytes first = 0.0;
            bool first_ok = false;
            for (ImplTwin *tw : twins) {
                Bytes rem = 0.0;
                const bool ok = tw->flows.cancel(id, &rem);
                if (tw == &base) {
                    first = rem;
                    first_ok = ok;
                } else {
                    ASSERT_EQ(ok, first_ok);
                    ASSERT_EQ(rem, first) << "remainder diverged";
                }
            }
        } else if (kind == 10 && op > 0 && op % 37 == 0) {
            // Rare mass abort: empties the index and stalled state of
            // all three twins at once.
            std::size_t first = 0;
            for (ImplTwin *tw : twins) {
                const std::size_t n = tw->flows.cancelAll();
                if (tw == &base)
                    first = n;
                else
                    ASSERT_EQ(n, first);
            }
            ids.clear();
        }
        compare();
    }

    for (std::size_t i = 0; i < roce.size(); ++i)
        for (ImplTwin *tw : twins)
            tw->flows.setCapacity(roce[i], nominal[i]);
    compare();
    const SimTime end = base.sim.run();
    for (ImplTwin *tw : {&par, &batched})
        ASSERT_EQ(tw->sim.run(), end) << "drain times diverged";
    compare();
    ASSERT_EQ(base.flows.activeCount(), 0u);

    // Each twin really exercised its distinct machinery.
    EXPECT_GT(base.flows.stats().completion_index_updates, 0u);
    EXPECT_GT(batched.flows.stats().batched_events, 0u);
}

class ImplementationTwinFuzz : public testing::TestWithParam<int>
{
};

TEST_P(ImplementationTwinFuzz, FatTreeAllImplementationsBitIdentical)
{
    fuzzImplementationTwins(
        fatTreeSpec(), static_cast<std::uint64_t>(GetParam()) + 5000,
        140);
}

TEST_P(ImplementationTwinFuzz, SpineLeafAllImplementationsBitIdentical)
{
    fuzzImplementationTwins(
        spineLeafSpec(),
        static_cast<std::uint64_t>(GetParam()) + 6000, 140);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplementationTwinFuzz,
                         testing::Range(1, 6));

} // namespace
} // namespace dstrain
