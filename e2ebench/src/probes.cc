/**
 * @file
 * Layer probe implementations.
 */

#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "collectives/algorithms.hh"
#include "collectives/topology_view.hh"
#include "storage/aio_engine.hh"
#include "storage/placement.hh"
#include "util/logging.hh"

namespace e2ebench {

using namespace dstrain;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Each probe repeats its unit of work for at least this long. */
constexpr double kMinProbeSeconds = 0.15;

} // namespace

ClusterSpec
experimentClusterSpec(const ExperimentConfig &cfg, bool force_nvme)
{
    ClusterSpec spec = cfg.cluster;
    if (force_nvme || cfg.strategy.offload == OffloadTarget::Nvme ||
        cfg.recovery.checkpoint.enabled()) {
        applyPlacement(cfg.placement, spec.node);
        for (NodeGroup &g : spec.groups)
            applyPlacement(cfg.placement, g.node);
    }
    return spec;
}

namespace {

/** A healthy copy of the workload's simulation stack. */
struct Stack {
    Simulation sim;
    Cluster cluster;
    FlowScheduler flows;
    TransferManager tm;

    Stack(const ExperimentConfig &cfg, bool force_nvme)
        : sim(cfg.seed), cluster(experimentClusterSpec(cfg, force_nvme)),
          flows(sim, cluster.topology(), FlowSchedulerOptions{}),
          tm(sim, cluster, flows)
    {}
};

/** One hop of the dominant collective, as TransferManager sees it. */
struct FlowHop {
    ComponentId src;
    ComponentId dst;
    std::vector<ComponentId> waypoints;
    std::uint64_t key;
    Bytes bytes;
};

/**
 * The dominant collective's schedule over the world group: per
 * round, every channel's hops, NIC-pinned exactly as
 * CollectiveEngine pins them (channel c rides NIC c on both ends of
 * an inter-node hop; intra-node hops use NVLink).
 */
std::vector<std::vector<FlowHop>>
scheduleRounds(const ProbeShape &shape, const Cluster &cluster)
{
    const TopologyView view(cluster);
    const CommGroup group =
        CommGroup::worldOf(static_cast<int>(cluster.allGpus().size()));
    const int channels = resolveChannels(group, 0, view);
    const int root = shape.op == CollectiveOp::Broadcast ||
                             shape.op == CollectiveOp::Reduce
                         ? 0
                         : -1;
    // Every channel runs the same schedule over its share.
    const std::vector<CollectiveRound> rounds =
        collectiveAlgorithm(shape.algo)
            .rounds(shape.op, group, shape.payload / channels, root, view);
    std::vector<std::vector<FlowHop>> out(rounds.size());
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        for (int c = 0; c < channels; ++c) {
            for (const CollectiveHop &h : rounds[r]) {
                FlowHop f{cluster.gpuByRank(h.src_rank),
                          cluster.gpuByRank(h.dst_rank),
                          {},
                          static_cast<std::uint64_t>(c),
                          h.bytes};
                const int sn = cluster.nodeOfRank(h.src_rank);
                const int dn = cluster.nodeOfRank(h.dst_rank);
                if (sn != dn) {
                    const auto &snics = cluster.node(sn).nics;
                    const auto &dnics = cluster.node(dn).nics;
                    f.waypoints = {
                        snics[static_cast<std::size_t>(c) % snics.size()],
                        dnics[static_cast<std::size_t>(c) % dnics.size()]};
                }
                out[r].push_back(std::move(f));
            }
        }
    }
    return out;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

ProbeShape
shapeFromReport(const ExperimentConfig &config,
                const ExperimentReport &report)
{
    ProbeShape shape;
    shape.config = config;
    Bytes best = -1.0;
    for (const CollectiveUsage &u : report.collectives) {
        if (u.fabric_bytes > best && u.invocations > 0) {
            best = u.fabric_bytes;
            shape.op = u.op;
            shape.algo = u.algo;
            shape.payload =
                u.payload_bytes / static_cast<double>(u.invocations);
        }
    }
    if (best < 0.0) {
        // No collectives at all (a single-GPU run): probe a 64 MiB
        // ring all-reduce on the same cluster.
        shape.payload = 64.0 * 1024 * 1024;
    }
    return shape;
}

double
probeEventNs()
{
    constexpr int kPending = 1024;
    constexpr int kEvents = 300'000;
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
        EventQueue q;
        std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
        int left = kEvents - kPending;
        std::function<void()> fire;
        fire = [&] {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            if (left-- > 0)
                q.scheduleAfter(1e-6 * static_cast<double>(lcg >> 54),
                                fire);
        };
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < kPending; ++i)
            q.schedule(1e-6 * i, fire);
        q.run();
        samples.push_back(secondsSince(t0) * 1e9 /
                          static_cast<double>(q.executedCount()));
    }
    return median(samples);
}

double
probeRouteNs(const ProbeShape &shape)
{
    Stack st(shape.config, false);
    const auto rounds = scheduleRounds(shape, st.cluster);
    const Router &router = st.cluster.router();
    std::size_t checksum = 0;
    auto replay = [&] {
        std::uint64_t calls = 0;
        for (const auto &round : rounds) {
            for (const FlowHop &h : round) {
                checksum += router.routeThrough(h.src, h.waypoints, h.dst,
                                                h.key)
                                .hops.size();
                ++calls;
            }
        }
        return calls;
    };
    replay();  // fill the route caches, as the first iteration does
    std::uint64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        calls += replay();
    } while (secondsSince(t0) < kMinProbeSeconds);
    const double ns = secondsSince(t0) * 1e9 / static_cast<double>(calls);
    DSTRAIN_ASSERT(checksum > 0, "route probe found no hops");
    return ns;
}

double
probeFlowNs(const ProbeShape &shape)
{
    Stack st(shape.config, false);
    const auto rounds = scheduleRounds(shape, st.cluster);
    DSTRAIN_ASSERT(!rounds.empty(), "flow probe has no rounds");
    std::uint64_t done = 0;
    auto round = [&] {
        for (const FlowHop &h : rounds.front()) {
            TransferOptions opts;
            opts.waypoints = h.waypoints;
            opts.flow_key = h.key;
            st.tm.start(h.src, h.dst, h.bytes, [&done] { ++done; },
                        std::move(opts));
        }
        st.sim.run();
    };
    round();  // warm the route caches
    const std::uint64_t warm = done;
    const Clock::time_point t0 = Clock::now();
    do {
        round();
    } while (secondsSince(t0) < kMinProbeSeconds);
    const double secs = secondsSince(t0);
    DSTRAIN_ASSERT(done == st.tm.completedCount(),
                   "flow probe lost completions");
    return secs * 1e9 / static_cast<double>(done - warm);
}

double
probeCollectiveMs(const ProbeShape &shape, double *flows_per_op)
{
    Stack st(shape.config, false);
    CollectiveEngine coll(st.tm);
    const CommGroup group = CommGroup::worldOf(
        static_cast<int>(st.cluster.allGpus().size()));
    auto op = [&] {
        CollectiveOptions opts;
        opts.algorithm = shape.algo;
        switch (shape.op) {
          case CollectiveOp::AllReduce:
            coll.allReduce(group, shape.payload, nullptr, opts);
            break;
          case CollectiveOp::ReduceScatter:
            coll.reduceScatter(group, shape.payload, nullptr, opts);
            break;
          case CollectiveOp::AllGather:
            coll.allGather(group, shape.payload, nullptr, opts);
            break;
          case CollectiveOp::Broadcast:
            coll.broadcast(group, 0, shape.payload, nullptr, opts);
            break;
          case CollectiveOp::Reduce:
            coll.reduce(group, 0, shape.payload, nullptr, opts);
            break;
          case CollectiveOp::AllToAll:
            coll.allToAll(group, shape.payload, nullptr, opts);
            break;
        }
        st.sim.run();
    };
    op();  // warm the route caches
    const std::uint64_t started0 = st.tm.startedCount();
    int ops = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        op();
        ++ops;
    } while (ops < 2 || secondsSince(t0) < kMinProbeSeconds);
    const double secs = secondsSince(t0);
    DSTRAIN_ASSERT(coll.completedCount() ==
                       static_cast<std::uint64_t>(ops) + 1,
                   "collective probe lost ops");
    *flows_per_op = static_cast<double>(st.tm.startedCount() - started0) /
                    ops;
    return secs * 1e3 / ops;
}

double
probeStorageNs(const ProbeShape &shape)
{
    Stack st(shape.config, true);
    AioEngine aio(st.tm);
    const int drives = static_cast<int>(st.cluster.node(0).nvmes.size());
    const int sockets = static_cast<int>(st.cluster.node(0).drams.size());
    DSTRAIN_ASSERT(drives > 0 && sockets > 0,
                   "storage probe: node 0 has no drives or sockets");
    std::uint64_t done = 0;
    std::uint64_t issued = 0;
    auto batch = [&] {
        for (const bool write : {true, false}) {
            for (int d = 0; d < drives; ++d) {
                for (int s = 0; s < sockets; ++s) {
                    StorageIo io;
                    io.write = write;
                    io.bytes = 16.0 * 1024 * 1024;
                    io.node = 0;
                    io.socket = s;
                    io.on_done = [&done] { ++done; };
                    aio.submit(d, std::move(io));
                    ++issued;
                }
            }
            st.sim.run();
        }
    };
    batch();
    const std::uint64_t warm = done;
    const Clock::time_point t0 = Clock::now();
    do {
        batch();
    } while (secondsSince(t0) < kMinProbeSeconds);
    const double secs = secondsSince(t0);
    DSTRAIN_ASSERT(done == issued, "storage probe lost IOs");
    return secs * 1e9 / static_cast<double>(done - warm);
}

} // namespace e2ebench
