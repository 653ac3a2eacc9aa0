/**
 * @file
 * Implementation of the collective engine: algorithm resolution,
 * channel splitting and round-by-round flow execution.
 */

#include "collectives/communicator.hh"

#include <algorithm>
#include <memory>
#include <numeric>
#include <tuple>

#include "collectives/algorithms.hh"
#include "collectives/topology_view.hh"
#include "collectives/volume.hh"
#include "net/resilience.hh"
#include "util/logging.hh"

namespace dstrain {

CommGroup
CommGroup::worldOf(int n)
{
    CommGroup g;
    g.ranks.resize(static_cast<std::size_t>(n));
    std::iota(g.ranks.begin(), g.ranks.end(), 0);
    return g;
}

const char *
collectiveOpName(CollectiveOp op)
{
    switch (op) {
      case CollectiveOp::AllReduce:
        return "all-reduce";
      case CollectiveOp::ReduceScatter:
        return "reduce-scatter";
      case CollectiveOp::AllGather:
        return "all-gather";
      case CollectiveOp::Broadcast:
        return "broadcast";
      case CollectiveOp::Reduce:
        return "reduce";
      case CollectiveOp::AllToAll:
        return "all-to-all";
    }
    panic("unknown CollectiveOp %d", static_cast<int>(op));
}

const char *
collectiveAlgoName(CollectiveAlgo algo)
{
    switch (algo) {
      case CollectiveAlgo::Auto:
        return "auto";
      case CollectiveAlgo::Ring:
        return "ring";
      case CollectiveAlgo::Pairwise:
        return "pairwise";
      case CollectiveAlgo::Tree:
        return "tree";
      case CollectiveAlgo::Hierarchical:
        return "hierarchical";
    }
    panic("unknown CollectiveAlgo %d", static_cast<int>(algo));
}

CollectiveEngine::CollectiveEngine(TransferManager &tm)
    : tm_(tm)
{
}

std::vector<ComponentId>
CollectiveEngine::viaNics(int src_rank, int dst_rank, int channel,
                          bool pin) const
{
    Cluster &cl = tm_.cluster();
    if (!pin)
        return {};
    const int src_node = cl.nodeOfRank(src_rank);
    const int dst_node = cl.nodeOfRank(dst_rank);
    if (src_node == dst_node)
        return {};  // intra-node: NVLink
    const auto &src_nics = cl.node(src_node).nics;
    const auto &dst_nics = cl.node(dst_node).nics;
    DSTRAIN_ASSERT(!src_nics.empty() && !dst_nics.empty(),
                   "nodes %d/%d lack NICs", src_node, dst_node);
    return {src_nics[static_cast<std::size_t>(channel) %
                     src_nics.size()],
            dst_nics[static_cast<std::size_t>(channel) %
                     dst_nics.size()]};
}

/**
 * One runRounds() invocation: a state machine that launches round i
 * and moves on when all of its transfers land. With resilience
 * attached, a per-round progress watchdog (the NCCL-watchdog model)
 * additionally rescues rounds stranded on a dead route: stalled hops
 * are cancelled byte-conservingly and relaunched with the undelivered
 * remainder once routing has reconverged — completed rounds never
 * re-run.
 *
 * Only pending transfer callbacks and pending events own the state
 * (each holds a shared_ptr to it and nothing else), so it is freed
 * together with the last of them.
 */
struct CollectiveEngine::RoundRun {
    using Ptr = std::shared_ptr<RoundRun>;

    CollectiveEngine *eng;
    std::vector<CollectiveRound> rounds;
    int channel;
    bool pin;
    double bw_factor = 1.0;
    std::string tag;
    Callback on_done;
    /** Resilience coordinator at invocation time (nullptr = none). */
    ResilienceCoordinator *rc = nullptr;
    /** Watchdog period; 0 disables the watchdog. */
    SimTime timeout = 0.0;
    std::size_t next_round = 0;
    int outstanding = 0;
    /** Current round's hops; bytes shrink on rescue relaunch. */
    CollectiveRound cur;
    /** Transfer ids of the current round (0 = untracked). */
    std::vector<std::uint64_t> xids;
    /** Bumped per round launch: stale watchdog events bail. */
    std::uint64_t round_gen = 0;
    /** Watchdog rescues performed for this invocation. */
    int resumes = 0;

    /** Launch the next round, or finish. */
    static void advance(const Ptr &st);
    /** One hop of the current round landed. */
    static void hopDone(const Ptr &st);
    /** Launch hop @p i of the current round (initial launch and
     * watchdog relaunch share it so both attempts are identical). */
    static void startHop(const Ptr &st, std::size_t i);
    /** Arm the watchdog for the current round. */
    static void armWatchdog(const Ptr &st);
    /** The watchdog body; @p gen and @p epoch pin the (round,
     * abort-epoch) it was armed for. */
    static void watch(const Ptr &st, std::uint64_t gen,
                      std::uint64_t epoch);
};

void
CollectiveEngine::RoundRun::advance(const Ptr &st)
{
    if (st->next_round >= st->rounds.size()) {
        if (st->on_done)
            st->on_done();
        return;
    }
    const CollectiveRound &round = st->rounds[st->next_round++];
    DSTRAIN_ASSERT(!round.empty(), "empty collective round");
    st->cur = round;
    st->xids.assign(round.size(), 0);
    st->outstanding = static_cast<int>(round.size());
    ++st->round_gen;
    for (std::size_t i = 0; i < st->cur.size(); ++i)
        startHop(st, i);
    if (st->rc != nullptr && st->timeout > 0.0)
        armWatchdog(st);
}

void
CollectiveEngine::RoundRun::hopDone(const Ptr &st)
{
    if (--st->outstanding == 0)
        advance(st);
}

void
CollectiveEngine::RoundRun::startHop(const Ptr &st, std::size_t i)
{
    Cluster &cl = st->eng->tm_.cluster();
    const CollectiveHop &hop = st->cur[i];
    TransferOptions opts;
    opts.waypoints = st->eng->viaNics(hop.src_rank, hop.dst_rank,
                                      st->channel, st->pin);
    opts.rate_factor = st->bw_factor;
    // On multipath fabrics, ECMP spreads the channels over the
    // equal-cost trunks (deterministically).
    opts.flow_key = static_cast<std::uint64_t>(st->channel);
    opts.tag = st->tag;
    st->xids[i] = st->eng->tm_.start(
        cl.gpuByRank(hop.src_rank), cl.gpuByRank(hop.dst_rank),
        hop.bytes, [st] { hopDone(st); }, std::move(opts));
}

void
CollectiveEngine::RoundRun::armWatchdog(const Ptr &st)
{
    TransferManager &tm = st->eng->tm_;
    const std::uint64_t gen = st->round_gen;
    const std::uint64_t epoch = tm.abortEpoch();
    tm.sim().events().scheduleAfter(
        st->timeout, [st, gen, epoch] { watch(st, gen, epoch); });
}

void
CollectiveEngine::RoundRun::watch(const Ptr &st, std::uint64_t gen,
                                  std::uint64_t epoch)
{
    TransferManager &tm = st->eng->tm_;
    ResilienceCoordinator *rc = st->rc;
    if (epoch != tm.abortEpoch())
        return;  // hard-fault abort killed this attempt
    if (gen != st->round_gen || st->outstanding == 0)
        return;  // the round completed; a new watchdog owns the next
    bool rescued = false;
    if (st->resumes < rc->config().max_collective_resumes) {
        for (std::size_t i = 0; i < st->xids.size(); ++i) {
            if (st->xids[i] == 0 || !tm.transferStalled(st->xids[i]))
                continue;
            // Byte-conserving round resume: the stalled hop's
            // delivered bytes stay delivered, only the remainder
            // relaunches — after routing has reconverged, so the
            // fresh transfer resolves around the cut.
            const Bytes rem = tm.cancelTransfer(st->xids[i]);
            st->xids[i] = 0;
            rescued = true;
            if (rem <= 0.0) {
                // Everything had landed; the cancelled callback never
                // fires, so settle the hop as a completion (deferred:
                // advancing mid-loop would launch the next round while
                // hops are still under review).
                tm.sim().events().scheduleAfter(0.0,
                                                [st] { hopDone(st); });
                continue;
            }
            st->cur[i].bytes = rem;
            const std::uint64_t g = st->round_gen;
            const std::uint64_t e = tm.abortEpoch();
            tm.sim().events().schedule(
                rc->reconvergedAt(), [st, i, g, e] {
                    if (e != st->eng->tm_.abortEpoch() ||
                        g != st->round_gen)
                        return;
                    startHop(st, i);
                });
        }
    }
    if (rescued) {
        ++rc->stats().collective_timeouts;
        ++st->resumes;
    }
    if (st->outstanding > 0 &&
        st->resumes < rc->config().max_collective_resumes)
        armWatchdog(st);
}

void
CollectiveEngine::runRounds(std::vector<CollectiveRound> rounds,
                            int channel, bool pin, double bw_factor,
                            const std::string &tag, Callback on_done)
{
    auto st = std::make_shared<RoundRun>();
    st->eng = this;
    st->rounds = std::move(rounds);
    st->channel = channel;
    st->pin = pin;
    st->bw_factor = bw_factor;
    st->tag = tag;
    st->on_done = std::move(on_done);
    st->rc = resilience_;
    if (st->rc != nullptr)
        st->timeout = st->rc->config().collective_timeout;
    RoundRun::advance(st);
}

void
CollectiveEngine::markRanksDead(const std::vector<int> &ranks)
{
    if (ranks.empty())
        return;
    dead_ranks_.insert(dead_ranks_.end(), ranks.begin(), ranks.end());
    std::sort(dead_ranks_.begin(), dead_ranks_.end());
    dead_ranks_.erase(
        std::unique(dead_ranks_.begin(), dead_ranks_.end()),
        dead_ranks_.end());
    // One elastic communicator-shrink event; per-group reforms are
    // counted again as they happen in runOp.
    if (resilience_ != nullptr)
        ++resilience_->stats().comm_shrinks;
}

bool
CollectiveEngine::rankDead(int rank) const
{
    return std::binary_search(dead_ranks_.begin(), dead_ranks_.end(),
                              rank);
}

bool
CollectiveEngine::hierarchicalDomainCut(const CommGroup &group) const
{
    Cluster &cl = tm_.cluster();
    const Topology &topo = cl.topology();
    std::vector<std::uint8_t> involved(
        static_cast<std::size_t>(cl.nodeCount()), 0);
    for (const int r : group.ranks)
        involved[static_cast<std::size_t>(cl.nodeOfRank(r))] = 1;
    for (const Resource &res : topo.resources()) {
        if (res.cls != LinkClass::NvLink || res.node < 0)
            continue;
        if (involved[static_cast<std::size_t>(res.node)] &&
            res.capacity <= 0.0)
            return true;
    }
    return false;
}

void
CollectiveEngine::recordUsage(CollectiveOp op, CollectiveAlgo algo,
                              int n, Bytes bytes)
{
    for (CollectiveUsage &u : usage_) {
        if (u.op == op && u.algo == algo) {
            ++u.invocations;
            u.payload_bytes += bytes;
            u.fabric_bytes += collectiveTotalVolume(op, n, bytes);
            return;
        }
    }
    CollectiveUsage u;
    u.op = op;
    u.algo = algo;
    u.invocations = 1;
    u.payload_bytes = bytes;
    u.fabric_bytes = collectiveTotalVolume(op, n, bytes);
    usage_.push_back(u);
}

void
CollectiveEngine::runOp(CollectiveOp op, const CommGroup &group,
                        int root, Bytes bytes, CollectiveOptions opts,
                        Callback on_done)
{
    const std::string kind = collectiveOpName(op);
    DSTRAIN_ASSERT(group.size() >= 2, "%s needs >= 2 ranks (got %d)",
                   kind.c_str(), group.size());
    const TopologyView view(tm_.cluster());

    // Elastic communicator shrink: reform the group over survivors
    // before the algorithm resolves, so a strategy that still names
    // a lost rank degrades instead of panicking inside the schedule.
    CommGroup live = group;
    if (resilience_ != nullptr && !dead_ranks_.empty()) {
        std::vector<int> alive;
        alive.reserve(live.ranks.size());
        for (const int r : live.ranks)
            if (!rankDead(r))
                alive.push_back(r);
        if (alive.size() != live.ranks.size()) {
            ++resilience_->stats().comm_shrinks;
            live.ranks = std::move(alive);
        }
    }
    if (live.size() < 2) {
        // Degenerate post-shrink group: a lone survivor has nothing
        // to exchange. Complete asynchronously (callers expect the
        // callback after, not during, the invocation).
        if (on_done)
            tm_.sim().events().scheduleAfter(0.0, std::move(on_done));
        return;
    }
    if (root >= 0 && rankDead(root))
        root = live.ranks.front();

    const int channels = resolveChannels(live, opts.channels, view);

    const CollectiveAlgo requested =
        opts.algorithm != CollectiveAlgo::Auto ? opts.algorithm
                                               : spec_.requestedFor(op);
    CollectiveAlgo algo =
        resolveCollectiveAlgorithm(op, live, bytes, requested, view);
    if (resilience_ != nullptr &&
        resilience_->config().collective_fallback) {
        // Degraded-schedule fallback: an algorithm whose structural
        // assumption is cut re-resolves deterministically through
        // the Auto policy's universal fallbacks (all-to-all ->
        // pairwise, everything else -> ring). Tree's pow2 assumption
        // after rank loss resolves inside resolveCollectiveAlgorithm
        // (the shrunk group fails supports()); hierarchical's
        // intra-node NVLink domain is checked here because the
        // schedule, not the group shape, depends on it.
        CollectiveAlgo degraded = algo;
        if (degraded == CollectiveAlgo::Hierarchical &&
            hierarchicalDomainCut(live)) {
            degraded = op == CollectiveOp::AllToAll
                           ? CollectiveAlgo::Pairwise
                           : CollectiveAlgo::Ring;
        }
        const bool shrunk = live.size() != group.size();
        const CollectiveAlgo healthy =
            shrunk ? resolveCollectiveAlgorithm(op, group, bytes,
                                                requested, view)
                   : algo;
        if (degraded != healthy)
            ++resilience_->stats().collective_fallbacks;
        algo = degraded;
    }
    const CollectiveAlgorithm &impl = collectiveAlgorithm(algo);
    recordUsage(op, algo, live.size(), bytes);

    const std::string tag =
        opts.tag.empty() ? kind : opts.tag + "/" + kind;

    auto remaining = std::make_shared<int>(channels);
    auto done = std::make_shared<Callback>(std::move(on_done));
    for (int c = 0; c < channels; ++c) {
        const Bytes share = bytes / channels;
        std::vector<CollectiveRound> rounds =
            impl.rounds(op, live, share, root, view);
        runRounds(std::move(rounds), c, opts.pin_channels_to_nics,
                  opts.bandwidth_factor, tag,
                  [this, remaining, done] {
                      if (--*remaining == 0) {
                          ++completed_;
                          if (*done)
                              (*done)();
                      }
                  });
    }
}

void
CollectiveEngine::reduceScatter(const CommGroup &group, Bytes bytes,
                                Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::ReduceScatter, group, -1, bytes,
          std::move(opts), std::move(on_done));
}

void
CollectiveEngine::allGather(const CommGroup &group, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllGather, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::allReduce(const CommGroup &group, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllReduce, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::broadcast(const CommGroup &group, int root, Bytes bytes,
                            Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::Broadcast, group, root, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::reduce(const CommGroup &group, int root, Bytes bytes,
                         Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::Reduce, group, root, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::allToAll(const CommGroup &group, Bytes bytes,
                           Callback on_done, CollectiveOptions opts)
{
    runOp(CollectiveOp::AllToAll, group, -1, bytes, std::move(opts),
          std::move(on_done));
}

void
CollectiveEngine::pointToPoint(int src_rank, int dst_rank, Bytes bytes,
                               Callback on_done, const std::string &tag)
{
    Cluster &cl = tm_.cluster();
    TransferOptions opts;
    opts.tag = tag;
    tm_.start(cl.gpuByRank(src_rank), cl.gpuByRank(dst_rank), bytes,
              std::move(on_done), std::move(opts));
}

} // namespace dstrain
