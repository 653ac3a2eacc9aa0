/**
 * @file
 * Layer probes: each replays one workload's own shape (its cluster,
 * fabric, world group, dominant collective and per-op payload)
 * through a single module's public API and reports host time per
 * unit of work. They attribute a run's time to the event queue, the
 * router, the flow path, the collective engine and storage.
 */

#ifndef DSTRAIN_E2EBENCH_PROBES_HH
#define DSTRAIN_E2EBENCH_PROBES_HH

#include "core/experiment.hh"

namespace e2ebench {

/**
 * The cluster spec an Experiment builds for @p cfg: the NVMe
 * placement's drives are installed for NVMe strategies and
 * checkpointing runs, or always with @p force_nvme.
 */
dstrain::ClusterSpec experimentClusterSpec(const dstrain::ExperimentConfig &cfg,
                                           bool force_nvme);

/** What the probes replay, taken from one Experiment of a workload. */
struct ProbeShape {
    /** The Experiment's config (cluster, fabric, placement, algos). */
    dstrain::ExperimentConfig config;

    /** The collective with the most fabric bytes in its report. */
    dstrain::CollectiveOp op = dstrain::CollectiveOp::AllReduce;

    /** The algorithm the report says that collective ran. */
    dstrain::CollectiveAlgo algo = dstrain::CollectiveAlgo::Ring;

    /** Mean payload of one invocation of that collective. */
    dstrain::Bytes payload = 0.0;
};

/** Derive the probe shape from a finished Experiment's report. */
ProbeShape shapeFromReport(const dstrain::ExperimentConfig &config,
                           const dstrain::ExperimentReport &report);

/**
 * EventQueue schedule + execute, ns per event, at a fixed shape
 * (1024 pending events, each execution schedules its successor).
 * The shape never changes, so this doubles as the machine-speed
 * canary printed beside every workload's results.
 */
double probeEventNs();

/**
 * Router::routeThrough per NIC-pinned hop of one full invocation of
 * the dominant collective's schedule (every channel, every round),
 * ns per call, caches warm.
 */
double probeRouteNs(const ProbeShape &shape);

/**
 * TransferManager::start to on_done, ns per flow: the first round of
 * the dominant collective's schedule on every channel, started
 * together and run to completion, repeated.
 */
double probeFlowNs(const ProbeShape &shape);

/**
 * One CollectiveEngine invocation of the dominant collective over
 * the world group, run to completion: ms per op. @p flows_per_op
 * receives the transfers one op starts (rounds x hops x channels).
 */
double probeCollectiveMs(const ProbeShape &shape, double *flows_per_op);

/**
 * AioEngine::submit to completion on the shape's node type with its
 * NVMe placement installed: a 16 MiB write and read per drive from
 * each socket, ns per IO.
 */
double probeStorageNs(const ProbeShape &shape);

} // namespace e2ebench

#endif // DSTRAIN_E2EBENCH_PROBES_HH
