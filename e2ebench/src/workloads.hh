/**
 * @file
 * The benchmark's workloads: each is a list of Experiments written as
 * `dstrain run` argument vectors, so every config goes through the
 * same flag parsing (experimentFromArgs) a user's run does.
 */

#ifndef DSTRAIN_E2EBENCH_WORKLOADS_HH
#define DSTRAIN_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/** One Experiment of a workload. */
struct ExperimentSpec {
    /** Stable name, unique within the workload (fingerprint key). */
    std::string name;

    /** `dstrain run` options, e.g. {"--nodes", "16", ...}. */
    std::vector<std::string> args;
};

/** One workload: its Experiments, in run order. */
struct Workload {
    std::string name;
    std::vector<ExperimentSpec> experiments;

    /**
     * Index of the Experiment whose shape (cluster, fabric, dominant
     * collective, NVMe placement) the layer probes replay.
     */
    std::size_t probe_experiment = 0;
};

/** Every workload name, as BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed. The seed sets the fabric's
 * ECMP seed and, in faults_fattree8, which switch, rack, rail and
 * node the faults hit. @p smoke shrinks every Experiment to a size
 * that finishes in well under a second (for the self-check).
 * Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed, bool smoke,
                  Workload *out);

/** The faults_fattree8 fault plan for @p seed (a `--faults` spec). */
std::string faultPlanFor(std::uint64_t seed);

} // namespace e2ebench

#endif // DSTRAIN_E2EBENCH_WORKLOADS_HH
