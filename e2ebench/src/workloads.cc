/**
 * @file
 * Workload definitions. Why each workload exists is recorded in
 * README.md; the sizes below are the ones its numbers refer to.
 */

#include "workloads.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace e2ebench {

using dstrain::csprintf;

namespace {

std::string
fatTree(std::uint64_t seed)
{
    return csprintf("fat-tree:seed=%llu",
                    static_cast<unsigned long long>(seed));
}

ExperimentSpec
fatTreeRun(const std::string &name, std::uint64_t seed, int nodes,
           const std::string &strategy, const std::string &model,
           int iterations)
{
    return {name,
            {"--nodes", std::to_string(nodes), "--fabric", fatTree(seed),
             "--strategy", strategy, "--model", model, "--iterations",
             std::to_string(iterations)}};
}

/** MoE on 8 nodes: pairwise all-to-all, large contention regions. */
Workload
moeFatTree8(std::uint64_t seed, bool smoke)
{
    Workload w{"moe_fattree8", {}, 0};
    w.experiments.push_back(
        smoke ? fatTreeRun("moe_n2", seed, 2, "moe", "1.4", 3)
              : fatTreeRun("moe_n8", seed, 8, "moe", "4", 4));
    return w;
}

/** ZeRO-3 on 8 nodes under a dense seeded fault plan. */
Workload
faultsFatTree8(std::uint64_t seed, bool smoke)
{
    Workload w{"faults_fattree8", {}, 0};
    ExperimentSpec e = fatTreeRun(smoke ? "faults_n8_short" : "faults_n8",
                                  seed, 8, "zero3", "10", smoke ? 3 : 8);
    for (const char *a :
         {"--resilience", "--checkpoint", "2i", "--recovery", "elastic"})
        e.args.push_back(a);
    e.args.push_back("--faults");
    e.args.push_back(faultPlanFor(seed));
    w.experiments.push_back(std::move(e));
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"moe_fattree8",
                                                   "faults_fattree8"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke,
             Workload *out)
{
    if (name == "moe_fattree8")
        *out = moeFatTree8(seed, smoke);
    else if (name == "faults_fattree8")
        *out = faultsFatTree8(seed, smoke);
    else
        return false;
    return true;
}

/**
 * The plan is safe for every seed by construction. On the 8-node
 * fat-tree (k=8: one pod, nodes 0-3 under edge sw0 = rack0, nodes
 * 4-7 under sw1 = rack1, aggregation switches sw4-sw7) it hard-kills
 * one of four redundant aggregation switches, only flaps what has
 * no redundancy (a rail, a rack's RoCE links, a second aggregation
 * switch), and kills one node, which elastic recovery re-shards
 * around. The times are fixed so every seed does the same amount
 * of work; the measured iterations span about 7-60 simulated s.
 */
std::string
faultPlanFor(std::uint64_t seed)
{
    dstrain::Rng rng(seed);
    const int rail = static_cast<int>(rng.below(2));
    const int rack = static_cast<int>(rng.below(2));
    const int agg = static_cast<int>(rng.below(4));
    const int agg2 = (agg + 1 + static_cast<int>(rng.below(3))) % 4;
    const int node = static_cast<int>(rng.below(8));
    const int nvlink_node = static_cast<int>(rng.below(8));
    return csprintf(
        "flap@4+1.5:rail%d,degrade@9+6:roce/rack%d:0.4,"
        "linkdown@15:sw%d,flap@20.5+0.3:roce/rack%d,nodedown@27:n%d,"
        "degrade@33+5:nvlink/n%d:0.5,flap@40+1:rail%d,"
        "flap@44+0.2:sw%d",
        rail, rack, 4 + agg, 1 - rack, node, nvlink_node, 1 - rail,
        4 + agg2);
}

} // namespace e2ebench
