/**
 * @file
 * e2ebench: host time of real dstrain Experiments, end to end and
 * layer by layer.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out trace.json] [--smoke]
 *
 * Runs the workload's Experiments single-threaded in passes (one pass
 * = every Experiment constructed, run and reported once) until the
 * time budget is spent, and prints one JSON object per line:
 *
 *   {"type":"start", ...}       before each Experiment (so run.py
 *                               can name the one that aborted)
 *   {"type":"experiment", ...}  its outcome, fingerprint and counts
 *   {"type":"pass", ...}        the pass's host times
 *   {"type":"setup", ...}       a set-up-only time sample (after
 *                               every pass)
 *   {"type":"probes", ...}      layer probes (traced run only)
 *   {"type":"summary", ...}     peak RSS and the event-queue canary
 *
 * With --trace 1, untraced and traced passes alternate: a traced pass
 * additionally times the public calls the Experiment makes
 * internally (memplan solve, Cluster build, strategy plan, bandwidth
 * report) by making them itself, inside spans that are written as
 * Chrome-trace JSON at exit. run.py turns these lines into the
 * benchmark's metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/config_args.hh"
#include "core/report.hh"
#include "memplan/capacity_solver.hh"
#include "model/size_ladder.hh"
#include "probes.hh"
#include "strategies/strategy.hh"
#include "telemetry/summary.hh"
#include "trace.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace dstrain;
using namespace e2ebench;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Construction work one set-up sample averages over (setup_s is the
 * median of one sample per pass): one construction takes well under
 * a millisecond, too short to time alone.
 */
constexpr double kSetupSampleSeconds = 0.1;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a-64, the hash the fingerprint regression tests pin. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Ordered name -> value pairs rendered as one JSON object. */
class JsonFields
{
  public:
    void add(const std::string &key, double v)
    {
        addRaw(key, csprintf("%.17g", v));
    }
    void add(const std::string &key, std::uint64_t v)
    {
        addRaw(key, std::to_string(v));
    }
    void addString(const std::string &key, const std::string &v)
    {
        addRaw(key, jsonString(v));
    }
    /** @p json must already be valid JSON (a nested object, a list). */
    void addRaw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + jsonString(key) + ":" + json;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

void
emit(const std::string &line)
{
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/**
 * Per-run work counters, read from public accessors after run().
 * They repeat exactly for a given config.
 */
JsonFields
runCounts(Experiment &exp, const ExperimentReport &r)
{
    JsonFields c;
    c.add("sim.events", exp.sim().events().executedCount());
    c.add("net.transfers", exp.transfers().startedCount());
    c.add("net.solves", r.scheduler.recomputes);
    c.add("net.region_solves", r.scheduler.region_solves);
    c.add("net.region_flows", r.scheduler.region_flows);
    c.add("net.rate_updates", r.scheduler.rate_updates);
    c.add("net.fast_finishes", r.scheduler.fast_finishes);
    c.add("net.completion_index_updates",
          r.scheduler.completion_index_updates);
    c.add("net.capacity_updates", r.scheduler.capacity_updates);
    c.add("net.cancels", r.scheduler.cancels);
    c.add("net.reroutes", exp.transfers().rerouteCount());
    c.add("net.stalled_parks", r.scheduler.stalled_parks);
    c.add("hw.route_invalidations",
          exp.cluster().router().cacheInvalidations());
    c.add("net.resilience.collective_timeouts",
          r.resilience.collective_timeouts);
    c.add("net.resilience.comm_shrinks", r.resilience.comm_shrinks);
    c.add("recovery.checkpoints",
          static_cast<std::uint64_t>(r.recovery.checkpoints));
    c.add("recovery.recoveries",
          static_cast<std::uint64_t>(r.recovery.recoveries));
    std::uint64_t invocations = 0;
    double fabric_bytes = 0.0;
    for (const CollectiveUsage &u : r.collectives) {
        invocations += u.invocations;
        fabric_bytes += u.fabric_bytes;
    }
    c.add("collectives.invocations", invocations);
    c.add("collectives.fabric_bytes", fabric_bytes);
    c.add("telemetry.buckets_touched", r.telemetry.buckets_touched);
    c.add("telemetry.memory_bytes", r.telemetry.memory_bytes);
    c.add("fault.events", static_cast<std::uint64_t>(r.faults.size()));
    return c;
}

/** One Experiment of the workload with its parsed config. */
struct Prepared {
    const ExperimentSpec *spec;
    ParsedExperiment parsed;
};

Prepared
prepare(const ExperimentSpec &spec)
{
    ArgParser args("dstrain", "e2ebench experiment");
    addExperimentOptions(args);
    std::vector<const char *> argv = {"dstrain"};
    for (const std::string &a : spec.args)
        argv.push_back(a.c_str());
    Prepared p{&spec, {}};
    if (!args.parse(static_cast<int>(argv.size()), argv.data())) {
        p.parsed.errors.push_back({"args", "unparseable arguments"});
        return p;
    }
    p.parsed = experimentFromArgs(args);
    return p;
}

/** What one pass measured. */
struct PassResult {
    double wall_s = 0.0;   ///< Experiments constructed, run, destroyed
    double setup_s = 0.0;  ///< ... of which construction
    double total_s = 0.0;  ///< the whole pass, bookkeeping included
};

/**
 * The layer calls a traced pass times itself: the public functions
 * Experiment's constructor and run() call internally, made again for
 * the same config (the bandwidth report is timed after the run).
 */
void
timeLayerCalls(Tracer &tr, int run, const ExperimentConfig &cfg0)
{
    ExperimentConfig cfg = cfg0;
    cfg.cluster = experimentClusterSpec(cfg, false);
    LadderEntry model;
    {
        ScopedSpan s(&tr, "memplan.solve", run);
        if (cfg.model_billions > 0.0) {
            model = ladderEntryFor(cfg.model_billions);
            (void)fitsCluster(TransformerConfig::gpt2Like(model.layers),
                              cfg.strategy, cfg.cluster, cfg.batch_per_gpu,
                              cfg.memory_cal);
        } else {
            model = solveMaxModel(cfg.strategy, cfg.cluster,
                                  cfg.batch_per_gpu, cfg.memory_cal)
                        .entry;
        }
    }
    std::unique_ptr<Cluster> cluster;
    {
        ScopedSpan s(&tr, "hw.build", run);
        cluster = std::make_unique<Cluster>(cfg.cluster);
    }
    {
        ScopedSpan s(&tr, "strategies.plan", run);
        PlanContext ctx{*cluster, TransformerConfig::gpt2Like(model.layers),
                        cfg.batch_per_gpu, cfg.placement, cfg.tuning};
        Strategy::create(cfg.strategy)->buildIteration(ctx);
    }
}

class Bench
{
  public:
    explicit Bench(Workload w) : w_(std::move(w))
    {
        for (const ExperimentSpec &spec : w_.experiments)
            prepared_.push_back(prepare(spec));
    }

    /** Run pass @p pass; traced passes record spans into tracer_. */
    PassResult runPass(int pass, bool traced);

    /**
     * One set-up time sample: every Experiment constructed and
     * destroyed, repeated for at least kSetupSampleSeconds; returns
     * the mean construction time per repetition, the same quantity
     * a pass's setup_s sums.
     */
    double setupSample() const;

    const ProbeShape *shape() const { return shape_.get(); }
    Tracer &tracer() { return tracer_; }

  private:
    Workload w_;
    std::vector<Prepared> prepared_;
    std::unique_ptr<ProbeShape> shape_;
    Tracer tracer_;
};

PassResult
Bench::runPass(int pass, bool traced)
{
    PassResult pr;
    const Clock::time_point pass_t0 = Clock::now();
    Tracer *tr = traced ? &tracer_ : nullptr;
    ScopedSpan pass_span(tr, "pass", pass);
    for (std::size_t i = 0; i < prepared_.size(); ++i) {
        const Prepared &p = prepared_[i];
        const std::string &name = p.spec->name;
        JsonFields line;
        line.addString("type", "experiment");
        line.add("pass", static_cast<std::uint64_t>(pass));
        line.add("traced", static_cast<std::uint64_t>(traced));
        line.addString("name", name);
        if (!p.parsed.ok()) {
            line.addString("status", "config_error");
            line.addString("error", formatConfigErrors(p.parsed.errors));
            emit(line.str());
            continue;
        }
        JsonFields start;
        start.addString("type", "start");
        start.add("pass", static_cast<std::uint64_t>(pass));
        start.addString("name", name);
        emit(start.str());

        ScopedSpan exp_span(tr, "experiment:" + name, pass);
        if (tr)
            timeLayerCalls(*tr, pass, p.parsed.config);

        ExperimentReport report;
        JsonFields counts;
        const Clock::time_point t0 = Clock::now();
        double setup = 0.0;
        double run = 0.0;
        {
            std::unique_ptr<Experiment> exp;
            {
                ScopedSpan s(tr, "core.setup", pass);
                exp = std::make_unique<Experiment>(p.parsed.config);
            }
            setup = secondsSince(t0);
            {
                ScopedSpan s(tr, "core.run", pass);
                report = exp->run();
            }
            run = secondsSince(t0) - setup;
            counts = runCounts(*exp, report);
            if (tr) {
                ScopedSpan s(tr, "telemetry.report", pass);
                measureBandwidthRow(p.parsed.config.strategy.displayName(),
                                    exp->cluster().topology(),
                                    report.execution.measured_begin,
                                    report.execution.measured_end,
                                    p.parsed.config.telemetry.bucket);
            }
            const Clock::time_point d0 = Clock::now();
            {
                ScopedSpan s(tr, "core.teardown", pass);
                exp.reset();
            }
            run += secondsSince(d0);
        }
        pr.wall_s += setup + run;
        pr.setup_s += setup;

        if (!shape_ && i == w_.probe_experiment)
            shape_ = std::make_unique<ProbeShape>(
                shapeFromReport(p.parsed.config, report));

        line.addString("status", "ok");
        line.addString("hash",
                       csprintf("0x%016llx",
                                static_cast<unsigned long long>(
                                    fnv1a64(reportFingerprint(report)))));
        line.add("setup_s", setup);
        line.add("wall_s", setup + run);
        line.addRaw("counts", counts.str());
        emit(line.str());
    }
    pr.total_s = secondsSince(pass_t0);
    return pr;
}

double
Bench::setupSample() const
{
    double construct = 0.0;
    int reps = 0;
    const Clock::time_point sample_t0 = Clock::now();
    do {
        for (const Prepared &p : prepared_) {
            if (!p.parsed.ok())
                continue;
            const Clock::time_point t0 = Clock::now();
            auto exp = std::make_unique<Experiment>(p.parsed.config);
            construct += secondsSince(t0);
        }
        ++reps;
    } while (secondsSince(sample_t0) < kSetupSampleSeconds);
    return construct / reps;
}

/** A /proc/self/status memory field ("VmHWM", "VmRSS") in MiB. */
double
statusMb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = field + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
    return 0.0;
}

std::uint64_t
parseSeed(const std::string &text, bool *ok)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    *ok = !text.empty() && end != nullptr && *end == '\0' &&
          text[0] != '-';
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("e2ebench",
                   "host time of dstrain Experiments, end to end and "
                   "per layer");
    args.addOption("workload", "", "workload name");
    args.addOption("seed", "1", "workload seed");
    args.addOption("seconds", "20", "measurement budget in seconds");
    args.addOption("trace", "0", "1 = traced run with layer probes");
    args.addOption("trace-out", "", "Chrome-trace JSON path (--trace 1)");
    args.addFlag("smoke", "shrink every Experiment (self-check)");
    if (!args.parse(argc, argv))
        return 2;
    bool seed_ok = false;
    const std::uint64_t seed = parseSeed(args.get("seed"), &seed_ok);
    const double seconds = args.getDouble("seconds");
    const int trace = args.getInt("trace");
    Workload w;
    if (!seed_ok || !(seconds > 0.0) || (trace != 0 && trace != 1) ||
        !makeWorkload(args.get("workload"), seed, args.getFlag("smoke"),
                      &w)) {
        std::string names;
        for (const std::string &n : workloadNames())
            names += (names.empty() ? "" : "|") + n;
        std::fprintf(stderr,
                     "e2ebench: need --workload <%s>, --seed <uint>, "
                     "--seconds > 0, --trace 0|1\n",
                     names.c_str());
        return 2;
    }
    setLogLevel(LogLevel::Silent);

    const Clock::time_point t0 = Clock::now();
    const double canary_ns = probeEventNs();
    Bench bench(std::move(w));

    // Alternate untraced and traced passes in a traced run so both
    // see the same machine conditions; an untraced run has at least
    // two passes so every fingerprint is checked against a replay.
    double longest = 0.0;
    double peak_rss_mb = 0.0;
    int pass = 0;
    auto runOne = [&](bool traced) {
        const Clock::time_point pass_t0 = Clock::now();
        const PassResult pr = bench.runPass(pass, traced);
        // Peak memory of one pass, as one `dstrain run` would see it;
        // later passes would add whatever the program leaks per run.
        if (pass == 0)
            peak_rss_mb = statusMb("VmHWM");
        JsonFields line;
        line.addString("type", "pass");
        line.add("pass", static_cast<std::uint64_t>(pass));
        line.add("traced", static_cast<std::uint64_t>(traced));
        line.add("wall_s", pr.wall_s);
        line.add("setup_s", pr.setup_s);
        line.add("total_s", pr.total_s);
        line.add("rss_mb", statusMb("VmRSS"));
        if (traced) {
            JsonFields spans;
            for (const char *n :
                 {"memplan.solve", "hw.build", "strategies.plan",
                  "core.setup", "core.run", "telemetry.report",
                  "core.teardown"})
                spans.add(n, bench.tracer().total(n, pass));
            line.addRaw("spans", spans.str());
        }
        emit(line.str());

        // Set-up time is sampled after every pass, so its samples
        // spread over the whole run and see the same drift in machine
        // speed that the passes do.
        JsonFields setup_line;
        setup_line.addString("type", "setup");
        setup_line.add("pass", static_cast<std::uint64_t>(pass));
        setup_line.add("setup_s", bench.setupSample());
        emit(setup_line.str());
        longest = std::max(longest, secondsSince(pass_t0));
        ++pass;
    };

    runOne(false);
    if (trace == 1 && bench.shape()) {
        const ProbeShape &shape = *bench.shape();
        JsonFields p;
        double flows_per_op = 0.0;
        p.add("sim.event_ns", canary_ns);
        p.add("hw.route_ns", probeRouteNs(shape));
        p.add("net.flow_ns", probeFlowNs(shape));
        p.add("collectives.op_ms", probeCollectiveMs(shape, &flows_per_op));
        p.add("collectives.flows_per_op", flows_per_op);
        p.add("storage.io_ns", probeStorageNs(shape));
        p.addString("op", collectiveOpName(shape.op));
        p.addString("algo", collectiveAlgoName(shape.algo));
        p.add("payload_bytes", shape.payload);
        JsonFields line;
        line.addString("type", "probes");
        line.addRaw("probes", p.str());
        emit(line.str());
    }
    // Start another pass only while it fits in the budget (the
    // longest pass and its set-up sample so far are the estimate).
    // Odd passes of a traced run are the traced ones.
    while (secondsSince(t0) + longest <= seconds || pass < 2)
        runOne(trace == 1 && pass % 2 == 1);

    std::string trace_file;
    if (trace == 1 && !args.get("trace-out").empty()) {
        trace_file = args.get("trace-out");
        if (!bench.tracer().writeChromeTrace(trace_file)) {
            std::fprintf(stderr, "e2ebench: cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
    }
    JsonFields line;
    line.addString("type", "summary");
    line.add("peak_rss_mb", peak_rss_mb);
    line.add("canary_event_ns", canary_ns);
    line.add("elapsed_s", secondsSince(t0));
    line.addString("trace_file", trace_file);
    emit(line.str());
    return 0;
}
