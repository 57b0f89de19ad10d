/**
 * @file
 * End-to-end benchmark of the ICED toolchain.
 *
 *   bench_e2e --workload paper_tables|fabric_scale|dse_service
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * A run sets the workload up several times (the median is `setup_s`),
 * then repeats whole passes until the next pass would end past
 * `--seconds`. With `--trace 0` it prints the end-to-end metrics; with
 * `--trace 1` it alternates untraced and traced passes and prints the
 * per-layer metrics of the traced ones plus the tracing overhead. The
 * last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. The run's full record (host, thread counts,
 * seed, sample counts, operation tallies and, when traced, the
 * per-layer table) goes to DIR/<workload>-s<seed>-t<trace>.json, and
 * the Perfetto trace to DIR/<workload>-s<seed>.trace.json.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "common/logging.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

/** Set-ups per run; `setup_s` is their median. */
constexpr int kSetups = 21;
/**
 * Runner and server worker threads. One keeps the figures steady on a
 * shared host: on the 4-vCPU reference host a 4-thread runner's pass
 * time ranged over 24% across back-to-back runs, a 1-thread one over 8%.
 */
constexpr int kThreads = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/e2e";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            args.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            args.trace = std::string(argv[++i]) == "1";
        } else if (a == "--out-dir" && hasValue) {
            args.outDir = argv[++i];
        } else {
            std::cerr << "bench_e2e: unknown argument '" << a << "'\n";
            return false;
        }
    }
    return args.seconds > 0.0;
}

/** A JSON object written key by key. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v)
    {
        std::ostringstream os;
        os.precision(17);
        os << (std::isfinite(v) ? v : 0.0);
        return raw(key, os.str());
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        std::string quoted(1, '"');
        quoted += jsonEscape(v);
        quoted += '"';
        return raw(key, quoted);
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        if (!body.empty())
            body += ", ";
        body += '"';
        body += jsonEscape(key);
        body += "\": ";
        body += json;
        return *this;
    }
    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

/** The passes of one phase of a run (untraced or traced). */
struct Phase
{
    std::vector<PassRecord> passes;
    Samples passWallMs;

    Samples pooled(const std::string &key) const
    {
        Samples all;
        for (const PassRecord &p : passes) {
            const auto it = p.latency.find(key);
            if (it != p.latency.end())
                all.append(it->second);
        }
        return all;
    }
    Samples perPass(const std::string &key) const
    {
        Samples all;
        for (const PassRecord &p : passes) {
            const auto it = p.values.find(key);
            if (it != p.values.end())
                all.add(it->second);
        }
        return all;
    }
    Samples mapMs() const
    {
        Samples all;
        for (const PassRecord &p : passes)
            all.append(p.mapMs);
        return all;
    }
};

using Counters = std::map<std::string, std::uint64_t>;

/**
 * One pass and its checks, a `FatalError` counted as a failed
 * operation. With `counters`, adds the registry's counter deltas over
 * the pass itself, so work done by the checks is not counted.
 */
void
runPass(Workload &w, Tally &tally, Phase &phase, Counters *counters = nullptr)
{
    PassRecord &rec = phase.passes.emplace_back();
    try {
        const Counters before = counters ? readCounters() : Counters{};
        w.runPass(rec, tally);
        if (counters) {
            for (const auto &[name, v] : readCounters())
                (*counters)[name] += v - before.at(name);
        }
        w.checkPass(rec, tally);
    } catch (const iced::FatalError &err) {
        tally.record("passes", false, err.what());
    }
    phase.passWallMs.add(rec.wallMs);
}

/** Records spans and trace events while in scope. */
class Tracing
{
  public:
    explicit Tracing(iced::TraceSession &s) : session(s)
    {
        session.start();
        Layers::global().setEnabled(true);
    }
    ~Tracing()
    {
        Layers::global().setEnabled(false);
        session.stop();
    }
    Tracing(const Tracing &) = delete;
    Tracing &operator=(const Tracing &) = delete;

  private:
    iced::TraceSession &session;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunConfig &config)
{
    if (name == "paper_tables")
        return makePaperTables(config);
    if (name == "fabric_scale")
        return makeFabricScale(config);
    if (name == "dse_service")
        return makeDseService(config);
    return nullptr;
}

/** The end-to-end metrics of the untraced passes. */
JsonObject
endToEnd(const Phase &phase, const Samples &setupMs)
{
    // Modelled results repeat exactly from pass to pass; the median of
    // the per-pass means keeps them free of summation-order rounding.
    Samples throughput, ii, power;
    for (const PassRecord &p : phase.passes) {
        throughput.add(p.coldCells / (p.coldMs / 1000.0));
        if (p.icedMappings > 0) {
            ii.add(p.iiSum / p.icedMappings);
            power.add(p.powerSum / p.icedMappings);
        }
    }
    const Samples map = phase.mapMs();
    JsonObject m;
    const auto metric = [&](const char *name, double v, const char *unit) {
        m.raw(name, JsonObject().num("value", v).str("unit", unit).text());
    };
    metric("setup_s", setupMs.median() / 1000.0, "s");
    metric("wall_s", phase.passWallMs.median() / 1000.0, "s");
    metric("cells_per_s", throughput.median(), "1/s");
    // A program whose every cold map fails leaves no samples; it reports
    // 0 and `correct: false`.
    metric("map_p50_ms", map.empty() ? 0.0 : map.median(), "ms");
    metric("map_p90_ms", map.empty() ? 0.0 : map.quantile(0.9), "ms");
    metric("peak_rss_mb", peakRssMb(), "MB");
    metric("mean_ii", ii.empty() ? 0.0 : ii.median(), "cycles");
    metric("mean_power_mw", power.empty() ? 0.0 : power.median(), "mW");
    return m;
}

/** The per-layer metrics of the traced passes. */
JsonObject
perLayer(const Phase &traced, const Phase &untraced, const Counters &counters)
{
    const Layers &layers = Layers::global();
    const double passes = static_cast<double>(traced.passes.size());
    JsonObject m;
    const auto metric = [&](const std::string &name, double v,
                            const char *unit) {
        m.raw(name, JsonObject().num("value", v).str("unit", unit).text());
    };
    const auto perCall = [&](const std::string &name, const char *span) {
        const Layers::Stat s = layers.stat(span);
        metric(name, s.calls ? s.selfMs / static_cast<double>(s.calls) : 0.0,
               "ms");
    };
    const auto perPass = [&](const std::string &name, const char *counter) {
        metric(name, static_cast<double>(counters.at(counter)) / passes,
               "count");
    };
    const auto median = [&](const std::string &name, const Samples &s,
                            const char *unit) {
        metric(name, s.empty() ? 0.0 : s.median(), unit);
    };

    perCall("kernels.build_ms", "kernels.build");
    perCall("dfg.recmii_ms", "dfg.recmii");
    perCall("mapper.labeling_ms", "mapper.labeling");
    median("mapper.map_iced_ms", traced.pooled("mapper.map_iced_ms"), "ms");
    median("mapper.map_conv_ms", traced.pooled("mapper.map_conv_ms"), "ms");
    perPass("mapper.attempts", "mapper.attempts");
    perPass("mapper.attempts_mapped", "mapper.attempts_mapped");
    perPass("mapper.candidates", "mapper.candidates");
    perPass("mapper.candidate_rollbacks", "mapper.candidate_rollbacks");
    perPass("mrrg.router.searches", "router.searches");
    perPass("mrrg.router.pruned_searches", "router.pruned_searches");
    perPass("mrrg.router.unbounded_reruns", "router.unbounded_reruns");
    const double pruned =
        static_cast<double>(counters.at("router.pruned_searches"));
    metric("mrrg.router.rerun_ratio",
           pruned > 0 ? static_cast<double>(
                            counters.at("router.unbounded_reruns")) /
                            pruned
                      : 0.0,
           "ratio");
    perCall("power.evaluate_ms", "power.evaluate");
    perCall("sim.simulate_ms", "sim.simulate");
    perPass("sim.exec_cycles", "sim.exec_cycles");
    perCall("streaming.plan_ms", "streaming.plan");
    perCall("streaming.simulate_stream_ms", "streaming.simulate_stream");
    median("streaming.inputs_per_uj",
           traced.perPass("streaming.inputs_per_uj"), "1/uJ");
    perCall("exec.runner.run_ms", "exec.runner.run");
    perPass("exec.cache.hits", "cache.memory.hits");
    perPass("exec.cache.misses", "cache.memory.misses");
    perCall("exec.codec.encode_ms", "exec.codec.encode");
    perCall("exec.codec.decode_ms", "exec.codec.decode");
    median("exec.codec.entry_bytes",
           traced.perPass("exec.codec.entry_bytes"), "bytes");
    perCall("exec.store.open_ms", "exec.store.open");
    perCall("exec.store.store_ms", "exec.store.store");
    perCall("exec.store.fetch_ms", "exec.store.fetch");
    perCall("service.server_start_ms", "service.server_start");
    median("service.ping_ms", traced.pooled("ping_ms"), "ms");
    median("service.map_computed_ms", traced.pooled("computed_ms"), "ms");
    median("service.map_memory_ms", traced.pooled("memory_ms"), "ms");
    median("service.map_persistent_ms", traced.pooled("persistent_ms"),
           "ms");
    median("service.sweep_cells_per_s",
           traced.perPass("service.sweep_cells_per_s"), "1/s");
    metric("trace.overhead_ratio",
           traced.passWallMs.median() / untraced.passWallMs.median(),
           "ratio");
    return m;
}

/** Percentile summary of one sample set, with its sample count. */
std::string
describeSamples(const Samples &s)
{
    JsonObject o;
    o.num("samples", static_cast<double>(s.size()));
    if (!s.empty()) {
        o.num("p50", s.median());
        if (s.tailSupported(0.9))
            o.num("p90", s.quantile(0.9));
    }
    return o.text();
}

std::string
describePhase(const Phase &phase)
{
    JsonObject o;
    o.num("passes", static_cast<double>(phase.passes.size()));
    o.raw("pass_wall_ms", describeSamples(phase.passWallMs));
    o.raw("map_ms", describeSamples(phase.mapMs()));
    std::map<std::string, Samples> all;
    for (const PassRecord &p : phase.passes) {
        for (const auto &[k, s] : p.latency)
            all[k].append(s);
        for (const auto &[k, v] : p.values)
            all[k].add(v);
    }
    for (const auto &[k, s] : all)
        o.raw(k, describeSamples(s));
    return o.text();
}

std::string
describeLayers()
{
    JsonObject o;
    for (const auto &[name, s] : Layers::global().table())
        o.raw(name, JsonObject()
                        .num("self_ms", s.selfMs)
                        .num("total_ms", s.totalMs)
                        .num("calls", static_cast<double>(s.calls))
                        .text());
    return o.text();
}

std::string
describeTally(const Tally &tally)
{
    JsonObject o;
    for (const auto &[kind, c] : tally.byKind())
        o.raw(kind, JsonObject()
                        .num("attempted", static_cast<double>(c.attempted))
                        .num("failed", static_cast<double>(c.failed))
                        .text());
    return o.text();
}

int
run(const Args &args)
{
    Tally tally;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    RunConfig config;
    config.seed = args.seed;
    config.threads = kThreads;
    config.outDir = args.outDir;
    std::filesystem::create_directories(config.outDir);
    std::unique_ptr<Workload> w = makeWorkload(args.workload, config);
    if (!w) {
        std::cerr << "bench_e2e: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    Samples setupMs;
    for (int i = 0; i < kSetups; ++i) {
        if (i > 0)
            w->tearDown();
        const auto start = Clock::now();
        w->setUp();
        setupMs.add(msSince(start));
    }

    // Whole passes until the next one would end after `--seconds`;
    // enough untraced passes that the 90th percentile has ten samples
    // beyond it. A traced run alternates untraced and traced passes,
    // so drift in the host's speed cancels out of the overhead ratio.
    const int minUntraced =
        args.trace ? 1
                   : (100 + w->samplesPerPass() - 1) /
                         std::max(1, w->samplesPerPass());
    const int minTraced = args.trace ? 1 : 0;
    Phase untraced, traced;
    Counters counters;
    iced::TraceSession session;
    if (args.trace) {
        Tracing on(session);
        w->tearDown();
        w->setUp();
    }
    const auto start = Clock::now();
    Samples passMs;
    for (int i = 0;; ++i) {
        const auto t0 = Clock::now();
        if (args.trace && i % 2 == 1) {
            Tracing on(session);
            runPass(*w, tally, traced, &counters);
        } else {
            runPass(*w, tally, untraced);
        }
        passMs.add(msSince(t0));
        if (static_cast<int>(untraced.passes.size()) >= minUntraced &&
            static_cast<int>(traced.passes.size()) >= minTraced &&
            msSince(start) + passMs.median() > args.seconds * 1000.0)
            break;
    }
    std::string tracePath;
    if (args.trace) {
        tracePath = config.outDir + "/" + args.workload + "-s" +
                    std::to_string(args.seed) + ".trace.json";
        tally.record("checks", session.writeFile(tracePath),
                     "could not write " + tracePath);
    }
    w->tearDown();
    selfTest(tally);

    const JsonObject metrics = args.trace
                                   ? perLayer(traced, untraced, counters)
                                   : endToEnd(untraced, setupMs);
    const Tally::Count total = tally.total();

    JsonObject host;
    host.num("nproc", hw)
        .str("compiler", "g++ " __VERSION__)
        .str("build_type", E2E_BUILD_TYPE)
        .num("threads", config.threads);
    JsonObject report;
    report.str("workload", args.workload)
        .num("seed", static_cast<double>(args.seed))
        .num("seconds", args.seconds)
        .num("trace", args.trace ? 1 : 0)
        .raw("host", host.text())
        .raw("setup_ms", describeSamples(setupMs))
        .raw("operations", describeTally(tally))
        .raw("untraced", describePhase(untraced))
        .raw("metrics", metrics.text());
    if (args.trace) {
        report.raw("traced", describePhase(traced))
            .raw("layers", describeLayers())
            .raw("counter_deltas", [&] {
                JsonObject c;
                for (const auto &[k, v] : counters)
                    c.num(k, static_cast<double>(v));
                return c.text();
            }())
            .str("perfetto_trace", tracePath);
    }
    const std::string reportPath = config.outDir + "/" + args.workload +
                                   "-s" + std::to_string(args.seed) +
                                   "-t" + (args.trace ? "1" : "0") +
                                   ".json";
    std::ofstream(reportPath) << report.text() << "\n";

    for (const std::string &f : tally.failures())
        std::cerr << "bench_e2e: FAILED " << f << "\n";
    std::cerr << "bench_e2e: " << args.workload << " seed " << args.seed
              << ": " << untraced.passes.size() << " untraced + "
              << traced.passes.size() << " traced passes; report "
              << reportPath << "\n";

    JsonObject result;
    result.raw("correct", total.failed == 0 ? "true" : "false")
        .num("attempted", static_cast<double>(total.attempted))
        .num("failed", static_cast<double>(total.failed))
        .raw("metrics", metrics.text());
    std::cout << result.text() << std::endl;
    return 0;
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    e2e::Args args;
    if (!e2e::parseArgs(argc, argv, args)) {
        std::cerr << "usage: bench_e2e --workload W --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR]\n";
        return 2;
    }
    try {
        return e2e::run(args);
    } catch (const std::exception &err) {
        std::cerr << "bench_e2e: " << err.what() << "\n";
        return 1;
    }
}
