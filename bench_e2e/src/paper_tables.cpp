/**
 * @file
 * `paper_tables`: regenerates the paper's tables and figures on the
 * 6x6, 2x2-island prototype. One pass maps all 21 kernels x unroll
 * {1, 2}, conventional and ICED, through a fresh `ExperimentRunner`
 * (cold cache), evaluates the four designs of Figures 9-11 on
 * mappings fetched back through the runner's cache, simulates every
 * ICED mapping on the seeded workload, and runs the Figure 13 GCN and
 * LU streams under the static, ICED and DRIPS policies.
 */
#include <optional>

#include "checks.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dfg/cycle_analysis.hpp"
#include "exec/experiment_runner.hpp"
#include "kernels/registry.hpp"
#include "mapper/mapper.hpp"
#include "power/report.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace iced;

/** Figure 13's stream length and profiling prefix. */
constexpr int kStreamInputs = 150;
constexpr int kProfileInputs = 50;

struct KernelCase
{
    const Kernel *kernel = nullptr;
    int unroll = 1;
    Dfg dfg;
    int recMii = 0;
    int startIi = 0;
    std::vector<std::int64_t> memory;
    int nativeIterations = 0; ///< unroll-1 iterations of the workload
    int iterations = 0;       ///< iterations at `unroll`
    /** Expected results, computed apart from the simulator once. */
    std::optional<InterpResult> golden;
    std::optional<std::vector<std::int64_t>> native;
};

class PaperTables final : public Workload
{
  public:
    explicit PaperTables(const RunConfig &config) : cfg(config) {}

    void setUp() override
    {
        cgra = std::make_unique<Cgra>(CgraConfig{});
        const Mapper bound(*cgra);
        cases.clear();
        std::vector<std::string> names;
        std::uint64_t stream = 0;
        for (const Kernel &k : kernelRegistry()) {
            names.push_back(k.name);
            for (int uf : {1, 2}) {
                KernelCase &kc = cases.emplace_back();
                kc.kernel = &k;
                kc.unroll = uf;
                {
                    Layers::Span s("kernels.build");
                    kc.dfg = k.build(uf);
                }
                {
                    Layers::Span s("dfg.recmii");
                    kc.recMii = computeRecMii(kc.dfg);
                    kc.startIi = bound.startIi(kc.dfg);
                }
                Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + ++stream);
                const iced::Workload w = k.workload(rng);
                kc.memory = w.memory;
                kc.nativeIterations = w.iterations;
                kc.iterations = unrolledIterations(w, uf);
            }
        }
        grid = ExperimentRunner::makeGrid(names, {1, 2}, {cgra->config()},
                                          {{"conv", conventionalOptions()},
                                           {"iced", MapperOptions{}}});
        Rng apps(cfg.seed);
        gcn = makeGcnApp(apps, kStreamInputs);
        lu = makeLuApp(apps, kStreamInputs);
    }

    int samplesPerPass() const override
    {
        return static_cast<int>(2 * cases.size());
    }

    void runPass(PassRecord &rec, Tally &tally) override
    {
        RunnerOptions ropts;
        ropts.threads = cfg.threads;
        std::unique_ptr<ExperimentRunner> runner;
        std::vector<JobResult> results;
        {
            Timed wall(rec.wallMs);
            Timed cold(rec.coldMs);
            runner = std::make_unique<ExperimentRunner>(ropts);
            Layers::Span s("exec.runner.run");
            results = runner->run(grid);
        }
        rec.coldCells = static_cast<int>(results.size());
        for (const JobResult &r : results) {
            if (!tally.record("cells", r.mapped(),
                              r.spec.kernel + " " + r.spec.variant +
                                  " did not map: " + r.error))
                continue;
            rec.mapMs.add(r.millis);
            rec.latency[r.spec.variant == "iced" ? "mapper.map_iced_ms"
                                                 : "mapper.map_conv_ms"]
                .add(r.millis);
        }
        checkMappings(results, tally);

        std::vector<std::shared_ptr<const MappingEntry>> iced(cases.size());
        {
            Timed wall(rec.wallMs);
            evaluate(*runner, iced, rec);
        }
        for (std::size_t i = 0; i < cases.size(); ++i)
            tally.check(iced[i] && iced[i] == results[2 * i + 1].entry
                            ? ""
                            : "the runner's cache did not return the "
                              "memoized entry",
                        name(i));

        std::vector<std::optional<SimResult>> sims(cases.size());
        {
            Timed wall(rec.wallMs);
            for (std::size_t i = 0; i < cases.size(); ++i) {
                if (!iced[i])
                    continue;
                Layers::Span s("sim.simulate");
                sims[i] = simulate(*iced[i]->mapping, cases[i].memory,
                                   SimOptions{cases[i].iterations});
            }
        }
        checkSimulations(sims, tally);

        std::vector<StreamStats> streams;
        {
            Timed wall(rec.wallMs);
            for (const AppDef *app : {&gcn, &lu})
                runStreams(*app, streams);
        }
        double icedEfficiency = 0.0;
        for (std::size_t j = 0; j < streams.size(); ++j) {
            const AppDef &app = j < 3 ? gcn : lu;
            tally.record("streams", true, app.name);
            tally.check(checkStream(streams[j],
                                    static_cast<int>(app.work.size())),
                        app.name + " stream");
            if (j % 3 == 1)
                icedEfficiency += streams[j].inputsPerUj / 2.0;
        }
        rec.values["streaming.inputs_per_uj"] = icedEfficiency;
    }

  private:
    std::string name(std::size_t i) const
    {
        return cases[i].kernel->name + " x" +
               std::to_string(cases[i].unroll);
    }

    void checkMappings(const std::vector<JobResult> &results,
                       Tally &tally) const
    {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const KernelCase &kc = cases[i];
            const PublishedStats &paper =
                kc.unroll == 1 ? kc.kernel->paperUf1 : kc.kernel->paperUf2;
            tally.check(checkRecMii(kc.recMii, paper.recMii), name(i));
            const JobResult &conv = results[2 * i];
            const JobResult &iced = results[2 * i + 1];
            if (!conv.mapped() || !iced.mapped())
                continue;
            tally.check(checkMappingViolations(conv.mapping()),
                        name(i) + " conventional");
            tally.check(checkMappingViolations(iced.mapping()),
                        name(i) + " ICED");
            tally.check(checkIiLadder(iced.mapping().ii(),
                                      conv.mapping().ii(), kc.startIi),
                        name(i));
        }
    }

    /** Figures 9-11: the four designs, mappings pulled from the cache. */
    void evaluate(ExperimentRunner &runner,
                  std::vector<std::shared_ptr<const MappingEntry>> &iced,
                  PassRecord &rec)
    {
        const MapperOptions conv = conventionalOptions();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const auto baseline =
                runner.cache().map(cgra->config(), cases[i].dfg, conv);
            auto island = runner.cache().map(cgra->config(), cases[i].dfg,
                                             MapperOptions{});
            if (!baseline->mapped() || !island->mapped())
                continue;
            Layers::Span s("power.evaluate");
            evaluateBaseline(*baseline->mapping, model);
            evaluateBaselinePg(*baseline->mapping, model);
            evaluatePerTileDvfs(*baseline->mapping, model);
            const KernelEvaluation e = evaluateIced(*island->mapping, model);
            rec.powerSum += e.power.totalMw;
            rec.iiSum += island->mapping->ii();
            ++rec.icedMappings;
            iced[i] = std::move(island);
        }
    }

    void checkSimulations(const std::vector<std::optional<SimResult>> &sims,
                          Tally &tally)
    {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            KernelCase &kc = cases[i];
            if (!tally.record("simulations", sims[i].has_value(),
                              name(i) + " was not simulated"))
                continue;
            if (!kc.golden) {
                kc.golden = interpretDfg(kc.dfg, kc.memory, kc.iterations,
                                         false);
                if (kc.kernel->reference) {
                    kc.native = kc.memory;
                    kc.kernel->reference(*kc.native, kc.nativeIterations);
                }
            }
            tally.check(checkSimulation(*sims[i], *kc.golden),
                        name(i) + " simulator vs interpreter");
            if (kc.native)
                tally.check(checkMemory(sims[i]->memory, *kc.native),
                            name(i) + " simulator vs native reference");
        }
    }

    /** Figure 13: static, ICED and DRIPS streams of one application. */
    void runStreams(const AppDef &app, std::vector<StreamStats> &out)
    {
        Partitioner part(*cgra);
        PartitionPlan icedPlan, convPlan;
        {
            Layers::Span s("streaming.plan");
            icedPlan = part.plan(app, kProfileInputs, true);
        }
        {
            Layers::Span s("streaming.plan");
            convPlan = part.plan(app, kProfileInputs, false);
        }
        const std::pair<const PartitionPlan *, StreamPolicy> runs[] = {
            {&convPlan, StreamPolicy::StaticNormal},
            {&icedPlan, StreamPolicy::IcedDvfs},
            {&convPlan, StreamPolicy::Drips},
        };
        for (const auto &[plan, policy] : runs) {
            Layers::Span s("streaming.simulate_stream");
            out.push_back(simulateStream(app, part, *plan, policy, model));
        }
    }

    RunConfig cfg;
    std::unique_ptr<Cgra> cgra;
    PowerModel model;
    std::vector<KernelCase> cases;
    std::vector<JobSpec> grid;
    AppDef gcn, lu;
};

} // namespace

MapperOptions
conventionalOptions()
{
    MapperOptions o;
    o.dvfsAware = false;
    return o;
}

std::unique_ptr<Workload>
makePaperTables(const RunConfig &config)
{
    return std::make_unique<PaperTables>(config);
}

} // namespace e2e
