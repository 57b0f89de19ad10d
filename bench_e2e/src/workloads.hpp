/**
 * @file
 * The benchmark's three workloads. Each builds its inputs and the
 * system under test in `setUp` (timed as set-up), then runs whole
 * passes of the same operations, timing only the work a user waits
 * for and checking every output after the timed part of the pass.
 */
#ifndef ICED_BENCH_E2E_WORKLOADS_HPP
#define ICED_BENCH_E2E_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "mapper/mapper.hpp"

namespace e2e {

/** Settings shared by every workload of one run. */
struct RunConfig
{
    std::uint64_t seed = 1;
    /** Runner and server worker threads. */
    int threads = 1;
    /** Directory for the run's files (the service's store). */
    std::string outDir;
};

/** What one pass measured. */
struct PassRecord
{
    /** Sum of the timed phases of the pass. */
    double wallMs = 0.0;
    /** Cells computed cold, and the time of the phase computing them. */
    int coldCells = 0;
    double coldMs = 0.0;
    /** Latency of one cold mapping as its caller sees it. */
    Samples mapMs;
    /** Workload-specific latency sets (service tiers). */
    std::map<std::string, Samples> latency;
    /** Workload-specific per-pass values (throughputs, modelled). */
    std::map<std::string, double> values;
    /** Modelled results of the pass's ICED mappings. */
    double iiSum = 0.0;
    double powerSum = 0.0;
    int icedMappings = 0;
};

/** One workload: set-up plus repeatable passes. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs and the system under test from scratch. */
    virtual void setUp() = 0;
    /** Release what `setUp` built; not timed. */
    virtual void tearDown() {}
    /** Run one whole pass, timing into `rec`, counting into `tally`. */
    virtual void runPass(PassRecord &rec, Tally &tally) = 0;
    /**
     * Checks of the last pass that call into the library themselves;
     * run after `runPass`, outside the pass's counter deltas.
     */
    virtual void checkPass(PassRecord &, Tally &) {}
    /** Cold-map latency samples one pass produces. */
    virtual int samplesPerPass() const = 0;
};

/** The paper's conventional (DVFS-unaware) mapper configuration. */
iced::MapperOptions conventionalOptions();

std::unique_ptr<Workload> makePaperTables(const RunConfig &config);
std::unique_ptr<Workload> makeFabricScale(const RunConfig &config);
std::unique_ptr<Workload> makeDseService(const RunConfig &config);

/** Fisher-Yates shuffle of `items` driven by the workload seed. */
template <typename T>
void
seededShuffle(std::vector<T> &items, std::uint64_t seed)
{
    iced::Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i - 1)));
        std::swap(items[i - 1], items[j]);
    }
}

/** Adds the time from construction to destruction to `*acc` (ms). */
class Timed
{
  public:
    explicit Timed(double &acc) : sink(acc), start(Clock::now()) {}
    ~Timed() { sink += msSince(start); }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    double &sink;
    Clock::time_point start;
};

} // namespace e2e

#endif // ICED_BENCH_E2E_WORKLOADS_HPP
