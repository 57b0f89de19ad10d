/**
 * @file
 * Measurement plumbing of the end-to-end benchmark: sample sets and
 * their percentiles, the tally of attempted and failed operations,
 * and the per-layer spans recorded from the benchmark's own code
 * around each call into a library layer.
 */
#ifndef ICED_BENCH_E2E_HARNESS_HPP
#define ICED_BENCH_E2E_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `start`. */
double msSince(Clock::time_point start);

/** A set of measured values (latencies, pass times, set-up times). */
class Samples
{
  public:
    void add(double v) { values.push_back(v); }
    void append(const Samples &other);
    std::size_t size() const { return values.size(); }
    bool empty() const { return values.empty(); }
    /** Linear-interpolated quantile, q in [0, 1]. @pre !empty() */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    /**
     * True when the q-quantile has at least ten samples beyond it, so
     * it describes a tail and not one or two outliers.
     */
    bool tailSupported(double q) const;

  private:
    std::vector<double> values;
};

/**
 * Operations attempted and failed over one run, by kind ("cells",
 * "requests", "simulations", "streams", "checks"). Every operation
 * counts once; a failure keeps the first few messages so a failed run
 * explains itself on stderr.
 */
class Tally
{
  public:
    struct Count
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };

    /** Count one operation of `kind`; returns `ok`. */
    bool record(const char *kind, bool ok, const std::string &what);
    /** Count one check: passed when `verdict` is empty. */
    bool check(const std::string &verdict, const std::string &what)
    {
        return record("checks", verdict.empty(), what + ": " + verdict);
    }

    Count total() const;
    const std::map<std::string, Count> &byKind() const { return kinds; }
    const std::vector<std::string> &failures() const { return messages; }

  private:
    std::map<std::string, Count> kinds;
    std::vector<std::string> messages; ///< first few failures
};

/**
 * Per-layer time recorded from the benchmark's own code. A `Span`
 * opened around a library call records its duration and its self
 * time (duration minus the spans nested inside it) under the layer
 * name, and mirrors itself into the active `TraceSession` so the
 * Perfetto trace shows the same layers. Spans are recorded only while
 * `Layers::enabled()`; otherwise a Span costs one branch.
 */
class Layers
{
  public:
    struct Stat
    {
        double selfMs = 0.0;
        double totalMs = 0.0;
        std::uint64_t calls = 0;
    };

    static Layers &global();

    void setEnabled(bool on) { on_ = on; }
    bool enabled() const { return on_; }
    const std::map<std::string, Stat> &table() const { return stats; }
    /** The layer's record, zero when it never ran. */
    Stat stat(const std::string &name) const;

    class Span
    {
      public:
        explicit Span(const char *layer);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        const char *name = nullptr;
        Span *parent = nullptr;
        Clock::time_point start;
        double childMs = 0.0;
        int track = -1;
        bool live = false;
    };

  private:
    bool on_ = false;
    Span *open = nullptr; ///< innermost open span (main thread only)
    std::map<std::string, Stat> stats;
};

/** Current values of the `MetricsRegistry::global()` counters read. */
std::map<std::string, std::uint64_t> readCounters();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Escape `s` for a JSON string literal (without the quotes). */
std::string jsonEscape(const std::string &s);

} // namespace e2e

#endif // ICED_BENCH_E2E_HARNESS_HPP
