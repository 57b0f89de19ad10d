#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/metrics.hpp"
#include "trace/trace.hpp"

namespace e2e {

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

void
Samples::append(const Samples &other)
{
    values.insert(values.end(), other.values.begin(), other.values.end());
}

double
Samples::quantile(double q) const
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

bool
Samples::tailSupported(double q) const
{
    // Below forty samples only the median is reported at all.
    if (values.size() < 40)
        return q == 0.5;
    return (1.0 - q) * static_cast<double>(values.size()) >= 10.0;
}

bool
Tally::record(const char *kind, bool ok, const std::string &what)
{
    Count &c = kinds[kind];
    ++c.attempted;
    if (!ok) {
        ++c.failed;
        if (messages.size() < 8)
            messages.push_back(what);
    }
    return ok;
}

Tally::Count
Tally::total() const
{
    Count sum;
    for (const auto &[kind, c] : kinds) {
        sum.attempted += c.attempted;
        sum.failed += c.failed;
    }
    return sum;
}

Layers &
Layers::global()
{
    static Layers layers;
    return layers;
}

Layers::Stat
Layers::stat(const std::string &name) const
{
    const auto it = stats.find(name);
    return it == stats.end() ? Stat{} : it->second;
}

Layers::Span::Span(const char *layer)
{
    Layers &l = global();
    if (!l.on_)
        return;
    live = true;
    name = layer;
    parent = l.open;
    l.open = this;
    if (iced::TraceSession *ts = iced::TraceSession::active())
        track = ts->begin("bench", name);
    start = Clock::now();
}

Layers::Span::~Span()
{
    if (!live)
        return;
    const double ms = msSince(start);
    Layers &l = global();
    Stat &s = l.stats[name];
    s.totalMs += ms;
    s.selfMs += ms - childMs;
    ++s.calls;
    if (parent)
        parent->childMs += ms;
    l.open = parent;
    if (track >= 0)
        if (iced::TraceSession *ts = iced::TraceSession::active())
            ts->end(track, "bench", name);
}

std::map<std::string, std::uint64_t>
readCounters()
{
    static const char *const names[] = {
        "mapper.attempts",        "mapper.attempts_mapped",
        "mapper.candidates",      "mapper.candidate_rollbacks",
        "router.searches",        "router.pruned_searches",
        "router.unbounded_reruns", "sim.exec_cycles",
        "cache.memory.hits",      "cache.memory.misses",
        "cache.persistent.hits",  "cache.persistent.writes",
    };
    std::map<std::string, std::uint64_t> out;
    for (const char *n : names)
        out[n] = iced::MetricsRegistry::global().counter(n).value();
    return out;
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace e2e
