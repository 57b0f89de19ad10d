#include "checks.hpp"

#include <sstream>

#include "common/rng.hpp"
#include "kernels/registry.hpp"
#include "mapper/mapper.hpp"
#include "mapper/validate.hpp"

namespace e2e {

using namespace iced;

namespace {

template <typename... Parts>
std::string
describe(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

/**
 * First index where two word vectors differ. `got` may be longer when
 * `zero_tail` is set and its extra words are zero: the simulator's
 * scratchpad image spans the whole SPM, the workload's only its data.
 */
std::string
firstDifference(const char *what, const std::vector<std::int64_t> &got,
                const std::vector<std::int64_t> &expected,
                bool zero_tail = false)
{
    if (got.size() < expected.size() ||
        (!zero_tail && got.size() != expected.size()))
        return describe(what, " size ", got.size(), " != ",
                        expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::int64_t want = i < expected.size() ? expected[i] : 0;
        if (got[i] != want)
            return describe(what, "[", i, "] ", got[i], " != ", want);
    }
    return {};
}

} // namespace

std::string
checkMappingViolations(const Mapping &m)
{
    std::string out;
    for (const std::string &violation : checkMapping(m))
        out += (out.empty() ? "" : "; ") + violation;
    return out;
}

std::string
checkIiLadder(int iced_ii, int conv_ii, int start_ii)
{
    if (iced_ii < start_ii)
        return describe("ICED II ", iced_ii, " below the lower bound ",
                        start_ii);
    if (iced_ii > conv_ii)
        return describe("ICED II ", iced_ii,
                        " above the conventional II ", conv_ii);
    return {};
}

std::string
checkRecMii(int computed, int published)
{
    if (computed != published)
        return describe("RecMII ", computed, " != Table I ", published);
    return {};
}

std::string
checkSimulation(const SimResult &sim, const InterpResult &golden)
{
    std::string diff =
        firstDifference("output", sim.outputs, golden.outputs);
    if (diff.empty())
        diff = firstDifference("memory", sim.memory, golden.memory, true);
    return diff;
}

std::string
checkMemory(const std::vector<std::int64_t> &got,
            const std::vector<std::int64_t> &expected)
{
    return firstDifference("memory", got, expected, true);
}

std::string
checkStream(const StreamStats &stats, int inputs)
{
    int next = 0;
    for (const WindowRecord &w : stats.windows) {
        if (w.firstInput != next || w.lastInput < w.firstInput)
            return describe("window [", w.firstInput, ", ", w.lastInput,
                            "] does not follow input ", next - 1);
        next = w.lastInput + 1;
    }
    if (next != inputs)
        return describe("stream processed ", next, " of ", inputs,
                        " inputs");
    return {};
}

std::string
checkReply(const MapReplyMsg &reply, CacheSource expected)
{
    if (reply.status != ReplyStatus::Mapped)
        return describe("reply ", toString(reply.status), " ",
                        reply.error);
    if (reply.source != expected)
        return describe("served by tier ", toString(reply.source),
                        ", expected ", toString(expected));
    return {};
}

std::string
checkSameMapping(const Mapping &a, const Mapping &b)
{
    return equalMappings(a, b) ? std::string{}
                               : std::string("mappings differ");
}

void
selfTest(Tally &tally)
{
    const auto rejects = [&](const std::string &verdict,
                             const char *what) {
        tally.record("checks", !verdict.empty(),
                     describe("self-test: check accepted ", what));
    };
    const auto accepts = [&](const std::string &verdict,
                             const char *what) {
        tally.check(verdict, describe("self-test: check rejected ", what));
    };

    const Kernel &kernel = *singleKernels().front();
    const Cgra cgra(CgraConfig{});
    const Dfg dfg = kernel.build(1);
    const Mapping mapping = Mapper(cgra).map(dfg);
    Rng rng(1);
    const Workload w = kernel.workload(rng);

    const SimResult sim =
        simulate(mapping, w.memory, SimOptions{w.iterations});
    const InterpResult golden =
        interpretDfg(dfg, w.memory, w.iterations, false);
    accepts(checkSimulation(sim, golden), "a correct simulation");
    SimResult perturbed = sim;
    perturbed.memory.at(golden.memory.size() / 2) += 1;
    rejects(checkSimulation(perturbed, golden),
            "a perturbed memory image");
    std::vector<std::int64_t> reference = w.memory;
    kernel.reference(reference, w.iterations);
    accepts(checkMemory(sim.memory, reference), "the native reference");
    reference.back() ^= 1;
    rejects(checkMemory(sim.memory, reference),
            "a wrong native reference image");

    Mapping altered = mapping;
    const DvfsLevel level = altered.islandLevel(0);
    accepts(checkSameMapping(mapping, altered), "a copied mapping");
    altered.setIslandLevel(0, level == DvfsLevel::Normal
                                  ? DvfsLevel::Relax
                                  : DvfsLevel::Normal);
    rejects(checkSameMapping(mapping, altered), "an altered mapping");
    rejects(checkIiLadder(mapping.ii() + 1, mapping.ii(), 1),
            "an ICED II above the conventional II");
    rejects(checkRecMii(kernel.paperUf1.recMii + 1,
                        kernel.paperUf1.recMii),
            "a wrong RecMII");

    MapReplyMsg reply;
    reply.status = ReplyStatus::Mapped;
    reply.source = CacheSource::Memory;
    rejects(checkReply(reply, CacheSource::Persistent), "a wrong tier");

    StreamStats stream;
    stream.windows.resize(2);
    stream.windows[0].firstInput = 0;
    stream.windows[0].lastInput = 9;
    stream.windows[1].firstInput = 10;
    stream.windows[1].lastInput = 18;
    rejects(checkStream(stream, 20), "a stream that dropped an input");
}

} // namespace e2e
