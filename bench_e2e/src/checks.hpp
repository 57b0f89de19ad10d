/**
 * @file
 * The benchmark's correctness checks. Each compares an output of the
 * code under test with a computation made apart from it (the DFG
 * interpreter, a kernel's native reference, Table I) or with a
 * property the method must have. Each returns an empty string when the
 * output passes and a description of the first difference otherwise.
 *
 * `selfTest` feeds every check a deliberately wrong answer and counts
 * a check that accepts it as a failure, so a check that can never fail
 * cannot hide a broken program.
 */
#ifndef ICED_BENCH_E2E_CHECKS_HPP
#define ICED_BENCH_E2E_CHECKS_HPP

#include <string>
#include <vector>

#include "dfg/interpreter.hpp"
#include "exec/mapping_cache.hpp"
#include "harness.hpp"
#include "mapper/mapping.hpp"
#include "service/wire.hpp"
#include "sim/simulator.hpp"
#include "streaming/stream_sim.hpp"

namespace e2e {

/** Every `checkMapping` violation of `m`, joined. */
std::string checkMappingViolations(const iced::Mapping &m);

/**
 * The strategy ladder's guarantee: the ICED II lies between the
 * lower bound `start_ii` and the conventional II.
 */
std::string checkIiLadder(int iced_ii, int conv_ii, int start_ii);

/** RecMII equals the Table I value. */
std::string checkRecMii(int computed, int published);

/** Simulated outputs and final memory equal the interpreter's. */
std::string checkSimulation(const iced::SimResult &sim,
                            const iced::InterpResult &golden);

/** Final memory equals the native reference's memory. */
std::string checkMemory(const std::vector<std::int64_t> &got,
                        const std::vector<std::int64_t> &expected);

/** The stream's windows cover inputs 0 .. inputs-1 without a gap. */
std::string checkStream(const iced::StreamStats &stats, int inputs);

/** The reply is `Mapped` and was served by tier `expected`. */
std::string checkReply(const iced::MapReplyMsg &reply,
                       iced::CacheSource expected);

/** `equalMappings(a, b)`. */
std::string checkSameMapping(const iced::Mapping &a,
                             const iced::Mapping &b);

/** Feed each check a wrong answer; each acceptance is a failure. */
void selfTest(Tally &tally);

} // namespace e2e

#endif // ICED_BENCH_E2E_CHECKS_HPP
