/**
 * @file
 * The scenario registry behind the `uvolt` driver (bench/uvolt.cc).
 *
 * Every paper figure, table and extension study is one scenario: a
 * function that prints its findings, hands each table to
 * Output::emit() and returns whether its own checks held. The
 * UVOLT_SCENARIO macro defines it and registers it under its name and
 * title, which appear nowhere else (bench/tab1_platforms.cc is the
 * smallest example).
 */

#ifndef UVOLT_BENCH_SCENARIO_HH
#define UVOLT_BENCH_SCENARIO_HH

#include <cstddef>
#include <set>
#include <string>

#include "util/table.hh"

namespace uvolt::scenario
{

/** Where the tables of one `uvolt` run go. */
class Output
{
  public:
    /**
     * Print @p table and write it to results/<stem>.csv under the
     * working directory. A failed write, or a stem already emitted in
     * this run (not written again), counts as a failure.
     */
    void emit(const TextTable &table, const std::string &stem);

    std::size_t failures() const { return failures_; }

  private:
    std::set<std::string> stems_;
    std::size_t failures_ = 0;
};

/** A scenario body: true when its own checks held. */
using Fn = bool (*)(Output &out);

/** Register @p fn under @p name; the UVOLT_SCENARIO macro calls this. */
bool add(const char *name, const char *title, Fn fn);

} // namespace uvolt::scenario

/** Define and register a scenario; the body sees `Output &out`. */
#define UVOLT_SCENARIO(name, title)                                     \
    static bool name(::uvolt::scenario::Output &out);                   \
    static const bool uvoltScenarioRegistered_##name =                  \
        ::uvolt::scenario::add(#name, title, name);                     \
    static bool name([[maybe_unused]] ::uvolt::scenario::Output &out)

#endif // UVOLT_BENCH_SCENARIO_HH
