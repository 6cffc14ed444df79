/**
 * @file
 * Extension bench: campaign resilience vs injected fault pressure.
 *
 * The paper notes that "repeating these tests in more noisy and harsh
 * environments can cause observable faults above observed Vmin" — and a
 * real undervolting campaign also has to survive flaky instrumentation:
 * corrupted readback frames, NACKed PMBus transactions, mis-latched
 * setpoints, and spurious configuration crashes near Vcrash. This bench
 * sweeps the injected fault probability from 0 to 10% and shows that
 * the retry/recovery machinery (a) always completes the Listing-1
 * campaign, (b) reproduces the quiet campaign's fault statistics bit
 * for bit, and (c) costs wall-clock in proportion to the noise, over
 * the p = 0 run with the injector attached.
 */

#include <chrono>
#include <cmath>
#include <cstdio>

#include "scenario.hh"
#include "harness/experiment.hh"
#include "pmbus/board.hh"

using namespace uvolt;

namespace
{

harness::SweepOptions
campaignOptions()
{
    harness::SweepOptions options;
    options.runsPerLevel = 21;
    return options;
}

double
timedSweep(pmbus::Board &board, harness::SweepResult &result)
{
    const auto start = std::chrono::steady_clock::now();
    result = harness::runCriticalSweep(board, campaignOptions());
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

bool
sameStatistics(const harness::SweepResult &a, const harness::SweepResult &b)
{
    if (a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        if (a.points[i].vccBramMv != b.points[i].vccBramMv ||
            a.points[i].runCounts != b.points[i].runCounts ||
            a.points[i].perBramFaults != b.points[i].perBramFaults)
            return false;
    }
    return true;
}

} // namespace

UVOLT_SCENARIO(ext_resilience,
               "Extension: harsh-environment resilience of the Listing-1 "
               "campaign (ZC702)")
{
    std::printf("noise probability p applies to frame corruption, PMBus "
                "NACKs, setpoint jitter,\nand spurious crashes in the "
                "30 mV band above Vcrash; per-level statistics must\n"
                "match the quiet campaign bit for bit\n\n");

    // Warm-up passes (throwaway boards, quiet and injector-attached) so
    // no timing below is polluted by first-touch costs. Every measured
    // sweep runs on a fresh board so all campaigns draw the same
    // run-jitter stream.
    harness::SweepResult reference;
    for (const bool attach : {false, true}) {
        pmbus::Board warmup_board(fpga::findPlatform("ZC702"));
        if (attach)
            warmup_board.attachNoise(pmbus::NoiseConfig::harsh(2026, 0.0));
        timedSweep(warmup_board, reference);
    }
    pmbus::Board quiet_board(fpga::findPlatform("ZC702"));
    const double quiet_ms = timedSweep(quiet_board, reference);

    TextTable table({"noise p", "completed", "bit-identical", "crashes "
                     "recovered", "runs retried", "link retransmits",
                     "pmbus retries", "wall-clock (ms)", "overhead"});

    // The overhead is relative to the p = 0 row: it reads its maps
    // over the same serial link as every other row.
    double attached_ms = 0.0;
    bool held = true;
    for (double p : {0.0, 0.01, 0.02, 0.05, 0.10}) {
        pmbus::Board board(fpga::findPlatform("ZC702"));
        board.attachNoise(pmbus::NoiseConfig::harsh(2026, p));

        harness::SweepResult noisy;
        const double noisy_ms = timedSweep(board, noisy);
        if (p == 0.0)
            attached_ms = noisy_ms;
        const bool completed = !noisy.points.empty();
        const bool identical = sameStatistics(reference, noisy);
        held = held && completed && identical;

        table.addRow({fmtPercent(p), completed ? "yes" : "NO",
                      identical ? "yes" : "NO",
                      std::to_string(noisy.resilience.crashRecoveries),
                      std::to_string(noisy.resilience.runsRetried),
                      std::to_string(noisy.resilience.linkRetransmits),
                      std::to_string(noisy.resilience.pmbusRetries),
                      fmtDouble(noisy_ms, 1),
                      fmtPercent(noisy_ms / attached_ms - 1.0)});
    }
    out.emit(table, "ext_resilience");

    std::printf("\nquiet board, no injector: %.1f ms. It tallies each "
                "level's per-BRAM map from\nthe fault order, while every "
                "board with an injector attached (p = 0 included)\nreads "
                "each BRAM over the serial link; hence the overhead "
                "column is relative\nto the p = 0 row\n",
                quiet_ms);
    std::printf("\nshape: every noise level completes with the quiet "
                "campaign's statistics;\nretries, retransmits and crash "
                "recoveries grow with p, and the overhead column\nis "
                "the wall-clock they cost over the p = 0 run\n");
    return held;
}
