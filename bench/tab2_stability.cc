/**
 * @file
 * Regenerates paper Table II: fault-rate stability over 100 consecutive
 * runs at Vcrash with pattern 16'hFFFF — average, minimum, maximum, and
 * standard deviation per Mbit for every platform. The paper's point:
 * run-to-run variation is negligible, so undervolting faults behave
 * deterministically over time.
 */

#include <cstdio>

#include "scenario.hh"
#include "harness/experiment.hh"
#include "pmbus/board.hh"

using namespace uvolt;

UVOLT_SCENARIO(tab2_stability,
               "Table II: fault stability over 100 consecutive runs at Vcrash "
               "(16'hFFFF)")
{
    TextTable table({"parameter", "VC707", "ZC702", "KC705-A", "KC705-B"});
    std::vector<std::string> avg{"AVERAGE fault rate*"};
    std::vector<std::string> minimum{"MINIMUM fault rate*"};
    std::vector<std::string> maximum{"MAXIMUM fault rate*"};
    std::vector<std::string> stddev{"STD. DEV of fault rates"};

    for (const auto &spec : fpga::platformCatalog()) {
        pmbus::Board board(spec);
        harness::SweepOptions options;
        options.runsPerLevel = 100;
        options.collectPerBram = false;
        options.fromMv = spec.calib.bramVcrashMv; // Vcrash only
        const harness::SweepResult sweep =
            harness::runCriticalSweep(board, options);
        const auto &point = sweep.atVcrash();

        const double to_mbit = fpga::bitsPerMbit /
            static_cast<double>(board.device().totalBits());
        avg.push_back(fmtDouble(point.runStats.mean() * to_mbit, 0));
        minimum.push_back(
            fmtDouble(point.runStats.minimum() * to_mbit, 0));
        maximum.push_back(
            fmtDouble(point.runStats.maximum() * to_mbit, 0));
        stddev.push_back(fmtDouble(point.runStats.stddev() * to_mbit, 1));
    }
    table.addRow(std::move(avg));
    table.addRow(std::move(minimum));
    table.addRow(std::move(maximum));
    table.addRow(std::move(stddev));
    out.emit(table, "tab2_stability");
    std::printf("* per 1 Mbit. paper row: avg 652/153/254/60, "
                "min 630/140/237/51, max 669/162/264/69, "
                "stddev 7.3/5.9/4.8/1.8\n");
    return true;
}
