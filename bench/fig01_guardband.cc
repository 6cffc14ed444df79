/**
 * @file
 * Regenerates paper Fig 1: the SAFE / CRITICAL / CRASH voltage regions
 * of VCCBRAM (a) and VCCINT (b) for all four platforms, discovered by
 * stepping each rail down from nominal in 10 mV steps, plus the average
 * guardband the paper headlines (39% for VCCBRAM, 34% for VCCINT).
 */

#include <cstdio>

#include "scenario.hh"
#include "harness/experiment.hh"
#include "pmbus/board.hh"

using namespace uvolt;

UVOLT_SCENARIO(fig01_guardband,
               "Fig 1: undervolting FPGA components, voltage regions")
{
    for (auto rail : {fpga::RailId::VccBram, fpga::RailId::VccInt}) {
        std::printf("\n(%s) %s\n",
                    rail == fpga::RailId::VccBram ? "a" : "b",
                    railName(rail));
        TextTable table({"platform", "Vnom", "Vmin (SAFE >=)",
                         "Vcrash (CRITICAL >=)", "guardband"});
        double guardband_sum = 0.0;
        for (const auto &spec : fpga::platformCatalog()) {
            pmbus::Board board(spec);
            const harness::RegionResult regions =
                harness::discoverRegions(board, rail);
            guardband_sum += regions.guardband();
            table.addRow({spec.name, fmtVolts(regions.vnomMv / 1000.0),
                          fmtVolts(regions.vminMv / 1000.0),
                          fmtVolts(regions.vcrashMv / 1000.0),
                          fmtPercent(regions.guardband())});
        }
        out.emit(table, std::string("fig01_") + railName(rail));
        std::printf("average %s guardband: %.1f%% of nominal "
                    "(paper: %s)\n",
                    railName(rail),
                    guardband_sum / 4.0 * 100.0,
                    rail == fpga::RailId::VccBram ? "39%" : "34%");
    }
    return true;
}
