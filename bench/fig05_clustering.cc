/**
 * @file
 * Regenerates paper Fig 5: k-means clustering of VC707's per-BRAM fault
 * rates at Vcrash = 0.54 V into low-, mid-, and high-vulnerable classes.
 * Paper anchors: 88.6% of BRAMs are low-vulnerable with an average rate
 * of 0.02% (~3.4 faults per 16 kbit BRAM); 38.9% of BRAMs never fault;
 * the worst BRAM reaches 2.84%.
 */

#include <cstdio>

#include "scenario.hh"
#include "harness/clusterer.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "pmbus/board.hh"

using namespace uvolt;

UVOLT_SCENARIO(fig05_clustering,
               "Fig 5: clustering BRAMs into vulnerability classes (VC707 at "
               "Vcrash = 0.54V)")
{
    pmbus::Board board(fpga::findPlatform("VC707"));
    harness::SweepOptions options;
    options.runsPerLevel = 15;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    std::printf("per-BRAM fault rate: max %.2f%%, min 0%%, mean %.3f%%; "
                "%.1f%% of BRAMs never fault\n"
                "(paper: max 2.84%%, min 0%%, avg ~0.04%%, 38.9%% never "
                "fault)\n\n",
                fvm.maxRate() * 100.0, fvm.meanRate() * 100.0,
                fvm.faultFreeFraction() * 100.0);

    const harness::ClusterReport report = harness::clusterBrams(fvm);
    TextTable table({"class", "BRAMs", "share", "avg fault rate",
                     "avg faults/BRAM"});
    for (auto cls : {harness::VulnClass::Low, harness::VulnClass::Mid,
                     harness::VulnClass::High}) {
        const auto index = static_cast<std::size_t>(cls);
        table.addRow({harness::vulnClassName(cls),
                      std::to_string(report.sizes[index]),
                      fmtPercent(report.shareOf(cls)),
                      fmtPercent(report.meanRates[index], 3),
                      fmtDouble(report.meanCounts[index], 1)});
    }
    out.emit(table, "fig05_clustering");
    std::printf("\npaper: 88.6%% low-vulnerable, avg rate 0.02%% "
                "(~3.4 faults per BRAM)\n");
    return true;
}
