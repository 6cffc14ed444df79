/**
 * @file
 * Regenerates paper Fig 10: the on-chip power breakdown of the
 * FPGA-based NN on VC707 at Vnom = 1 V, Vmin = 0.61 V and Vcrash =
 * 0.54 V — BRAM vs "rest" (DSPs, LUTs, routing), with the paper's
 * headline 24.1% total on-chip reduction at Vmin.
 */

#include <cstdio>

#include "scenario.hh"
#include "power/power_model.hh"

using namespace uvolt;

UVOLT_SCENARIO(fig10_power_breakdown,
               "Fig 10: on-chip power breakdown of the NN design (VC707)")
{
    const auto &spec = fpga::findPlatform("VC707");
    const auto design = power::OnChipBreakdown::nnDesign(spec);

    TextTable table({"VCCBRAM", "BRAM (W)", "rest (W)", "total (W)",
                     "BRAM share", "total saving vs Vnom"});
    for (int mv : {spec.vnomMv, spec.calib.bramVminMv,
                   spec.calib.bramVcrashMv}) {
        const auto breakdown = design.at(mv / 1000.0);
        table.addRow({fmtVolts(mv / 1000.0),
                      fmtDouble(breakdown.bramW, 3),
                      fmtDouble(breakdown.restW, 3),
                      fmtDouble(breakdown.totalW, 3),
                      fmtPercent(breakdown.bramShare()),
                      fmtPercent(design.totalSaving(mv / 1000.0))});
    }
    out.emit(table, "fig10_power_breakdown");

    const power::RailPowerModel rail(spec);
    std::printf("\nBRAM rail: %.1fx reduction at Vmin (paper: more than "
                "an order of magnitude); a further %.1f%% at Vcrash "
                "(paper: ~40%%, 38.1%% in Fig 14)\n",
                1.0 / rail.relativePower(spec.calib.bramVminMv / 1000.0),
                rail.savingVs(spec.calib.bramVcrashMv / 1000.0,
                              spec.calib.bramVminMv / 1000.0) * 100.0);
    std::printf("total on-chip saving at Vmin: %.1f%% (paper: 24.1%%)\n",
                design.totalSaving(spec.calib.bramVminMv / 1000.0) *
                    100.0);
    return true;
}
