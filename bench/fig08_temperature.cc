/**
 * @file
 * Regenerates paper Fig 8 (a-d): fault rate vs VCCBRAM at on-board
 * temperatures of 50, 60, 70, and 80 degC for VC707 and KC705-A —
 * Inverse Thermal Dependence. Paper anchors: >3x fault-rate reduction
 * on VC707 from 50 to 80 degC; VC707 is 156% worse than KC705-A at
 * 50 degC but 11.6% better at 80 degC.
 */

#include <cstdio>

#include "scenario.hh"
#include "harness/temperature.hh"
#include "pmbus/board.hh"

using namespace uvolt;

UVOLT_SCENARIO(fig08_temperature,
               "Fig 8: fault rate vs voltage vs on-board temperature (faults "
               "per Mbit)")
{
    const std::vector<double> temps{50.0, 60.0, 70.0, 80.0};

    harness::TemperatureStudy studies[2];
    const char *names[2] = {"VC707", "KC705-A"};
    for (int p = 0; p < 2; ++p) {
        pmbus::Board board(fpga::findPlatform(names[p]));
        studies[p] = harness::runTemperatureStudy(board, temps, 31);

        std::printf("\n%s\n", names[p]);
        std::vector<std::string> header{"VCCBRAM"};
        for (double t : temps)
            header.push_back(fmtDouble(t, 0) + "degC");
        TextTable table(std::move(header));
        const auto &points = studies[p].series.front().sweep.points;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::vector<std::string> row{
                fmtVolts(points[i].vccBramMv / 1000.0)};
            for (const auto &series : studies[p].series)
                row.push_back(
                    fmtDouble(series.sweep.points[i].faultsPerMbit, 1));
            table.addRow(std::move(row));
        }
        out.emit(table, std::string("fig08_") + names[p]);
        std::printf("fault-rate reduction 50 -> 80 degC at Vcrash: "
                    "%.2fx (paper: >3x on VC707)\n",
                    studies[p].reductionFactor(80.0, 50.0));
    }

    const auto rate = [&](int p, int t) {
        return studies[p].series[static_cast<std::size_t>(t)]
            .sweep.atVcrash().faultsPerMbit;
    };
    std::printf("\nVC707 vs KC705-A at Vcrash: %+.0f%% at 50 degC, "
                "%+.1f%% at 80 degC (paper: +156%% -> -11.6%%)\n",
                (rate(0, 0) / rate(1, 0) - 1.0) * 100.0,
                (rate(0, 3) / rate(1, 3) - 1.0) * 100.0);
    return true;
}
