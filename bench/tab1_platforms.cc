/**
 * @file
 * Regenerates paper Table I: specifications of the tested FPGA
 * platforms, straight from the platform catalog plus the derived
 * capacity figures the experiments rely on.
 */

#include <cstdio>

#include "scenario.hh"
#include "fpga/platform.hh"

using namespace uvolt;

UVOLT_SCENARIO(tab1_platforms,
               "Table I: specifications of tested FPGA platforms")
{
    TextTable table({"parameter", "VC707", "ZC702", "KC705-A", "KC705-B"});

    const auto &catalog = fpga::platformCatalog();
    auto row = [&](const std::string &name, auto getter) {
        std::vector<std::string> cells{name};
        for (const auto &spec : catalog)
            cells.push_back(getter(spec));
        table.addRow(std::move(cells));
    };

    row("Device Family",
        [](const auto &s) { return s.family; });
    row("Chip Model",
        [](const auto &s) { return s.chipModel; });
    row("Speed Grade",
        [](const auto &s) { return s.speedGrade; });
    row("Serial Number (S/N)",
        [](const auto &s) { return s.serialNumber; });
    row("Number of BRAMs",
        [](const auto &s) { return std::to_string(s.bramCount); });
    row("Basic Size of Each BRAM",
        [](const auto &) { return std::string("1024*16-bits"); });
    row("Manufacturing Process",
        [](const auto &s) { return std::to_string(s.processNm) + "nm"; });
    row("Nominal VCCBRAM (Vnom)",
        [](const auto &s) { return fmtVolts(s.vnomMv / 1000.0); });
    row("Total BRAM capacity (Mbit)",
        [](const auto &s) { return fmtDouble(s.totalMbit(), 2); });

    out.emit(table, "tab1_platforms");
    std::printf("\n(two identical KC705 samples expose die-to-die process"
                " variation)\n");
    return true;
}
