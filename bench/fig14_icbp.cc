/**
 * @file
 * Regenerates paper Fig 14 (a-c): the efficiency of ICBP on the
 * FPGA-based NN accelerator for the MNIST, Forest, and Reuters
 * benchmarks on VC707 — classification error vs VCCBRAM for the default
 * placement vs the ICBP-constrained placement, plus the 38.1% BRAM
 * power saving earned by running at Vcrash instead of Vmin.
 *
 * The fig14_icbp_ablate scenario adds the protected-layer-set ablation
 * (last layer only, as in the paper, vs last two, vs all layers by
 * descending vulnerability) and the identity-placement baseline, and
 * writes its own fig14_ablate_<benchmark>.csv tables.
 */

#include <cstdio>
#include <string>

#include "scenario.hh"
#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "power/power_model.hh"
#include "pmbus/board.hh"

using namespace uvolt;

namespace
{

struct BenchCase
{
    const char *panel;
    nn::ZooSpec zoo;
    std::size_t evalLimit;
};

void
runCase(scenario::Output &out, const BenchCase &bench,
        pmbus::Board &board, const harness::Fvm &fvm, bool ablate)
{
    const nn::Network net = nn::trainOrLoad(bench.zoo);
    const nn::QuantizedModel model = nn::quantize(net);
    const data::Dataset test_set = nn::makeTestSet(bench.zoo);
    const accel::WeightImage image(model);
    const auto &spec = board.spec();

    const double inherent =
        model.toNetwork().evaluateError(test_set, bench.evalLimit);
    std::printf("\n(%s) %s: inherent error %.2f%%, %u weight BRAMs\n",
                bench.panel, bench.zoo.benchmark.c_str(),
                inherent * 100.0, image.logicalBramCount());

    struct Config
    {
        std::string name;
        accel::Placement placement;
    };
    std::vector<Config> configs;
    // "Default" = vulnerability-oblivious placement (see fig11 bench).
    configs.push_back({"default", accel::randomPlacement(
                                      image, fvm.bramCount(), 5)});
    configs.push_back({"ICBP", accel::icbpPlacement(image, fvm)});
    if (ablate) {
        configs.push_back({"identity", accel::defaultPlacement(image)});
        accel::IcbpOptions last_two;
        const int layers = static_cast<int>(image.layerSpans().size());
        last_two.protectedLayers = {layers - 1, layers - 2};
        configs.push_back({"ICBP-last2",
                           accel::icbpPlacement(image, fvm, last_two)});
        accel::IcbpOptions all_layers;
        for (int l = layers - 1; l >= 0; --l)
            all_layers.protectedLayers.push_back(l);
        configs.push_back({"ICBP-all",
                           accel::icbpPlacement(image, fvm, all_layers)});
    }

    std::vector<std::string> header{"VCCBRAM"};
    for (const auto &config : configs) {
        header.push_back("err(" + config.name + ")");
        header.push_back("faults(" + config.name + ")");
    }
    TextTable table(std::move(header));

    std::vector<double> vcrash_errors(configs.size(), 0.0);
    for (int mv = spec.calib.bramVminMv; mv >= spec.calib.bramVcrashMv;
         mv -= 10) {
        board.setVccBramMv(mv);
        board.startReferenceRun();
        std::vector<std::string> row{fmtVolts(mv / 1000.0)};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            accel::Accelerator accel(board, image, configs[c].placement);
            const auto faults = accel.weightFaults().total;
            const double error =
                accel.classificationError(test_set, bench.evalLimit);
            if (mv == spec.calib.bramVcrashMv)
                vcrash_errors[c] = error;
            row.push_back(fmtPercent(error, 2));
            row.push_back(std::to_string(faults));
        }
        table.addRow(std::move(row));
    }
    board.softReset();
    out.emit(table, (ablate ? "fig14_ablate_" : "fig14_") +
                        bench.zoo.benchmark);

    std::printf("at Vcrash: default %+.2f%% vs inherent, ICBP %+.2f%% "
                "(paper MNIST: +3.59%% vs +0.6%%)\n",
                (vcrash_errors[0] - inherent) * 100.0,
                (vcrash_errors[1] - inherent) * 100.0);
}

bool
runFig14(scenario::Output &out, bool ablate)
{
    // One characterization pass serves all benchmarks (the FVM is a
    // property of the chip, not of the application).
    const auto &spec = fpga::findPlatform("VC707");
    pmbus::Board board(spec);
    harness::SweepOptions sweep_options;
    sweep_options.runsPerLevel = 5;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, sweep_options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    const BenchCase cases[] = {
        {"a", nn::paperMnistSpec(), 4000},
        {"b", nn::paperForestSpec(), 4000},
        {"c", nn::paperReutersSpec(), 4000},
    };
    for (const auto &bench : cases)
        runCase(out, bench, board, fvm, ablate);

    const power::RailPowerModel rail(spec);
    std::printf("\nBRAM power saving at Vcrash over Vmin: %.1f%% "
                "(paper: 38.1%%)\n",
                rail.savingVs(spec.calib.bramVcrashMv / 1000.0,
                              spec.calib.bramVminMv / 1000.0) * 100.0);
    return true;
}

} // namespace

UVOLT_SCENARIO(fig14_icbp,
               "Fig 14: efficiency of ICBP for MNIST, Forest, and Reuters "
               "on VC707")
{
    return runFig14(out, false);
}

UVOLT_SCENARIO(fig14_icbp_ablate,
               "Fig 14 ablation: ICBP protected-layer sets and placement "
               "baselines on VC707")
{
    return runFig14(out, true);
}
