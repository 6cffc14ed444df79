/**
 * @file
 * Extension bench (not a paper figure): ICBP vs the classic mitigation
 * alternatives the paper's related-work section rules out on cost
 * grounds (Section IV-A.4) — temporal re-read voting, spatial TMR, and
 * SECDED ECC — measured on the Forest model deployed adversarially on
 * ZC702 at Vcrash. Reported per strategy: residual weight-bit faults,
 * fault coverage, classification error, and BRAM storage overhead.
 *
 * Headline: temporal redundancy corrects ~nothing because undervolting
 * faults are deterministic (Table II), spatial techniques work but pay
 * 50-200% BRAM overhead, and ICBP gets comparable protection for free.
 */

#include <cstdio>

#include "scenario.hh"
#include "accel/accelerator.hh"
#include "accel/mitigation.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"

using namespace uvolt;

UVOLT_SCENARIO(ext_mitigation,
               "Extension: ICBP vs temporal voting vs TMR vs SECDED (Forest "
               "on ZC702 at Vcrash)")
{
    const nn::ZooSpec zoo = nn::paperForestSpec();
    const nn::Network net = nn::trainOrLoad(zoo);
    const nn::QuantizedModel model = nn::quantize(net);
    const data::Dataset test_set = nn::makeTestSet(zoo, 4000);
    const accel::WeightImage image(model);

    pmbus::Board board(fpga::findPlatform("ZC702"));
    harness::SweepOptions sweep_options;
    sweep_options.runsPerLevel = 5;
    const harness::SweepResult sweep =
        harness::runCriticalSweep(board, sweep_options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    const double inherent =
        model.toNetwork().evaluateError(test_set);
    std::printf("inherent error: %.2f%%; image: %u BRAMs of %u\n\n",
                inherent * 100.0, image.logicalBramCount(),
                board.device().bramCount());

    // Adversarial data placement (worst BRAMs) exposes every strategy
    // to a meaningful fault dose; protect all layers.
    auto order = fvm.bramsByReliability();
    std::vector<std::uint32_t> worst(
        order.rbegin(), order.rbegin() + image.logicalBramCount());
    std::vector<int> all_layers;
    for (std::size_t l = 0; l < model.layers.size(); ++l)
        all_layers.push_back(static_cast<int>(l));
    accel::MitigationLab lab(board, image,
                             accel::Placement(std::move(worst)),
                             all_layers);

    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();

    TextTable table({"strategy", "raw faults", "residual", "coverage",
                     "extra BRAMs", "error"});
    auto add = [&](const char *name, const nn::QuantizedModel &observed,
                   const accel::MitigationReport &report) {
        table.addRow({name, std::to_string(report.rawFaults),
                      std::to_string(report.residualFaults),
                      fmtPercent(report.coverage()),
                      std::to_string(report.extraBrams),
                      fmtPercent(observed.toNetwork().evaluateError(
                                     test_set), 2)});
    };

    accel::MitigationReport report;
    add("none (worst-case)", lab.readRaw(report), report);
    board.startReferenceRun();
    add("temporal vote x3", lab.readTemporalVote(3, report), report);
    board.startReferenceRun();
    add("spatial TMR", lab.readSpatialTmr(report), report);
    add("SECDED", lab.readSecded(report), report);

    // ICBP for reference: protected placement, zero storage overhead.
    accel::IcbpOptions icbp_options;
    for (int l = static_cast<int>(model.layers.size()) - 1; l >= 0; --l)
        icbp_options.protectedLayers.push_back(l);
    accel::Accelerator icbp(
        board, image, accel::icbpPlacement(image, fvm, icbp_options));
    const auto icbp_faults = icbp.weightFaults();
    accel::MitigationReport icbp_report;
    icbp_report.rawFaults = icbp_faults.total;
    icbp_report.residualFaults = icbp_faults.total;
    add("ICBP (all layers)", icbp.observedModel(), icbp_report);

    board.softReset();
    out.emit(table, "ext_mitigation");

    std::printf("\ntakeaway: deterministic faults defeat temporal "
                "redundancy; TMR/SECDED work but cost %u / %u extra "
                "BRAMs, ICBP costs none\n",
                lab.tmrOverheadBrams(), lab.secdedOverheadBrams());
    return true;
}
