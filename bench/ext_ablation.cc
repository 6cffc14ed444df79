/**
 * @file
 * Extension bench (not a paper figure): fault-model shape ablations
 * called out in DESIGN.md. The chip's weak-cell population is re-drawn
 * under three shapes and the Section-III experiment (worst-vs-ICBP
 * placement of the Forest model on ZC702 at Vcrash) is repeated:
 *
 *  - full model  : spatial correlation + column clustering (default),
 *  - no columns  : per-BRAM counts identical, cells IID within a BRAM,
 *  - fully IID   : no spatial field either (only the heavy tail).
 *
 * Takeaways: (1) the FVM-driven placement gap (worst vs ICBP fault
 * counts) exists under every shape because it derives from the
 * per-BRAM heavy tail, which is preserved by construction; (2) at this
 * small-model scale the *error* columns sit inside sampling noise —
 * the accuracy consequence of column clustering only becomes visible
 * at MNIST scale (see the probe record in DESIGN.md / EXPERIMENTS.md).
 */

#include <cstdio>

#include "scenario.hh"
#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"

using namespace uvolt;

namespace
{

struct Shape
{
    const char *name;
    vmodel::VariationParams params;
};

} // namespace

UVOLT_SCENARIO(ext_ablation,
               "Extension: fault-model shape ablation (Forest on ZC702 at "
               "Vcrash)")
{
    const nn::ZooSpec zoo = nn::paperForestSpec();
    const nn::Network net = nn::trainOrLoad(zoo);
    const nn::QuantizedModel model = nn::quantize(net);
    const data::Dataset test_set = nn::makeTestSet(zoo, 4000);
    const accel::WeightImage image(model);
    const double inherent =
        model.toNetwork().evaluateError(test_set);

    Shape shapes[3];
    shapes[0] = {"full model", {}};
    shapes[1] = {"no column clustering", {}};
    shapes[1].params.weakColumnShare = 0.0;
    shapes[2] = {"fully IID", {}};
    shapes[2].params.weakColumnShare = 0.0;
    shapes[2].params.spatialWeight = 0.0;

    TextTable table({"fault-model shape", "faults(worst)", "err(worst)",
                     "faults(ICBP)", "err(ICBP)"});
    for (const Shape &shape : shapes) {
        pmbus::Board board(fpga::findPlatform("ZC702"), shape.params);
        harness::SweepOptions options;
        options.runsPerLevel = 5;
        const harness::SweepResult sweep =
            harness::runCriticalSweep(board, options);
        const harness::Fvm fvm =
            harness::fvmFromSweep(sweep, board.device().floorplan());

        board.setVccBramMv(board.spec().calib.bramVcrashMv);
        board.startReferenceRun();

        // Worst-case (most vulnerable BRAMs) vs all-layer ICBP.
        auto order = fvm.bramsByReliability();
        std::vector<std::uint32_t> worst(
            order.rbegin(), order.rbegin() + image.logicalBramCount());
        accel::Accelerator bad(board, image,
                               accel::Placement(std::move(worst)));
        const auto bad_faults = bad.weightFaults().total;
        const double bad_error = bad.classificationError(test_set);

        accel::IcbpOptions icbp_options;
        for (int l = static_cast<int>(model.layers.size()) - 1; l >= 0;
             --l)
            icbp_options.protectedLayers.push_back(l);
        accel::Accelerator icbp(
            board, image,
            accel::icbpPlacement(image, fvm, icbp_options));
        const auto icbp_faults = icbp.weightFaults().total;
        const double icbp_error = icbp.classificationError(test_set);

        table.addRow({shape.name, std::to_string(bad_faults),
                      fmtPercent(bad_error, 2),
                      std::to_string(icbp_faults),
                      fmtPercent(icbp_error, 2)});
        board.softReset();
    }
    std::printf("inherent error: %.2f%%\n\n", inherent * 100.0);
    out.emit(table, "ext_ablation");
    return true;
}
