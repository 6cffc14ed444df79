/**
 * @file
 * Regenerates paper Fig 9: the minimum per-layer fixed-point precision
 * of the trained MNIST baseline — each 16-bit weight word split into
 * sign / digit / fraction, with the digit field sized to the layer's
 * largest weight. Paper shape: layers 0-3 stay inside (-1, 1) and need
 * no digit bits; only the last layer needs a digit field.
 */

#include <cstdio>

#include "scenario.hh"
#include "nn/model_zoo.hh"
#include "nn/quantizer.hh"

using namespace uvolt;

UVOLT_SCENARIO(fig09_precision,
               "Fig 9: minimum per-layer weight precision (16-bit "
               "sign-magnitude fixed point)")
{
    const nn::ZooSpec spec = nn::paperMnistSpec();
    const nn::Network net = nn::trainOrLoad(spec);
    const nn::QuantizedModel model = nn::quantize(net);

    TextTable table({"layer", "weights", "max |w|", "sign bits",
                     "digit bits", "fraction bits", "format",
                     "zero-bit share"});
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        const auto &layer = model.layers[l];
        table.addRow({"Layer" + std::to_string(l),
                      std::to_string(layer.weights.size()),
                      fmtDouble(net.layer(static_cast<int>(l))
                                    .maxAbsWeight(), 3),
                      "1", std::to_string(layer.format.digitBits()),
                      std::to_string(layer.format.fracBits()),
                      layer.format.describe(),
                      fmtPercent(layer.zeroBitFraction())});
    }
    out.emit(table, "fig09_precision");

    std::printf("\nwhole model: %.1f%% of weight bits are \"0\" "
                "(paper: 76.3%%); quantization error delta on %zu "
                "held-out samples: %+.3f%%\n",
                model.zeroBitFraction() * 100.0, nn::paperEvalLimit,
                nn::quantizationErrorDelta(
                    net, nn::makeTestSet(spec, nn::paperEvalLimit),
                    nn::paperEvalLimit) * 100.0);
    std::printf("paper shape: only the last layer needs digit bits "
                "(4 on the paper's run)\n");
    return true;
}
