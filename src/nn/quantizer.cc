#include "nn/quantizer.hh"

#include "util/logging.hh"

namespace uvolt::nn
{

double
QuantizedLayer::zeroBitFraction() const
{
    return fxp::zeroBitFraction(weights);
}

std::size_t
QuantizedModel::totalWeights() const
{
    std::size_t total = 0;
    for (const auto &layer : layers)
        total += layer.weights.size();
    return total;
}

double
QuantizedModel::zeroBitFraction() const
{
    std::uint64_t ones = 0;
    std::uint64_t bits = 0;
    for (const auto &layer : layers) {
        ones += fxp::popcount(std::span<const fxp::Word>(layer.weights));
        bits += static_cast<std::uint64_t>(layer.weights.size()) *
            fxp::wordBits;
    }
    return bits == 0 ? 0.0
                     : 1.0 - static_cast<double>(ones) /
            static_cast<double>(bits);
}

Network
QuantizedModel::toNetwork() const
{
    Network net(layerSizes);
    for (int l = 0; l < net.layerCount(); ++l) {
        const auto &quantized = layers[static_cast<std::size_t>(l)];
        auto &layer = net.layer(l);
        // QFormat::dequantize in float: a magnitude below 2^15 and an
        // LSB of 2^-frac (frac <= 15) are both exact floats, so their
        // product is the exact value dequantize() rounds to float, and
        // the sign flip keeps 0x8000 as -0.0f.
        const float lsb = static_cast<float>(quantized.format.resolution());
        auto weights = layer.weights();
        for (std::size_t i = 0; i < weights.size(); ++i) {
            const fxp::Word word = quantized.weights[i];
            const float magnitude =
                static_cast<float>(word & 0x7fffu) * lsb;
            weights[i] = fxp::getBit(word, fxp::signBit) ? -magnitude
                                                         : magnitude;
        }
        auto biases = layer.biases();
        for (std::size_t i = 0; i < biases.size(); ++i)
            biases[i] = quantized.biases[i];
    }
    return net;
}

QuantizedModel
quantize(const Network &net)
{
    QuantizedModel model;
    model.layerSizes = net.layerSizes();
    model.layers.reserve(static_cast<std::size_t>(net.layerCount()));

    for (int l = 0; l < net.layerCount(); ++l) {
        const auto &layer = net.layer(l);
        QuantizedLayer quantized;
        quantized.inputs = layer.inputs();
        quantized.outputs = layer.outputs();
        quantized.format =
            fxp::QFormat(fxp::minDigitBits(layer.maxAbsWeight()));
        quantized.weights.resize(layer.weights().size());
        for (std::size_t i = 0; i < quantized.weights.size(); ++i) {
            quantized.weights[i] =
                quantized.format.quantize(layer.weights()[i]);
        }
        quantized.biases.assign(layer.biases().begin(),
                                layer.biases().end());
        model.layers.push_back(std::move(quantized));
    }
    return model;
}

double
quantizationErrorDelta(const Network &net, const data::Dataset &test_set,
                       std::size_t limit)
{
    return quantizationErrorDelta(net, test_set,
                                  EvalOptions{.limit = limit});
}

double
quantizationErrorDelta(const Network &net, const data::Dataset &test_set,
                       const EvalOptions &options)
{
    const Network rebuilt = quantize(net).toNetwork();
    return rebuilt.evaluateError(test_set, options) -
        net.evaluateError(test_set, options);
}

} // namespace uvolt::nn
