/**
 * @file
 * Tests for the NN module: activations, forward pass, training on small
 * learnable problems, quantization (Fig 9 semantics), and the model zoo
 * save/load round trip.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>

#include "data/synthetic.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/quantizer.hh"
#include "nn/trainer.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace uvolt::nn
{
namespace
{

TEST(Activations, Logsig)
{
    EXPECT_FLOAT_EQ(logsig(0.0f), 0.5f);
    EXPECT_GT(logsig(10.0f), 0.9999f);
    EXPECT_LT(logsig(-10.0f), 0.0001f);
    EXPECT_NEAR(logsig(1.0f), 0.7310586f, 1e-6f);
}

TEST(Activations, SoftmaxNormalizesAndOrders)
{
    std::vector<float> logits{1.0f, 3.0f, 2.0f};
    softmaxInPlace(logits);
    float sum = 0.0f;
    for (float p : logits)
        sum += p;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(logits[1], logits[2]);
    EXPECT_GT(logits[2], logits[0]);
}

TEST(Activations, SoftmaxStableForLargeLogits)
{
    std::vector<float> logits{1000.0f, 1001.0f};
    softmaxInPlace(logits);
    EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6f);
    EXPECT_FALSE(std::isnan(logits[0]));
}

TEST(DenseLayerTest, ForwardMatrixVector)
{
    DenseLayer layer(2, 2);
    layer.setWeight(0, 0, 1.0f);
    layer.setWeight(0, 1, 2.0f);
    layer.setWeight(1, 0, -1.0f);
    layer.setWeight(1, 1, 0.5f);
    layer.setBias(0, 0.25f);
    layer.setBias(1, -0.25f);

    const float x[2] = {3.0f, 4.0f};
    float z[2];
    layer.forward(x, z);
    EXPECT_FLOAT_EQ(z[0], 1.0f * 3 + 2.0f * 4 + 0.25f);
    EXPECT_FLOAT_EQ(z[1], -1.0f * 3 + 0.5f * 4 - 0.25f);
}

TEST(DenseLayerTest, MaxAbsWeight)
{
    DenseLayer layer(2, 1);
    layer.setWeight(0, 0, -3.5f);
    layer.setWeight(0, 1, 2.0f);
    EXPECT_FLOAT_EQ(layer.maxAbsWeight(), 3.5f);
}

TEST(NetworkTest, TopologyAndWeightCount)
{
    Network net({784, 1024, 512, 256, 128, 10});
    EXPECT_EQ(net.layerCount(), 5);
    // Paper: ~1.5 million weights.
    EXPECT_EQ(net.totalWeights(),
              784u * 1024 + 1024u * 512 + 512u * 256 + 256u * 128 +
                  128u * 10);
    EXPECT_EQ(net.totalWeights(), 1492224u);
}

TEST(NetworkTest, InferIsDistribution)
{
    Network net({4, 8, 3});
    net.initWeights(5);
    const float x[4] = {0.1f, -0.2f, 0.3f, 0.7f};
    const auto probs = net.infer(x);
    ASSERT_EQ(probs.size(), 3u);
    float sum = 0.0f;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(NetworkTest, InitIsDeterministic)
{
    Network a({4, 8, 3}), b({4, 8, 3});
    a.initWeights(5);
    b.initWeights(5);
    EXPECT_EQ(a.layer(0).weight(3, 2), b.layer(0).weight(3, 2));
    b.initWeights(6);
    EXPECT_NE(a.layer(0).weight(3, 2), b.layer(0).weight(3, 2));
}

TEST(TrainerTest, LearnsForestLike)
{
    const data::Dataset train_set = data::makeForestLike(1500, 3);
    const data::Dataset test_set = data::makeForestLike(
        500, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));

    Network net({data::forestFeatures, 64, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 6;
    options.learningRate = 0.03;
    const TrainReport report = train(net, train_set, options);

    EXPECT_LT(report.finalTrainError, 0.25);
    EXPECT_LT(net.evaluateError(test_set), 0.30); // chance ~0.86
}

TEST(TrainerTest, DeterministicGivenSeeds)
{
    const data::Dataset train_set = data::makeForestLike(300, 3);
    Network a({data::forestFeatures, 16, data::forestClasses});
    Network b({data::forestFeatures, 16, data::forestClasses});
    TrainOptions options;
    options.epochs = 2;
    train(a, train_set, options);
    train(b, train_set, options);
    EXPECT_EQ(a.layer(0).weight(5, 7), b.layer(0).weight(5, 7));
    EXPECT_EQ(a.layer(1).bias(3), b.layer(1).bias(3));
}

TEST(TrainerTest, OutputMseRefinementGrowsWeightsNotError)
{
    const data::Dataset train_set = data::makeForestLike(1500, 3);
    const data::Dataset test_set = data::makeForestLike(
        500, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));
    Network net({data::forestFeatures, 64, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 5;
    options.learningRate = 0.03;
    train(net, train_set, options);
    const double before_error = net.evaluateError(test_set);
    const float before_max = net.layer(2).maxAbsWeight();

    OutputMseOptions refine;
    refine.epochs = 300;
    refine.learningRate = 0.02;
    const TrainReport report =
        finetuneOutputMse(net, train_set, refine);
    EXPECT_EQ(report.epochs, 300);

    // Chasing saturated logsig targets inflates the output layer...
    EXPECT_GT(net.layer(2).maxAbsWeight(), before_max * 1.5f);
    // ...without costing accuracy.
    EXPECT_LT(net.evaluateError(test_set), before_error + 0.02);
    // Hidden layers are untouched.
    Network reference({data::forestFeatures, 64, 32,
                       data::forestClasses});
    train(reference, train_set, options);
    EXPECT_EQ(net.layer(0).weight(3, 5), reference.layer(0).weight(3, 5));
}

TEST(TrainerTest, OutputMseZeroEpochsIsNoOp)
{
    const data::Dataset train_set = data::makeForestLike(200, 3);
    Network net({data::forestFeatures, 16, data::forestClasses});
    net.initWeights(3);
    const float w = net.layer(1).weight(2, 3);
    OutputMseOptions refine;
    refine.epochs = 0;
    finetuneOutputMse(net, train_set, refine);
    EXPECT_EQ(net.layer(1).weight(2, 3), w);
}

TEST(QuantizerTest, PerLayerMinimumPrecision)
{
    Network net({2, 2, 2});
    // Layer 0 weights inside (-1, 1): no digit bits.
    net.layer(0).setWeight(0, 0, 0.5f);
    net.layer(0).setWeight(1, 1, -0.75f);
    // Layer 1 has a weight of magnitude 9: needs 4 digit bits.
    net.layer(1).setWeight(0, 0, 9.0f);

    const QuantizedModel model = quantize(net);
    EXPECT_EQ(model.layers[0].format.digitBits(), 0);
    EXPECT_EQ(model.layers[1].format.digitBits(), 4);
    EXPECT_EQ(model.layers[0].format.describe(), "s1.d0.f15");
    EXPECT_EQ(model.layers[1].format.describe(), "s1.d4.f11");
}

TEST(QuantizerTest, RoundTripPreservesAccuracy)
{
    const data::Dataset train_set = data::makeForestLike(1200, 3);
    Network net({data::forestFeatures, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 4;
    train(net, train_set, options);

    // 16-bit fixed point costs almost nothing (paper: "negligible
    // accuracy loss").
    const data::Dataset test_set = data::makeForestLike(
        400, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));
    EXPECT_LT(std::abs(quantizationErrorDelta(net, test_set)), 0.01);
}

TEST(QuantizerTest, DecodedWeightsCloseToFloat)
{
    Network net({2, 1, 2});
    net.layer(0).setWeight(0, 0, 0.123f);
    net.layer(0).setWeight(0, 1, -0.456f);
    const QuantizedModel model = quantize(net);
    const Network rebuilt = model.toNetwork();
    EXPECT_NEAR(rebuilt.layer(0).weight(0, 0), 0.123f, 1e-4f);
    EXPECT_NEAR(rebuilt.layer(0).weight(0, 1), -0.456f, 1e-4f);
}

TEST(QuantizerTest, ToNetworkMatchesDequantizeExhaustively)
{
    constexpr int words = 1 << fxp::wordBits;
    for (int digits = 0; digits < fxp::wordBits; ++digits) {
        QuantizedModel model;
        model.layerSizes = {words, 1};
        QuantizedLayer layer;
        layer.inputs = words;
        layer.outputs = 1;
        layer.format = fxp::QFormat(digits);
        for (int w = 0; w < words; ++w)
            layer.weights.push_back(static_cast<fxp::Word>(w));
        layer.biases = {0.0f};
        model.layers.push_back(layer);

        const Network net = model.toNetwork();
        const auto decoded = net.layer(0).weights();
        int mismatches = 0;
        for (int w = 0; w < words; ++w) {
            const float expected = static_cast<float>(
                layer.format.dequantize(static_cast<fxp::Word>(w)));
            // Bitwise, so 0x8000 must decode to -0.0f, not +0.0f.
            if (std::bit_cast<std::uint32_t>(
                    decoded[static_cast<std::size_t>(w)]) !=
                std::bit_cast<std::uint32_t>(expected))
                ++mismatches;
        }
        EXPECT_EQ(mismatches, 0) << layer.format.describe();
        EXPECT_TRUE(std::signbit(decoded[0x8000]));
    }
}

TEST(QuantizerTest, ZeroBitFractionOfTrainedNetIsHigh)
{
    const data::Dataset train_set = data::makeForestLike(1200, 3);
    Network net({data::forestFeatures, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 4;
    train(net, train_set, options);
    const QuantizedModel model = quantize(net);
    // The paper's observation: most weight bits are "0".
    EXPECT_GT(model.zeroBitFraction(), 0.55);
}

TEST(ModelZoo, SpecKeysDistinguishConfigs)
{
    ZooSpec a = paperMnistSpec();
    ZooSpec b = paperMnistSpec();
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    b.train.epochs += 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    ZooSpec c = paperMnistSpec();
    c.dataSeed += 1;
    EXPECT_NE(a.cacheKey(), c.cacheKey());
}

TEST(ModelZoo, PaperSpecShapes)
{
    const ZooSpec mnist = paperMnistSpec();
    EXPECT_EQ(mnist.topology,
              (std::vector<int>{784, 1024, 512, 256, 128, 10}));
    EXPECT_EQ(paperForestSpec().topology.front(), data::forestFeatures);
    EXPECT_EQ(paperForestSpec().topology.back(), data::forestClasses);
    EXPECT_EQ(paperReutersSpec().topology.front(), data::reutersVocab);
    EXPECT_EQ(paperReutersSpec().topology.back(), data::reutersClasses);
}

TEST(ModelZoo, SaveLoadRoundTrip)
{
    Network net({4, 6, 3});
    net.initWeights(77);
    const std::string path = "test_zoo_cache/roundtrip.nnw";
    ASSERT_TRUE(saveNetwork(net, path));

    Network loaded({4, 6, 3});
    ASSERT_TRUE(loadNetwork(loaded, path));
    EXPECT_EQ(loaded.layer(0).weight(2, 1), net.layer(0).weight(2, 1));
    EXPECT_EQ(loaded.layer(1).weight(1, 5), net.layer(1).weight(1, 5));

    // Shape mismatch is rejected.
    Network wrong({4, 7, 3});
    EXPECT_FALSE(loadNetwork(wrong, path));
    EXPECT_FALSE(loadNetwork(loaded, "test_zoo_cache/nonexistent.nnw"));
    std::filesystem::remove_all("test_zoo_cache");
}

/** A mid-size net + dataset shared by the batched-engine tests. */
struct BatchedFixture
{
    Network net{{data::forestFeatures, 64, 32, data::forestClasses}};
    data::Dataset set = data::makeForestLike(337, 11); // odd size: the
                                                       // tail batch is
                                                       // always ragged
    BatchedFixture() { net.initWeights(9); }
};

TEST(BatchedEval, ForwardBatchBitIdenticalPerColumn)
{
    BatchedFixture fx;
    const DenseLayer &layer = fx.net.layer(0);
    constexpr int batch = 5;

    // Transpose 5 samples into the kernel's feature-major layout.
    std::vector<float> x(static_cast<std::size_t>(layer.inputs()) * batch);
    for (int s = 0; s < batch; ++s) {
        const auto sample = fx.set.sample(static_cast<std::size_t>(s));
        for (int i = 0; i < layer.inputs(); ++i)
            x[static_cast<std::size_t>(i) * batch +
              static_cast<std::size_t>(s)] = sample[
                static_cast<std::size_t>(i)];
    }
    std::vector<float> z(static_cast<std::size_t>(layer.outputs()) * batch);
    layer.forwardBatch(x, z, batch);

    std::vector<float> expected(static_cast<std::size_t>(layer.outputs()));
    for (int s = 0; s < batch; ++s) {
        layer.forward(fx.set.sample(static_cast<std::size_t>(s)), expected);
        for (int o = 0; o < layer.outputs(); ++o) {
            // EXPECT_EQ, not EXPECT_FLOAT_EQ: the contract is exact.
            EXPECT_EQ(z[static_cast<std::size_t>(o) * batch +
                        static_cast<std::size_t>(s)],
                      expected[static_cast<std::size_t>(o)])
                << "sample " << s << " output " << o;
        }
    }
}

/**
 * The kernel's arithmetic contract written out independently of it:
 * each accumulator starts from the bias and takes one fused
 * multiply-add per input, in ascending input order (a plain
 * multiply-add where the target has no FMA).
 */
float
fmaChainReference(const DenseLayer &layer, int output,
                  std::span<const float> sample)
{
    float acc = layer.bias(output);
    for (int i = 0; i < layer.inputs(); ++i) {
        const float w = layer.weight(output, i);
        const float x = sample[static_cast<std::size_t>(i)];
#ifdef __FMA__
        acc = std::fma(w, x, acc);
#else
        acc = acc + w * x;
#endif
    }
    return acc;
}

TEST(BatchedEval, ForwardBatchMatchesFmaChainReference)
{
    constexpr int max_batch = 130;
    Rng rng(combineSeeds(17, hashSeed("fma-chain")));
    for (const auto &[inputs, outputs] : std::vector<std::pair<int, int>>{
             {784, 1024}, {54, 16}, {16, 7}, {5, 1}, {3, 10}}) {
        DenseLayer layer(inputs, outputs);
        for (float &w : layer.weights())
            w = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float &b : layer.biases())
            b = static_cast<float>(rng.uniform(-1.0, 1.0));
        // Sample-major inputs and the per-sample reference chains; a
        // column's chain does not depend on the batch it rides in.
        const std::size_t in = static_cast<std::size_t>(inputs);
        const std::size_t out = static_cast<std::size_t>(outputs);
        std::vector<float> samples(in * max_batch);
        for (float &v : samples)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        std::vector<float> reference(out * max_batch);
        for (std::size_t s = 0; s < max_batch; ++s) {
            const std::span<const float> sample(samples.data() + s * in,
                                                in);
            for (int o = 0; o < outputs; ++o)
                reference[s * out + static_cast<std::size_t>(o)] =
                    fmaChainReference(layer, o, sample);
        }

        // Both spans start one float past a 64-byte boundary, so no
        // vector access of the kernel is aligned by accident.
        std::vector<float> x_store(in * max_batch + 32);
        std::vector<float> z_store(out * max_batch + 32);
        const auto misalign = [](std::vector<float> &store) {
            void *p = store.data();
            std::size_t space = store.size() * sizeof(float);
            std::align(64, sizeof(float), p, space);
            return static_cast<float *>(p) + 1;
        };
        float *x = misalign(x_store);
        float *z = misalign(z_store);
        std::vector<float> expected;
        for (std::size_t batch = 1; batch <= max_batch; ++batch) {
            expected.resize(out * batch);
            for (std::size_t s = 0; s < batch; ++s) {
                for (std::size_t i = 0; i < in; ++i)
                    x[i * batch + s] = samples[s * in + i];
                for (std::size_t o = 0; o < out; ++o)
                    expected[o * batch + s] = reference[s * out + o];
            }
            layer.forwardBatch(std::span<const float>(x, in * batch),
                               std::span<float>(z, out * batch),
                               static_cast<int>(batch));
            EXPECT_EQ(std::memcmp(z, expected.data(),
                                  out * batch * sizeof(float)),
                      0)
                << inputs << "->" << outputs << " at batch " << batch;
        }
    }
}

TEST(BatchedEval, InferBatchBitIdenticalToInfer)
{
    BatchedFixture fx;
    constexpr int batch = 7;
    const std::size_t features = data::forestFeatures;
    const std::size_t classes = data::forestClasses;

    std::vector<float> inputs(features * batch);
    for (int s = 0; s < batch; ++s) {
        const auto sample = fx.set.sample(static_cast<std::size_t>(s));
        std::copy(sample.begin(), sample.end(),
                  inputs.begin() + static_cast<std::size_t>(s) * features);
    }
    std::vector<float> probs(classes * batch);
    fx.net.inferBatch(inputs, probs, batch);
    std::vector<int> predicted(batch);
    fx.net.classifyBatch(inputs, predicted, batch);

    for (int s = 0; s < batch; ++s) {
        const auto sample = fx.set.sample(static_cast<std::size_t>(s));
        const auto expected = fx.net.infer(sample);
        for (std::size_t c = 0; c < classes; ++c) {
            EXPECT_EQ(probs[static_cast<std::size_t>(s) * classes + c],
                      expected[c])
                << "sample " << s << " class " << c;
        }
        EXPECT_EQ(predicted[static_cast<std::size_t>(s)],
                  fx.net.classify(sample));
    }
}

TEST(BatchedEval, BitIdenticalToScalarAcrossBatchSizes)
{
    BatchedFixture fx;
    const double scalar = fx.net.evaluateErrorScalar(fx.set);
    for (const int batch :
         {1, 7, 32, static_cast<int>(fx.set.size())}) {
        EXPECT_DOUBLE_EQ(
            fx.net.evaluateError(fx.set, EvalOptions{.batch = batch}),
            scalar)
            << "batch " << batch;
    }
    // The two spellings of "whole set" and a clamping limit agree.
    EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, 0), scalar);
    EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, fx.set.size() + 999),
                     scalar);
    // A real prefix limit matches the scalar path on the same prefix.
    EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, 100),
                     fx.net.evaluateErrorScalar(fx.set, 100));
}

TEST(BatchedEval, BitIdenticalAtAnyWorkerCount)
{
    BatchedFixture fx;
    const double scalar = fx.net.evaluateErrorScalar(fx.set);
    for (const std::size_t workers : {0u, 1u, 8u}) {
        ThreadPool pool(workers);
        EXPECT_DOUBLE_EQ(
            fx.net.evaluateError(
                fx.set, EvalOptions{.batch = 16, .pool = &pool}),
            scalar)
            << workers << " workers";
    }
}

TEST(ModelZoo, TestSetDisjointFromTrainSet)
{
    ZooSpec spec = paperForestSpec();
    spec.trainCount = 50;
    const data::Dataset train_set = makeTrainSet(spec);
    const data::Dataset test_set = makeTestSet(spec, 50);
    int identical = 0;
    for (std::size_t i = 0; i < 50; ++i) {
        const auto a = train_set.sample(i);
        const auto b = test_set.sample(i);
        identical += std::equal(a.begin(), a.end(), b.begin());
    }
    EXPECT_EQ(identical, 0);
}

} // namespace
} // namespace uvolt::nn
