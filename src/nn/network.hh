/**
 * @file
 * Fully-connected feed-forward network (the paper's Table III model).
 *
 * The baseline is a 6-layer topology (784, 1024, 512, 256, 128, 10):
 * logistic-sigmoid ("logsig") activations on the hidden layers and a
 * softmax output that yields the class distribution. This module holds
 * the float reference model used for training and as the fault-free
 * accuracy baseline; the fixed-point, BRAM-backed version lives in the
 * accel module.
 */

#ifndef UVOLT_NN_NETWORK_HH
#define UVOLT_NN_NETWORK_HH

#include <span>
#include <vector>

#include "data/dataset.hh"

namespace uvolt
{
class ThreadPool;
}

namespace uvolt::nn
{

/** Logistic sigmoid, the paper's hidden activation. */
float logsig(float x);

/** In-place softmax over a span of logits. */
void softmaxInPlace(std::span<float> logits);

/** One dense (fully-connected) weight layer. */
class DenseLayer
{
  public:
    DenseLayer(int inputs, int outputs);

    int inputs() const { return inputs_; }
    int outputs() const { return outputs_; }

    /** Row-major weights: weight(o, i) multiplies input i for output o. */
    float weight(int output, int input) const;
    void setWeight(int output, int input, float value);

    float bias(int output) const { return biases_[
        static_cast<std::size_t>(output)]; }
    void setBias(int output, float value);

    /** Flat storage access (used by the quantizer and the accelerator). */
    std::span<const float> weights() const { return weights_; }
    std::span<float> weights() { return weights_; }
    std::span<const float> biases() const { return biases_; }
    std::span<float> biases() { return biases_; }

    /** z = W x + b. @a z must have outputs() entries. */
    void forward(std::span<const float> x, std::span<float> z) const;

    /**
     * Batched forward: Z = W X + b over @a batch samples at once.
     *
     * @a x is the inputs() x batch activation matrix with sample s in
     * column s and the batch dimension contiguous (element (i, s) at
     * x[i * batch + s]); @a z is the outputs() x batch result in the
     * same layout. On AVX-512 builds a register-blocked micro-kernel
     * covers 4 output rows x up to 64 batch columns with 16 zmm
     * accumulators that stay in registers across the whole input
     * range; a ragged column tail runs through the 1-4 chunk instance
     * with masked loads and stores, and outputs % 4 spare rows through
     * a 1-row instance. Other builds keep a cache-blocked loop that
     * the compiler vectorizes across the batch columns.
     *
     * Arithmetic contract, on every path: each (output, sample)
     * accumulator starts from the bias and takes one multiply-add per
     * input in ascending input order — fused on FMA targets. Blocking
     * only interleaves independent accumulators, never reassociates
     * one, so every column is bit-identical to forward() on that
     * sample at any batch width.
     */
    void forwardBatch(std::span<const float> x, std::span<float> z,
                      int batch) const;

    /** Largest absolute weight (per-layer precision analysis, Fig 9). */
    float maxAbsWeight() const;

  private:
    int inputs_;
    int outputs_;
    std::vector<float> weights_;
    std::vector<float> biases_;
};

/**
 * The sample count shared by every sampled accuracy study (precision
 * sweep, per-layer vulnerability): one consistent evalLimit so their
 * error numbers are computed on the same prefix of the test set and
 * stay comparable across figures.
 */
inline constexpr std::size_t paperEvalLimit = 2500;

/**
 * Knobs of the batched evaluation engine.
 *
 * `limit` follows the evaluateError() convention: 0 means the whole
 * set, and a limit larger than the set silently clamps to the set size
 * (both spellings of "everything" are deliberate — see
 * Network::evaluateError). `batch` is the number of test-set columns
 * per forwardBatch() call (0 = defaultEvalBatch(), i.e. the UVOLT_BATCH
 * environment override or 64). A non-null `pool` fans the batches out
 * over its workers; each batch writes its misclassification count into
 * a pre-assigned slot and the reduction sums the slots in plan order,
 * so the result is bit-identical at any worker count (a 0-worker pool
 * runs the same code inline).
 */
struct EvalOptions
{
    std::size_t limit = 0; ///< 0 = whole set; > size clamps to size
    int batch = 0;         ///< columns per kernel call; 0 = default
    ThreadPool *pool = nullptr; ///< fan batches out; null = this thread
};

/**
 * Evaluation batch width used when EvalOptions::batch is 0: the
 * UVOLT_BATCH environment variable when set (clamped to >= 1),
 * otherwise 64 (the fastest width measured in BM_MnistEvalBatched).
 */
int defaultEvalBatch();

/** The full network. */
class Network
{
  public:
    /**
     * @param layer_sizes neuron counts per layer, length >= 2; e.g. the
     * paper's {784, 1024, 512, 256, 128, 10}.
     */
    explicit Network(std::vector<int> layer_sizes);

    /** Number of weight layers (layer_sizes.size() - 1). */
    int layerCount() const { return static_cast<int>(layers_.size()); }

    DenseLayer &layer(int index);
    const DenseLayer &layer(int index) const;

    const std::vector<int> &layerSizes() const { return sizes_; }

    /** Total weight parameters (~1.5 M for the paper's topology). */
    std::size_t totalWeights() const;

    /** Glorot-uniform weight initialization, deterministic in seed. */
    void initWeights(std::uint64_t seed);

    /**
     * Forward pass: hidden layers through logsig, output through
     * softmax. Returns the class distribution.
     */
    std::vector<float> infer(std::span<const float> input) const;

    /** Arg-max classification. */
    int classify(std::span<const float> input) const;

    /**
     * Batched inference: class distributions for @a batch samples.
     * @a inputs holds the samples back to back in dataset order (sample
     * s at inputs[s * inputFeatures]), @a probs receives the
     * distributions back to back (sample s at probs[s * classCount]).
     * Column results are bit-identical to infer() on each sample.
     */
    void inferBatch(std::span<const float> inputs,
                    std::span<float> probs, int batch) const;

    /**
     * Batched arg-max classification of @a batch samples laid out as in
     * inferBatch(). Bit-identical to classify() per sample.
     */
    void classifyBatch(std::span<const float> inputs,
                       std::span<int> classes, int batch) const;

    /**
     * Scatter-gather variant of classifyBatch() for request coalescing:
     * each entry of @a samples is one sample's feature vector, living
     * wherever its owner put it (a serving layer packs one block from
     * many clients' buffers without copying them into a contiguous
     * staging area first). The samples are gathered straight into the
     * kernel's feature-major layout and run through the same batched
     * stack, so the result is bit-identical to classify() per sample
     * and to classifyBatch() on a contiguous copy. @a classes must
     * have samples.size() slots; every sample must have input-layer
     * width.
     */
    void classifyScattered(std::span<const std::span<const float>> samples,
                           std::span<int> classes) const;

    /**
     * Classification error on a dataset (fraction mis-classified),
     * computed by the batched engine with default options — see the
     * EvalOptions overload. Bit-identical to evaluateErrorScalar().
     *
     * @param limit evaluate only the first @a limit samples. Both
     * limit == 0 and limit > set.size() mean "the whole set"; callers
     * that want a fixed sample budget across figures should pass
     * paperEvalLimit explicitly rather than relying on either spelling.
     */
    double evaluateError(const data::Dataset &set,
                         std::size_t limit = 0) const;

    /**
     * Batched, optionally parallel classification error. Splits the
     * evaluated prefix into EvalOptions::batch-column batches, runs
     * each through forwardBatch(), and reduces the per-batch
     * misclassification counts in plan order (integer sum — exact at
     * any worker count). fatal() on an empty evaluation set.
     */
    double evaluateError(const data::Dataset &set,
                         const EvalOptions &options) const;

    /**
     * Scalar reference path: classify() sample by sample. The batched
     * engine is verified bit-identical against this in tests and CI;
     * it exists as the ground truth, not as a fast path.
     */
    double evaluateErrorScalar(const data::Dataset &set,
                               std::size_t limit = 0) const;

  private:
    /** Misclassified count over samples [first, first + count). */
    std::size_t countMisclassified(const data::Dataset &set,
                                   std::size_t first, std::size_t count,
                                   int batch) const;

    std::vector<int> sizes_;
    std::vector<DenseLayer> layers_;
};

} // namespace uvolt::nn

#endif // UVOLT_NN_NETWORK_HH
