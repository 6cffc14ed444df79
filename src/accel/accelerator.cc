#include "accel/accelerator.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace uvolt::accel
{

namespace
{

struct AccelMetrics
{
    telemetry::Counter &inferences =
        telemetry::Registry::global().counter("accel.inferences");
    telemetry::Counter &weightFaults =
        telemetry::Registry::global().counter("accel.weight_faults");
    telemetry::Counter &crashRecoveries =
        telemetry::Registry::global().counter("accel.crash_recoveries");
    telemetry::Counter &decodeCacheHits =
        telemetry::Registry::global().counter("accel.decode_cache.hits");
    telemetry::Counter &decodeCacheMisses =
        telemetry::Registry::global().counter("accel.decode_cache.misses");
};

AccelMetrics &
accelMetrics()
{
    static AccelMetrics metrics;
    return metrics;
}

} // namespace

Accelerator::Accelerator(pmbus::Board &board, WeightImage image,
                         Placement placement)
    : board_(board), image_(std::move(image)),
      placement_(std::move(placement))
{
    if (placement_.logicalCount() != image_.logicalBramCount())
        fatal("placement covers {} BRAMs, image needs {}",
              placement_.logicalCount(), image_.logicalBramCount());
    if (!placement_.fits(board_.device().bramCount()))
        fatal("placement does not fit the {} device",
              board_.spec().name);
    program();
}

void
Accelerator::program()
{
    restoreImage();
    // The device contents just changed epochs; cached readbacks (ours
    // or of whatever overwrote the BRAMs before this re-program) no
    // longer describe them.
    ++programGeneration_;
    cache_.reset();
}

void
Accelerator::restoreImage() const
{
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        auto &bram = board_.device().bram(placement_.physicalOf(logical));
        bram.assignWords(image_.wordsOf(logical));
    }
}

std::vector<std::uint64_t>
readBramRecovering(pmbus::Board &board, std::uint32_t physical,
                   const std::function<void()> &restore,
                   std::uint64_t &recoveries)
{
    constexpr int max_retries = 16;
    const int level_mv = board.vccBramMv();
    const double jitter_v = board.runJitterV();
    // Recovery owed from earlier attempts: a reconfiguration (soft reset
    // plus storage restore), then re-entry at the operating point. A
    // step that fails stays owed, so no read ever runs on a board that
    // is only half recovered.
    bool reconfigure = false;
    bool reenter = false;
    std::string last_error;
    for (int attempt = 0; attempt <= max_retries; ++attempt) {
        if (reconfigure) {
            if (auto reset = board.trySoftReset(); !reset.ok()) {
                last_error = reset.error().message;
                continue;
            }
            restore();
            reconfigure = false;
        }
        if (reenter) {
            // Restore the operating point and retry under the original
            // supply jitter, so the recovered read equals the
            // undisturbed one.
            if (auto set = board.trySetVccBramMv(level_mv); !set.ok()) {
                last_error = set.error().message;
                continue;
            }
            board.resumeRun(jitter_v);
            reenter = false;
        }
        auto observed = board.tryReadBramPacked(physical);
        if (observed.ok())
            return observed.take();
        last_error = observed.error().message;
        if (observed.code() == Errc::crashDetected) {
            ++recoveries;
            accelMetrics().crashRecoveries.increment();
            reconfigure = reenter = true;
        }
        // Any other readback error is the serial link giving up on one
        // frame; the board is intact and the next attempt re-reads.
    }
    fatal("{}: readback of BRAM {} still failing after {} retries; "
          "last: {}",
          board.spec().name, physical, max_retries, last_error);
}

const Accelerator::Observation &
Accelerator::observed() const
{
    const int mv = board_.vccBramMv();
    const double effective = board_.effectiveVoltage();
    if (cache_ && cache_->vccBramMv == mv &&
        cache_->effectiveVoltage == effective &&
        cache_->generation == programGeneration_) {
        ++cacheHits_;
        accelMetrics().decodeCacheHits.increment();
        return *cache_;
    }

    UVOLT_TRACE_SCOPE("accel.observe_model", [&] {
        return telemetry::TraceArgs{
            {"brams", std::to_string(image_.logicalBramCount())},
            {"mv", std::to_string(mv)}};
    });
    accelMetrics().decodeCacheMisses.increment();
    std::vector<std::vector<std::uint64_t>> words;
    words.reserve(image_.logicalBramCount());
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        words.push_back(
            readBramRecovering(board_, placement_.physicalOf(logical),
                               [this] { restoreImage(); },
                               crashRecoveries_));
    }
    nn::QuantizedModel model = image_.decode(words);
    nn::Network network = model.toNetwork();
    cache_.emplace(Observation{mv, effective, programGeneration_,
                               std::move(words), std::move(model),
                               std::move(network)});
    return *cache_;
}

nn::QuantizedModel
Accelerator::observedModel() const
{
    return observed().model;
}

nn::Network
Accelerator::observedNetwork() const
{
    return observed().network;
}

WeightFaultReport
Accelerator::weightFaults() const
{
    const Observation &observation = observed();
    WeightFaultReport report;
    report.faultsPerLayer.assign(image_.layerSpans().size(), 0);

    for (const LayerSpan &span : image_.layerSpans()) {
        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            const std::uint32_t logical = span.firstLogicalBram + b;
            const std::uint64_t faults = fpga::diffPopcount(
                observation.words[static_cast<std::size_t>(logical)],
                image_.wordsOf(logical));
            report.faultsPerLayer[static_cast<std::size_t>(span.layer)] +=
                faults;
            report.total += faults;
        }
    }
    accelMetrics().weightFaults.add(report.total);
    return report;
}

double
Accelerator::classificationError(const data::Dataset &test_set,
                                 std::size_t limit) const
{
    return classificationError(test_set, nn::EvalOptions{.limit = limit});
}

double
Accelerator::classificationError(const data::Dataset &test_set,
                                 const nn::EvalOptions &options) const
{
    UVOLT_TRACE_SCOPE("accel.classify", [&] {
        return telemetry::TraceArgs{
            {"mv", std::to_string(board_.vccBramMv())}};
    });
    const std::size_t n = options.limit
        ? std::min(options.limit, test_set.size())
        : test_set.size();
    accelMetrics().inferences.add(n);
    // The decoded observation is reused across calls at one operating
    // point; the evaluation itself runs through the batched engine.
    return observed().network.evaluateError(test_set, options);
}

} // namespace uvolt::accel
