/**
 * @file
 * nn_eval: the paper's MNIST study through BRAM-resident weights.
 *
 * The 784-1024-512-256-128-10 network (seeded initWeights: training
 * costs minutes once and does not change forward cost) is quantized,
 * placed two ways (stock identity placement, and ICBP from the FVM of
 * one VC707 sweep made during set-up) and stepped Vmin -> Vcrash at
 * 10 mV on VC707. Every setpoint is one unit of work: VCCBRAM write,
 * a fresh Board::startRun() (so every setpoint pays a readback), the
 * weight readback/decode, and classification of 2500 MNIST-like
 * samples on a ThreadPool(nproc).
 */

#include <memory>
#include <optional>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "common.hh"
#include "data/synthetic.hh"
#include "harness/fvm.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace uvolt;

constexpr std::size_t evalSamples = 2500;
constexpr std::size_t scalarCheckSamples = 64;
constexpr std::uint64_t weightSeed = 2018;
const char *const platform = "VC707";

/** Everything set-up builds; the measured phase only reads it. */
struct NnInputs
{
    std::optional<accel::WeightImage> image;
    std::vector<std::pair<std::string, accel::Placement>> placements;
    data::Dataset testSet;
};

NnInputs
buildInputs(std::uint64_t seed)
{
    const auto &spec = fpga::findPlatform(platform);
    pmbus::Board board(spec); // synthesizes the die personality
    harness::SweepOptions sweep_options;
    sweep_options.runsPerLevel = 5;
    const auto sweep = harness::runCriticalSweep(board, sweep_options);
    const harness::Fvm fvm =
        harness::fvmFromSweep(sweep, board.device().floorplan());

    nn::Network net({data::mnistPixels, 1024, 512, 256, 128,
                     data::mnistClasses});
    net.initWeights(weightSeed);
    NnInputs inputs;
    inputs.image.emplace(nn::quantize(net));
    inputs.placements.emplace_back("default",
                                   accel::defaultPlacement(*inputs.image));
    inputs.placements.emplace_back(
        "icbp", accel::icbpPlacement(*inputs.image, fvm));
    inputs.testSet = data::makeMnistLike(evalSamples, seed);
    return inputs;
}

/** What one setpoint produced (simulated, compared exactly). */
struct SetpointOutcome
{
    std::size_t placement;
    int mv;
    std::uint64_t weightFaults;
    double error;

    bool
    operator==(const SetpointOutcome &other) const
    {
        return placement == other.placement && mv == other.mv &&
               weightFaults == other.weightFaults && error == other.error;
    }
};

struct NnLayers
{
    int setpoint, readback, forward;

    explicit NnLayers(Tracer &tracer)
        : setpoint(tracer.layer("pmbus.setpoint")),
          readback(tracer.layer("accel.readback")),
          forward(tracer.layer("nn.forward"))
    {
    }
};

/** Traced-mode extras measured around (never inside) the setpoints. */
struct NnProbes
{
    std::vector<double> programMs;
    double transferMs = 0.0;   ///< sum of tryReadBramPacked time
    std::uint64_t transfers = 0;
    std::uint64_t cacheHits = 0;
};

/** Phase state: per-setpoint latencies and outcomes. */
struct NnPhase
{
    std::vector<double> setpointMs;
    std::vector<SetpointOutcome> outcomes;
    std::size_t passes = 0;
};

/**
 * One pass: every placement on a fresh board (same jitter sequence
 * each pass), every setpoint Vmin -> Vcrash.
 */
bool
runPass(const NnInputs &inputs, ThreadPool &pool, Tracer *tracer,
        const NnLayers *layers, NnProbes *probes, NnPhase &phase)
{
    const auto &spec = fpga::findPlatform(platform);
    nn::EvalOptions eval;
    eval.pool = &pool;
    for (std::size_t p = 0; p < inputs.placements.size(); ++p) {
        const auto &placement = inputs.placements[p].second;
        pmbus::Board board(spec, pmbus::sharedChipModel(spec));
        const auto program_start = Clock::now();
        accel::Accelerator accel(board, *inputs.image, placement);
        if (probes)
            probes->programMs.push_back(msSince(program_start));
        for (int mv = spec.calib.bramVminMv; mv >= spec.calib.bramVcrashMv;
             mv -= 10) {
            const std::uint64_t hits_before = accel.observationCacheHits();
            const auto start = Clock::now();
            {
                Scope span(tracer, layers ? layers->setpoint : 0);
                if (!board.trySetVccBramMv(mv).ok())
                    return false;
            }
            board.startRun();
            std::uint64_t faults = 0;
            {
                Scope span(tracer, layers ? layers->readback : 0);
                faults = accel.weightFaults().total;
            }
            double error = 0.0;
            {
                Scope span(tracer, layers ? layers->forward : 0);
                error = accel.classificationError(inputs.testSet, eval);
            }
            phase.setpointMs.push_back(msSince(start));
            phase.outcomes.push_back({p, mv, faults, error});

            if (probes) {
                probes->cacheHits +=
                    accel.observationCacheHits() - hits_before;
                // The same dose's BRAM transfers alone: what of the
                // readback is serial transport, the rest is decode.
                const auto transfer_start = Clock::now();
                for (std::uint32_t l = 0; l < placement.logicalCount(); ++l) {
                    if (!board.tryReadBramPacked(placement.physicalOf(l)).ok())
                        return false;
                }
                probes->transferMs += msSince(transfer_start);
                probes->transfers += placement.logicalCount();
            }
        }
    }
    ++phase.passes;
    return true;
}

NnPhase
runPhase(const NnInputs &inputs, ThreadPool &pool, double seconds,
         Tracer *tracer, const NnLayers *layers, NnProbes *probes,
         Report &report)
{
    NnPhase phase;
    const auto start = Clock::now();
    bool ok = true;
    do {
        const std::size_t before = phase.outcomes.size();
        ok = runPass(inputs, pool, tracer, layers, probes, phase);
        report.attempt(phase.outcomes.size() - before + (ok ? 0 : 1));
    } while (ok && msSince(start) < seconds * 1e3);
    report.gate("setpoints_ok", ok, ok ? 0 : 1,
                "a VCCBRAM write or BRAM readback failed");
    return phase;
}

EndToEnd
phaseEndToEnd(const NnPhase &phase)
{
    double total_ms = 0.0;
    for (double ms : phase.setpointMs)
        total_ms += ms;
    EndToEnd e2e;
    e2e.throughputPerS =
        static_cast<double>(phase.setpointMs.size()) / (total_ms / 1e3);
    e2e.latencyP50Ms = percentile(phase.setpointMs, 0.5);
    e2e.latencyTailMs = percentile(phase.setpointMs, 0.9);
    return e2e;
}

/** Every pass of a phase must reproduce the first pass exactly. */
void
gateRepeats(const NnPhase &phase, std::vector<SetpointOutcome> &reference,
            Report &report)
{
    if (phase.passes == 0)
        return;
    const std::size_t per_pass =
        phase.outcomes.size() / phase.passes; // whole passes only
    if (reference.empty())
        reference.assign(phase.outcomes.begin(),
                         phase.outcomes.begin() +
                             static_cast<std::ptrdiff_t>(per_pass));
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
        if (!(phase.outcomes[i] == reference[i % per_pass]))
            ++bad;
    }
    report.gate("setpoints_repeat_exactly", bad == 0, bad,
                "every pass reproduces the first pass's weight faults and "
                "classification error");
}

/**
 * The oracle: rebuild each placement's Vcrash dose on a fresh board and
 * check the batched engine against evaluateErrorScalar on a fixed
 * subset, and the full-set error against the measured one.
 */
void
checkAgainstScalar(const NnInputs &inputs, ThreadPool &pool,
                   const std::vector<SetpointOutcome> &reference,
                   bool measure_parallel, Report &report)
{
    const auto &spec = fpga::findPlatform(platform);
    double serial_ms = 0.0, pooled_ms = 0.0;
    for (std::size_t p = 0; p < inputs.placements.size(); ++p) {
        pmbus::Board board(spec, pmbus::sharedChipModel(spec));
        accel::Accelerator accel(board, *inputs.image,
                                 inputs.placements[p].second);
        for (int mv = spec.calib.bramVminMv; mv >= spec.calib.bramVcrashMv;
             mv -= 10) {
            board.setVccBramMv(mv);
            board.startRun();
        }
        const nn::Network net = accel.observedNetwork();
        nn::EvalOptions subset;
        subset.limit = scalarCheckSamples;
        subset.pool = &pool;
        const double batched = net.evaluateError(inputs.testSet, subset);
        const double scalar =
            net.evaluateErrorScalar(inputs.testSet, scalarCheckSamples);

        nn::EvalOptions full;
        full.pool = &pool;
        auto start = Clock::now();
        const double error = accel.classificationError(inputs.testSet, full);
        pooled_ms += msSince(start);
        const SetpointOutcome vcrash{p, spec.calib.bramVcrashMv,
                                     accel.weightFaults().total, error};
        bool matches = false;
        for (const auto &outcome : reference)
            matches = matches || outcome == vcrash;
        report.gate("batched_equals_scalar." + inputs.placements[p].first,
                    batched == scalar, 1,
                    "batched " + jsonNumber(batched) + " scalar " +
                        jsonNumber(scalar));
        report.gate("vcrash_reproduces." + inputs.placements[p].first,
                    matches, 1);
        report.attempt(2);

        if (measure_parallel) {
            start = Clock::now();
            const double alone = accel.classificationError(inputs.testSet,
                                                           nn::EvalOptions{});
            serial_ms += msSince(start);
            report.gate("pool_equals_serial." + inputs.placements[p].first,
                        alone == error, 1);
            report.attempt(1);
        }
    }
    if (measure_parallel)
        report.layer("nn.pool_parallel_eff",
                     serial_ms / (static_cast<double>(hostWorkers()) *
                                  pooled_ms));
}

std::string
faultDigest(const std::vector<SetpointOutcome> &reference)
{
    Digest digest;
    for (const auto &outcome : reference) {
        digest.add(static_cast<std::uint64_t>(outcome.placement));
        digest.add(static_cast<std::uint64_t>(outcome.mv));
        digest.add(outcome.weightFaults);
    }
    return digest.hex();
}

} // namespace

void
runNnEval(const Args &args, Report &report)
{
    std::optional<NnInputs> inputs;
    const double setup_s = medianSetupSeconds(
        5, [&] { inputs.emplace(buildInputs(args.seed)); });
    ThreadPool pool(hostWorkers());

    std::vector<SetpointOutcome> reference;
    const double untraced_s = args.trace ? args.seconds * 0.35 : args.seconds;
    const NnPhase untraced = runPhase(*inputs, pool, untraced_s, nullptr,
                                      nullptr, nullptr, report);
    gateRepeats(untraced, reference, report);
    report.digest("nn_weight_faults", faultDigest(reference),
                  untraced.outcomes.size());
    report.info("setpoints", std::to_string(untraced.setpointMs.size()));
    report.info("eval_samples", std::to_string(evalSamples));

    if (!args.trace) {
        checkAgainstScalar(*inputs, pool, reference, false, report);
        reportEndToEnd(report, setup_s, phaseEndToEnd(untraced));
        return;
    }

    Tracer tracer;
    const NnLayers layers(tracer);
    NnProbes probes;
    const NnPhase traced = runPhase(*inputs, pool, args.seconds * 0.35,
                                    &tracer, &layers, &probes, report);
    gateRepeats(traced, reference, report);
    report.gate("named_layers_partition_spans.setpoint",
                tracer.partitionsTopLevel(
                    {"pmbus.setpoint", "accel.readback", "nn.forward"}),
                0,
                "the setpoint split's layers are exactly the top-level "
                "spans");
    checkAgainstScalar(*inputs, pool, reference, true, report);
    if (!args.spansOut.empty())
        tracer.writeChromeTrace(args.spansOut, 50000);

    const double units = static_cast<double>(traced.setpointMs.size());
    double wall_ms = 0.0;
    for (double ms : traced.setpointMs)
        wall_ms += ms;
    const double setpoint_ms = tracer.busyMs("pmbus.setpoint") / units;
    const double readback_ms = tracer.busyMs("accel.readback") / units;
    const double forward_ms = tracer.busyMs("nn.forward") / units;
    report.layer("setpoint.wall_ms", wall_ms / units);
    report.layer("setpoint.residual_ms",
                 wall_ms / units - setpoint_ms - readback_ms - forward_ms);
    report.layer("pmbus.setpoint.busy_ms", setpoint_ms);
    report.layer("pmbus.setpoint.calls", tracer.calls("pmbus.setpoint") / units);
    report.layer("pmbus.setpoint_us", setpoint_ms * 1e3);
    report.layer("accel.readback_ms", readback_ms);
    report.layer("accel.decode_ms", readback_ms - probes.transferMs / units);
    report.layer("pmbus.readback_us",
                 probes.transfers ? probes.transferMs * 1e3 / probes.transfers
                                  : 0.0);
    report.layer("pmbus.readback.calls", probes.transfers / units);
    report.layer("accel.program_ms", median(probes.programMs));
    report.layer("accel.cache_hits", probes.cacheHits / units);
    std::uint64_t faults = 0;
    for (const auto &outcome : reference)
        faults += outcome.weightFaults;
    report.layer("accel.weight_faults", static_cast<double>(faults));
    report.layer("nn.forward_ms", forward_ms);
    reportTraceOverhead(report, phaseEndToEnd(untraced),
                        phaseEndToEnd(traced));
    traceServeLayer(args, args.seconds * 0.3, report);
}

} // namespace perfbench
