#include "harness/experiment.hh"

#include <algorithm>

#include "harness/fault_analyzer.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{

namespace
{

struct SweepMetrics
{
    telemetry::Counter &sweeps =
        telemetry::Registry::global().counter("sweep.campaigns");
    telemetry::Counter &levels =
        telemetry::Registry::global().counter("sweep.levels");
    telemetry::Counter &runs =
        telemetry::Registry::global().counter("sweep.runs");
    telemetry::Counter &crashRecoveries =
        telemetry::Registry::global().counter("sweep.crash_recoveries");
    telemetry::Counter &runsRetried =
        telemetry::Registry::global().counter("sweep.runs_retried");
    telemetry::Histogram &levelMs = telemetry::Registry::global().histogram(
        "sweep.level_ms",
        {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
};

SweepMetrics &
sweepMetrics()
{
    static SweepMetrics metrics;
    return metrics;
}

} // namespace

std::string
PatternSpec::label() const
{
    if (kind == Kind::Fixed)
        return strFormat("16'h{:04X}", word);
    return strFormat("random-{}%",
                     static_cast<int>(oneDensity * 100.0 + 0.5));
}

void
fillPattern(pmbus::Board &board, const PatternSpec &pattern)
{
    auto &device = board.device();
    if (pattern.kind == PatternSpec::Kind::Fixed) {
        device.fillAll(pattern.word);
        return;
    }
    for (std::uint32_t b = 0; b < device.bramCount(); ++b) {
        Rng rng(combineSeeds(pattern.seed, b));
        auto &bram = device.bram(b);
        for (int row = 0; row < fpga::bramRows; ++row) {
            std::uint16_t word = 0;
            for (int col = 0; col < fpga::bramCols; ++col) {
                if (rng.chance(pattern.oneDensity))
                    word = static_cast<std::uint16_t>(word | (1u << col));
            }
            bram.writeRow(row, word);
        }
    }
}

ResilienceReport &
ResilienceReport::operator+=(const ResilienceReport &other)
{
    crashRecoveries += other.crashRecoveries;
    runsRetried += other.runsRetried;
    linkRetransmits += other.linkRetransmits;
    pmbusRetries += other.pmbusRetries;
    checkpointResumes += other.checkpointResumes;
    return *this;
}

double
RegionResult::guardband() const
{
    return 1.0 - static_cast<double>(vminMv) / static_cast<double>(vnomMv);
}

namespace
{

/**
 * Crash watchdog: when DONE drops mid-measurement the board is
 * recovered exactly as the paper recovers crashed boards — by
 * reconfiguration — then brought back to the campaign's conditions:
 * soft reset, pattern re-fill, setpoint restore.
 */
struct Watchdog
{
    pmbus::Board &board;
    PatternSpec pattern;
    fpga::RailId rail = fpga::RailId::VccBram;
    int levelMv = 0;
    RecoveryPolicy policy;
    ResilienceReport *report = nullptr;

    /** Reconfigure and restore campaign conditions after DONE-low. */
    Expected<void>
    recover() const
    {
        if (report)
            ++report->crashRecoveries;
        sweepMetrics().crashRecoveries.increment();
        if (auto reset = board.trySoftReset(); !reset.ok())
            return reset;
        fillPattern(board, pattern);
        const auto set = rail == fpga::RailId::VccBram
            ? board.trySetVccBramMv(levelMv)
            : board.trySetVccIntMv(levelMv);
        if (!set.ok())
            return set.error();
        if (!board.donePin())
            panic("{}: board crashed again right after recovery at {} mV "
                  "(level should be operable)",
                  board.spec().name, levelMv);
        return {};
    }
};

/**
 * Count device-wide BRAM faults for the run in progress, recovering
 * injected/spurious crashes and retrying the run under its original
 * supply jitter so the result equals an undisturbed run's.
 */
Expected<std::uint64_t>
countDeviceFaultsRecoverable(const Watchdog &watchdog)
{
    pmbus::Board &board = watchdog.board;
    const double jitter = board.runJitterV();
    for (int recovery = 0; recovery <= watchdog.policy.maxRecoveriesPerRun;
         ++recovery) {
        // One device-level probe: streams the packed threshold ladders
        // (memoized per content/voltage) on a quiet crash schedule, and
        // degrades to the exact legacy per-BRAM probe loop when a
        // spurious-crash schedule is armed.
        const auto count = board.tryCountDeviceFaults();
        if (count.ok())
            return count.value();
        if (count.code() != Errc::crashDetected)
            return count.error();
        if (auto recovered = watchdog.recover(); !recovered.ok())
            return recovered.error();
        board.resumeRun(jitter);
        sweepMetrics().runsRetried.increment();
        if (watchdog.report)
            ++watchdog.report->runsRetried;
    }
    return makeError(Errc::recoveryExhausted,
                     "{}: run at {} mV kept crashing through {} "
                     "recoveries",
                     board.spec().name, watchdog.levelMv,
                     watchdog.policy.maxRecoveriesPerRun);
}

/** Whether the probed rail shows any fault at the present level. */
Expected<bool>
probeFaulty(pmbus::Board &board, fpga::RailId rail, int runs,
            const Watchdog &watchdog)
{
    if (rail == fpga::RailId::VccBram) {
        for (int run = 0; run < runs; ++run) {
            board.startRun();
            auto count = countDeviceFaultsRecoverable(watchdog);
            if (!count.ok())
                return count.error();
            if (count.value() > 0)
                return true;
        }
        return false;
    }
    return board.internalLogicFaulty();
}

/** Snapshot link/pmbus retry counters so a campaign can report deltas. */
struct ChannelBaseline
{
    std::uint64_t linkRetransmits;
    std::uint64_t pmbusRetries;

    explicit ChannelBaseline(const pmbus::Board &board)
        : linkRetransmits(board.link().stats().retransmits),
          pmbusRetries(board.pmbusStats().retries)
    {
    }

    void
    fold(const pmbus::Board &board, ResilienceReport &report) const
    {
        report.linkRetransmits +=
            board.link().stats().retransmits - linkRetransmits;
        report.pmbusRetries += board.pmbusStats().retries - pmbusRetries;
    }
};

} // namespace

Expected<RegionResult>
tryDiscoverRegions(pmbus::Board &board, fpga::RailId rail,
                   int runs_per_level)
{
    if (rail == fpga::RailId::VccAux)
        fatal("discoverRegions: VCCAUX is not underscaled in this study");

    if (auto reset = board.trySoftReset(); !reset.ok())
        return reset.error();
    if (rail == fpga::RailId::VccBram)
        fillPattern(board, PatternSpec::allOnes());

    RegionResult result;
    result.platform = board.spec().name;
    result.rail = rail;
    result.vnomMv = board.spec().vnomMv;
    result.vminMv = board.spec().vnomMv;
    result.vcrashMv = 0;

    const int step = pmbus::voutStepMv;
    int first_faulty_mv = 0;

    Watchdog watchdog{board, PatternSpec::allOnes(), rail, 0, {}, nullptr};

    for (int mv = result.vnomMv; mv >= 0; mv -= step) {
        const auto set = rail == fpga::RailId::VccBram
            ? board.trySetVccBramMv(mv)
            : board.trySetVccIntMv(mv);
        if (!set.ok())
            return set.error();

        if (!board.donePin()) {
            // CRASH region entered: the last operable level was one step
            // above (paper: DONE pin unset below Vcrash).
            result.vcrashMv = mv + step;
            break;
        }
        watchdog.levelMv = mv;
        if (first_faulty_mv == 0) {
            auto faulty = probeFaulty(board, rail, runs_per_level,
                                      watchdog);
            if (!faulty.ok())
                return faulty.error();
            if (faulty.value())
                first_faulty_mv = mv;
        }
    }
    if (result.vcrashMv == 0)
        panic("{}: no crash level found on {}", result.platform,
              railName(rail));

    // Vmin is the lowest *fault-free* level: one step above the first
    // level where faults manifested (or Vcrash if none ever did).
    result.vminMv =
        first_faulty_mv == 0 ? result.vcrashMv : first_faulty_mv + step;

    if (auto reset = board.trySoftReset(); !reset.ok())
        return reset.error();
    return result;
}

RegionResult
discoverRegions(pmbus::Board &board, fpga::RailId rail, int runs_per_level)
{
    return tryDiscoverRegions(board, rail, runs_per_level).orFatal();
}

std::string
SweepResult::describe() const
{
    const std::string &name =
        platform.empty() ? "<unset platform>" : platform;
    if (dieId.empty())
        return name;
    return strFormat("{} (die {})", name, dieId);
}

const SweepPoint &
SweepResult::atVcrash() const
{
    if (points.empty())
        fatal("sweep of {} has no points (the campaign measured no "
              "operable level)",
              describe());
    return points.back();
}

const SweepPoint &
SweepResult::at(int vcc_bram_mv) const
{
    for (const auto &point : points) {
        if (point.vccBramMv == vcc_bram_mv)
            return point;
    }
    std::string available;
    for (const auto &point : points) {
        if (!available.empty())
            available += ", ";
        available += strFormat("{}", point.vccBramMv);
    }
    fatal("sweep has no point at {} mV; {} measured {} level(s): [{}] mV",
          vcc_bram_mv, describe(), points.size(), available);
}

namespace
{

/** Rebuild the derived per-point statistics from raw run counts. */
void
finalizePointStats(SweepPoint &point, std::uint64_t total_bits)
{
    point.runStats = RunningStats();
    for (double count : point.runCounts)
        point.runStats.add(count);
    point.medianFaults = median(point.runCounts);
    point.faultsPerMbit = faultsPerMbit(point.medianFaults, total_bits);
}

/**
 * The deterministic zero-jitter reference map of one level: the
 * per-BRAM fault map plus flip-polarity accounting. A quiet board
 * tallies it from the chip's fault order; a board with a noise source
 * ships every BRAM through the serial link, whose retransmits and
 * crash schedule are part of the noisy measurement. Both give the same
 * map. A crash mid-pass restarts the whole pass (it is jitter-free,
 * hence idempotent).
 */
Expected<void>
collectReferenceMaps(SweepPoint &point, const Watchdog &watchdog)
{
    pmbus::Board &board = watchdog.board;
    point.perBramFaults.assign(board.device().bramCount(), 0);
    if (!board.injector()) {
        board.startReferenceRun();
        const auto tally = board.tryTallyBramFaults(point.perBramFaults);
        if (!tally.ok())
            return tally.error();
        const FaultSummary summary{tally.value().total(),
                                   tally.value().oneToZero,
                                   tally.value().zeroToOne};
        point.oneToZeroFraction = summary.oneToZeroFraction();
        return {};
    }
    for (int recovery = 0; recovery <= watchdog.policy.maxRecoveriesPerRun;
         ++recovery) {
        board.startReferenceRun();
        FaultSummary summary;
        bool crashed = false;
        for (std::uint32_t b = 0; b < board.device().bramCount(); ++b) {
            auto observed = board.tryReadBramPacked(b);
            if (!observed.ok()) {
                if (observed.code() != Errc::crashDetected)
                    return observed.error();
                crashed = true;
                break;
            }
            point.perBramFaults[b] = static_cast<int>(
                tallyBram(board.device().bram(b), observed.value(),
                          summary));
        }
        if (!crashed) {
            point.oneToZeroFraction = summary.oneToZeroFraction();
            return {};
        }
        if (auto recovered = watchdog.recover(); !recovered.ok())
            return recovered.error();
    }
    return makeError(Errc::recoveryExhausted,
                     "{}: reference readback at {} mV kept crashing "
                     "through {} recoveries",
                     board.spec().name, watchdog.levelMv,
                     watchdog.policy.maxRecoveriesPerRun);
}

} // namespace

Expected<SweepResult>
tryRunCriticalSweep(pmbus::Board &board, const SweepOptions &options)
{
    const auto &spec = board.spec();
    UVOLT_TRACE_SCOPE("sweep", [&] {
        return telemetry::TraceArgs{
            {"platform", spec.name},
            {"die", spec.serialNumber},
            {"pattern", options.pattern.label()}};
    });
    sweepMetrics().sweeps.increment();
    const int from =
        options.fromMv > 0 ? options.fromMv : spec.calib.bramVminMv;
    const int down_to =
        options.downToMv > 0 ? options.downToMv : spec.calib.bramVcrashMv;
    if (down_to > from)
        fatal("runCriticalSweep: downTo {} mV above from {} mV", down_to,
              from);

    SweepResult result;
    result.platform = spec.name;
    result.dieId = spec.serialNumber;
    result.pattern = options.pattern;
    result.ambientC = board.ambientC();
    result.runsPerLevel = options.runsPerLevel;

    const ChannelBaseline baseline(board);

    if (auto reset = board.trySoftReset(); !reset.ok())
        return reset.error();
    fillPattern(board, options.pattern);

    const std::uint64_t total_bits = board.device().totalBits();

    Watchdog watchdog{board,   options.pattern, fpga::RailId::VccBram,
                      0,       options.recovery, &result.resilience};

    int levels_this_call = 0;
    bool finished = true;
    for (int mv = from; mv >= down_to; mv -= options.stepMv) {
        if (options.maxLevels > 0 &&
            levels_this_call >= options.maxLevels) {
            // Budget exhausted: the caller continues one step below.
            finished = false;
            break;
        }
        if (auto set = board.trySetVccBramMv(mv); !set.ok())
            return set.error();
        if (!board.donePin())
            break; // stepped past Vcrash
        watchdog.levelMv = mv;

        UVOLT_TRACE_SCOPE("sweep.level", [&] {
            return telemetry::TraceArgs{{"mv", std::to_string(mv)}};
        });
        const std::uint64_t level_start_ns = telemetry::nowNs();

        SweepPoint point;
        point.vccBramMv = mv;
        point.runCounts.reserve(
            static_cast<std::size_t>(options.runsPerLevel));

        for (int run = 0; run < options.runsPerLevel; ++run) {
            board.startRun();
            sweepMetrics().runs.increment();
            auto count = countDeviceFaultsRecoverable(watchdog);
            if (!count.ok())
                return count.error();
            point.runCounts.push_back(
                static_cast<double>(count.value()));
        }
        finalizePointStats(point, total_bits);
        point.bramPowerW = board.measureBramPowerW();

        if (options.collectPerBram) {
            if (auto maps = collectReferenceMaps(point, watchdog);
                !maps.ok())
                return maps.error();
        }

        result.points.push_back(std::move(point));
        ++levels_this_call;
        sweepMetrics().levels.increment();
        if (telemetry::Telemetry::enabled()) {
            sweepMetrics().levelMs.observe(
                static_cast<double>(telemetry::nowNs() - level_start_ns) /
                1e6);
        }
    }

    result.truncated = !finished;

    baseline.fold(board, result.resilience);
    if (auto reset = board.trySoftReset(); !reset.ok())
        return reset.error();
    return result;
}

SweepResult
runCriticalSweep(pmbus::Board &board, const SweepOptions &options)
{
    return tryRunCriticalSweep(board, options).orFatal();
}

} // namespace uvolt::harness
