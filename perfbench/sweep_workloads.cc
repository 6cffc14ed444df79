/**
 * @file
 * sweep_fleet and sweep_harsh: the paper's Listing-1 characterization
 * as a fleet campaign.
 *
 * Untraced mode times whole campaigns on a ThreadPool(nproc): the BRAM
 * cross product {VC707, ZC702, KC705-A, KC705-B} x {0xFFFF, 0xAAAA} x
 * {50, 80 degC} at 100 runs/level with per-BRAM maps, and (sweep_fleet
 * only) the HBM/MoRS-SRAM campaign right after it. sweep_harsh runs the
 * BRAM plan with NoiseConfig::harsh(seed, 0.1) on every job.
 *
 * Traced mode times one tryRunCriticalSweep per job shape on a fresh
 * Board, then replays the same sweep from this file through the
 * Board's public calls with a span around each layer call, and checks
 * that the replay measured the same per-run counts and maps.
 */

#include <memory>
#include <optional>

#include "common.hh"
#include "harness/campaign.hh"
#include "harness/fault_analyzer.hh"
#include "mem/catalog.hh"
#include "mem/sweep.hh"
#include "pmbus/board.hh"
#include "util/bench.hh"
#include "util/format.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace uvolt;

const std::vector<std::string> bramDies{"VC707", "ZC702", "KC705-A",
                                        "KC705-B"};
const std::vector<std::string> memDevices{"HBM2-A", "HBM2-B",
                                          "MORS-SRAM-A", "MORS-SRAM-B"};
constexpr int runsPerLevel = 100;
constexpr double harshProbability = 0.1;

harness::Campaign
bramCampaign(const std::optional<pmbus::NoiseConfig> &noise)
{
    auto campaign =
        harness::Campaign::onPlatforms(bramDies)
            .withPatterns({harness::PatternSpec::allOnes(),
                           harness::PatternSpec::fixed(0xAAAA)})
            .atTemperatures({50.0, 80.0})
            .sweep(runsPerLevel)
            .perBramMaps(true)
            .ledgerUnder("");
    if (noise)
        campaign.withNoise(*noise);
    return campaign;
}

harness::Campaign
memCampaign()
{
    return harness::Campaign::onDevices(memDevices)
        .sweep(runsPerLevel)
        .perBramMaps(true)
        .ledgerUnder("");
}

/**
 * Digest of every job's simulated statistics, in plan order. The job
 * label is left out: it names the noise seed, and a harsh campaign
 * must measure exactly what a quiet one does.
 */
std::string
fleetDigest(const harness::FleetResult &result)
{
    Digest digest;
    for (const auto &outcome : result.jobs)
        addSweep(digest, outcome.sweep);
    return digest.hex();
}

std::string
resilienceText(const harness::ResilienceReport &r)
{
    return strFormat("recoveries={} retried={} retransmits={} "
                     "pmbus_retries={} resumes={}",
                     r.crashRecoveries, r.runsRetried, r.linkRetransmits,
                     r.pmbusRetries, r.checkpointResumes);
}

/** Synthesize every die personality and memory device from scratch. */
void
synthesizeFleet()
{
    for (const auto &die : bramDies) {
        pmbus::Board board(fpga::findPlatform(die));
        bench::doNotOptimize(board.faultModel());
    }
    for (const auto &name : memDevices) {
        auto device = mem::makeDevice(name);
        device->fill(0xFFFF);
        bench::doNotOptimize(device->contentEpoch());
    }
}

/** A fresh board in a job's environment, like the fleet engine's. */
std::unique_ptr<pmbus::Board>
jobBoard(const harness::FleetJob &job)
{
    const auto &spec = fpga::findPlatform(job.platform);
    auto board =
        std::make_unique<pmbus::Board>(spec, pmbus::sharedChipModel(spec));
    board->setAmbientC(job.ambientC);
    if (job.noise)
        board->attachNoise(*job.noise);
    return board;
}

harness::SweepOptions
jobOptions(const harness::FleetJob &job)
{
    harness::SweepOptions options;
    options.pattern = job.pattern;
    options.runsPerLevel = runsPerLevel;
    options.collectPerBram = true;
    return options;
}

/** Layer ids of the sweep replay. */
struct SweepLayers
{
    int setpoint, count, power, collect, readback, watchdog;

    explicit SweepLayers(Tracer &tracer)
        : setpoint(tracer.layer("pmbus.setpoint")),
          count(tracer.layer("vmodel.device_count")),
          power(tracer.layer("power.measure")),
          collect(tracer.layer("harness.map_collect")),
          readback(tracer.layer("pmbus.readback")),
          watchdog(tracer.layer("harness.watchdog"))
    {
    }
};

/**
 * Listing 1 through the Board's public calls, one span per layer call:
 * the same sequence tryRunCriticalSweep issues (setpoint, runs of
 * startRun + device count with watchdog recovery, power reading,
 * zero-jitter per-BRAM readback). Every timed count draws a fresh run
 * first, so no count is a memo hit. A null @a tracer runs the same
 * calls without spans. Returns the measured points.
 */
Expected<std::vector<harness::SweepPoint>>
replaySweep(pmbus::Board &board, const harness::SweepOptions &options,
            Tracer *tracer, const SweepLayers &layers)
{
    const auto &spec = board.spec();
    const int max_recoveries = options.recovery.maxRecoveriesPerRun;
    board.softReset();
    harness::fillPattern(board, options.pattern);

    // Reconfigure and restore the level after DONE went low.
    const auto recover = [&](int mv) -> Expected<void> {
        Scope span(tracer, layers.watchdog);
        board.softReset();
        harness::fillPattern(board, options.pattern);
        if (auto set = board.trySetVccBramMv(mv); !set.ok())
            return set.error();
        if (!board.donePin())
            return makeError(Errc::recoveryExhausted,
                             "replay: crashed again after recovery");
        return {};
    };

    std::vector<harness::SweepPoint> points;
    for (int mv = spec.calib.bramVminMv; mv >= spec.calib.bramVcrashMv;
         mv -= options.stepMv) {
        {
            Scope span(tracer, layers.setpoint);
            if (auto set = board.trySetVccBramMv(mv); !set.ok())
                return set.error();
        }
        if (!board.donePin())
            break;
        harness::SweepPoint point;
        point.vccBramMv = mv;
        for (int run = 0; run < options.runsPerLevel; ++run) {
            double jitter = 0.0;
            std::optional<Expected<std::uint64_t>> count;
            {
                Scope span(tracer, layers.count);
                board.startRun();
                jitter = board.runJitterV();
                count.emplace(board.tryCountDeviceFaults());
            }
            for (int recovery = 0; !count->ok(); ++recovery) {
                if (count->code() != Errc::crashDetected ||
                    recovery >= max_recoveries)
                    return count->error();
                if (auto recovered = recover(mv); !recovered.ok())
                    return recovered.error();
                Scope span(tracer, layers.count);
                board.resumeRun(jitter);
                count.emplace(board.tryCountDeviceFaults());
            }
            point.runCounts.push_back(static_cast<double>(count->value()));
        }
        {
            Scope span(tracer, layers.power);
            point.bramPowerW = board.measureBramPowerW();
        }
        for (int recovery = 0;; ++recovery) {
            bool crashed = false;
            {
                Scope span(tracer, layers.collect);
                board.startReferenceRun();
                const std::uint32_t brams = board.device().bramCount();
                point.perBramFaults.assign(brams, 0);
                harness::FaultSummary summary;
                std::vector<harness::FaultObservation> faults;
                for (std::uint32_t b = 0; b < brams && !crashed; ++b) {
                    std::optional<Expected<std::vector<std::uint64_t>>>
                        observed;
                    {
                        Scope read(tracer, layers.readback);
                        observed.emplace(board.tryReadBramPacked(b));
                    }
                    if (!observed->ok()) {
                        if (observed->code() != Errc::crashDetected)
                            return observed->error();
                        crashed = true;
                        break;
                    }
                    faults.clear();
                    harness::diffBram(board.device().bram(b),
                                      observed->value(), b, faults,
                                      summary);
                    point.perBramFaults[b] = static_cast<int>(faults.size());
                }
            }
            if (!crashed)
                break;
            if (recovery >= max_recoveries)
                return makeError(Errc::recoveryExhausted,
                                 "replay: reference readback kept crashing");
            if (auto recovered = recover(mv); !recovered.ok())
                return recovered.error();
        }
        points.push_back(std::move(point));
    }
    board.softReset();
    return points;
}

bool
samePoints(const std::vector<harness::SweepPoint> &replay,
           const harness::SweepResult &driver)
{
    if (replay.size() != driver.points.size())
        return false;
    for (std::size_t i = 0; i < replay.size(); ++i) {
        if (replay[i].vccBramMv != driver.points[i].vccBramMv ||
            replay[i].runCounts != driver.points[i].runCounts ||
            replay[i].perBramFaults != driver.points[i].perBramFaults)
            return false;
    }
    return true;
}

/** Memo hit, named as one: the same count at the same dose, repeated. */
double
memoHitNs()
{
    const auto &spec = fpga::findPlatform("VC707");
    pmbus::Board board(spec, pmbus::sharedChipModel(spec));
    harness::fillPattern(board, harness::PatternSpec::allOnes());
    board.setVccBramMv(spec.calib.bramVcrashMv);
    board.startRun();
    bench::doNotOptimize(board.countDeviceFaults()); // fills the memo
    constexpr int calls = 200000;
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i)
        bench::doNotOptimize(board.tryCountDeviceFaults());
    return msSince(start) * 1e6 / calls;
}

/** countDomainFaults over every domain at a fresh jittered voltage. */
double
domainCountUs(std::uint64_t seed)
{
    Rng rng(seed);
    double total_us = 0.0;
    int passes = 0;
    for (const auto &name : memDevices) {
        auto device = mem::makeDevice(name);
        device->fill(0xFFFF);
        const auto &traits = device->traits();
        for (int pass = 0; pass < 40; ++pass) {
            const double jitter_v =
                rng.uniform(-1.0, 1.0) * traits.runJitterMv / 1000.0;
            const double v = device->effectiveVoltage(
                traits.vcrashMv / 1000.0, 50.0, jitter_v);
            const auto start = Clock::now();
            std::uint64_t faults = 0;
            for (std::uint32_t d = 0; d < device->domainCount(); ++d)
                faults += static_cast<std::uint64_t>(
                    device->countDomainFaults(d, v));
            total_us += msSince(start) * 1e3;
            bench::doNotOptimize(faults);
            ++passes;
        }
    }
    return total_us / passes;
}

/** Timings and outcome of a phase of campaign units. */
struct CampaignTimes
{
    std::vector<double> unitMs; ///< BRAM (+ mem) campaign, one unit
    double bramMs = 0.0;        ///< sum of BRAM campaign walls
    double memMs = 0.0;         ///< sum of mem campaign walls
    std::uint64_t bramJobs = 0;
    std::uint64_t memJobs = 0;
    std::vector<double> bramCampaignMs;
    std::string bramDigest, memDigest;     ///< of the first campaign
    harness::ResilienceReport resilience; ///< of one BRAM campaign
    std::vector<double> setupS; ///< one synthesizeFleet after each unit
};

/**
 * Run campaign units until @a seconds have passed (at least three),
 * gating every result against the first one's digest. After each unit,
 * outside its timing, the fleet is synthesized once more: the set-up
 * samples then span the whole run, as the units do, so a short slow or
 * fast patch of the host moves their median no more than the units'.
 */
CampaignTimes
runCampaigns(ThreadPool &pool, const harness::Campaign &bram,
             const std::optional<harness::Campaign> &mem, double seconds,
             Report &report)
{
    CampaignTimes times;
    const std::size_t bram_jobs = bram.plan().jobs.size();
    const std::size_t mem_jobs = mem ? mem->plan().jobs.size() : 0;
    std::uint64_t bram_bad = 0, mem_bad = 0;
    std::string resilience_first;
    bool resilience_stable = true;
    const auto start = Clock::now();
    while (msSince(start) < seconds * 1e3 || times.unitMs.size() < 3) {
        const auto unit_start = Clock::now();
        auto bram_result = bram.run(pool);
        const double bram_ms = msSince(unit_start);
        double mem_ms = 0.0;
        std::optional<Expected<harness::FleetResult>> mem_result;
        if (mem) {
            const auto mem_start = Clock::now();
            mem_result.emplace(mem->run(pool));
            mem_ms = msSince(mem_start);
        }
        times.unitMs.push_back(bram_ms + mem_ms);
        times.bramCampaignMs.push_back(bram_ms);
        times.bramMs += bram_ms;
        times.memMs += mem_ms;
        times.bramJobs += bram_jobs;
        times.memJobs += mem_jobs;
        report.attempt(bram_jobs + mem_jobs);

        const auto setup_start = Clock::now();
        synthesizeFleet();
        times.setupS.push_back(msSince(setup_start) / 1e3);

        if (!bram_result.ok()) {
            report.gate("bram_campaign_ok", false, bram_jobs,
                        bram_result.error().message);
        } else {
            const std::string digest = fleetDigest(bram_result.value());
            if (times.bramDigest.empty())
                times.bramDigest = digest;
            else if (digest != times.bramDigest)
                bram_bad += bram_jobs;
            const std::string text =
                resilienceText(bram_result.value().resilience);
            if (resilience_first.empty()) {
                resilience_first = text;
                times.resilience = bram_result.value().resilience;
            } else if (text != resilience_first) {
                resilience_stable = false;
            }
        }
        if (mem_result) {
            if (!mem_result->ok()) {
                report.gate("mem_campaign_ok", false, mem_jobs,
                            mem_result->error().message);
            } else {
                const std::string digest = fleetDigest(mem_result->value());
                if (times.memDigest.empty())
                    times.memDigest = digest;
                else if (digest != times.memDigest)
                    mem_bad += mem_jobs;
            }
        }
    }
    report.gate("bram_campaigns_repeat_exactly", bram_bad == 0, bram_bad,
                "every campaign's statistics equal the first's");
    if (mem)
        report.gate("mem_campaigns_repeat_exactly", mem_bad == 0, mem_bad,
                    "every campaign's statistics equal the first's");
    report.gate("resilience_repeats_exactly", resilience_stable, 0,
                resilience_first);
    return times;
}

EndToEnd
campaignEndToEnd(const CampaignTimes &times)
{
    EndToEnd e2e;
    const double total_ms = times.bramMs + times.memMs;
    e2e.throughputPerS = static_cast<double>(times.bramJobs + times.memJobs) /
                         (total_ms / 1e3);
    e2e.latencyP50Ms = percentile(times.unitMs, 0.5);
    e2e.latencyTailMs = percentile(times.unitMs, 0.9);
    return e2e;
}

/** Serial per-job-shape driver + traced replay passes (traced mode). */
void
traceSweeps(const Args &args, const harness::Campaign &bram,
            const std::optional<harness::Campaign> &mem,
            const CampaignTimes &untraced, double seconds, Report &report)
{
    const harness::FleetPlan plan = bram.plan();
    Tracer tracer;
    const SweepLayers layers(tracer);
    const bool noisy = plan.jobs.front().noise.has_value();

    std::vector<double> driver_ms(plan.jobs.size(), 0.0);
    std::vector<double> replay_ms(plan.jobs.size(), 0.0);
    std::vector<double> bare_ms(plan.jobs.size(), 0.0);
    double quiet_ms = 0.0;
    std::uint64_t mismatched = 0;
    std::uint64_t passes = 0;
    const auto start = Clock::now();
    do {
        for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
            const harness::FleetJob &job = plan.jobs[j];
            const auto options = jobOptions(job);

            auto driver_board = jobBoard(job);
            auto t0 = Clock::now();
            auto driver = harness::tryRunCriticalSweep(*driver_board, options);
            driver_ms[j] += msSince(t0);

            auto replay_board = jobBoard(job);
            t0 = Clock::now();
            auto replay = replaySweep(*replay_board, options, &tracer, layers);
            replay_ms[j] += msSince(t0);

            // The same replay without spans: the baseline of the
            // tracing overhead.
            auto bare_board = jobBoard(job);
            t0 = Clock::now();
            auto bare = replaySweep(*bare_board, options, nullptr, layers);
            bare_ms[j] += msSince(t0);

            report.attempt(3);
            if (!driver.ok() || !replay.ok() || !bare.ok() ||
                !samePoints(replay.value(), driver.value()) ||
                !samePoints(bare.value(), driver.value()))
                ++mismatched;

            if (noisy) {
                harness::FleetJob quiet = job;
                quiet.noise.reset();
                auto quiet_board = jobBoard(quiet);
                t0 = Clock::now();
                auto clean =
                    harness::tryRunCriticalSweep(*quiet_board, options);
                quiet_ms += msSince(t0);
                if (!clean.ok() || !driver.ok() ||
                    sweepDigest(clean.value()) != sweepDigest(driver.value()))
                    ++mismatched;
            }
        }
        ++passes;
    } while (msSince(start) < seconds * 1e3);
    report.gate("replay_matches_driver", mismatched == 0, mismatched,
                "traced and untraced replay per-run counts and per-BRAM "
                "maps equal tryRunCriticalSweep's on every job shape");
    report.gate("named_layers_partition_spans.sweep",
                tracer.partitionsTopLevel(
                    {"pmbus.setpoint", "vmodel.device_count", "power.measure",
                     "harness.map_collect", "harness.watchdog"}),
                0,
                "the sweep split's layers are exactly the replay's "
                "top-level spans");
    if (!args.spansOut.empty())
        tracer.writeChromeTrace(args.spansOut, 50000);

    const double jobs = static_cast<double>(plan.jobs.size() * passes);
    double driver_total = 0.0, replay_total = 0.0, bare_total = 0.0;
    std::vector<double> replay_per_job, bare_per_job;
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
        driver_total += driver_ms[j];
        replay_total += replay_ms[j];
        bare_total += bare_ms[j];
        replay_per_job.push_back(replay_ms[j] / passes);
        bare_per_job.push_back(bare_ms[j] / passes);
    }
    const auto per_job = [&](const char *layer) {
        return tracer.busyMs(layer) / jobs;
    };
    const auto per_call_us = [&](const char *layer) {
        const auto calls = tracer.calls(layer);
        return calls ? tracer.busyMs(layer) * 1e3 / calls : 0.0;
    };
    const double named = per_job("pmbus.setpoint") +
                         per_job("vmodel.device_count") +
                         per_job("power.measure") +
                         per_job("harness.map_collect") +
                         per_job("harness.watchdog");
    // The replay's self time outside the named layers is the unit's
    // residual; it is kept under both names so every unit has a
    // *.residual_ms row. harness.sweep_ms is the driver's own time.
    report.layer("sweep.wall_ms", replay_total / jobs);
    report.layer("sweep.residual_ms", replay_total / jobs - named);
    report.layer("harness.sweep_self_ms", replay_total / jobs - named);
    report.layer("harness.sweep_ms", driver_total / jobs);
    report.layer("harness.map_collect_ms", per_job("harness.map_collect"));
    report.layer("harness.watchdog_ms", per_job("harness.watchdog"));
    report.layer("pmbus.setpoint.busy_ms", per_job("pmbus.setpoint"));
    report.layer("pmbus.setpoint.calls",
                 tracer.calls("pmbus.setpoint") / jobs);
    report.layer("pmbus.setpoint_us", per_call_us("pmbus.setpoint"));
    report.layer("pmbus.readback_us", per_call_us("pmbus.readback"));
    report.layer("pmbus.readback.calls",
                 tracer.calls("pmbus.readback") / jobs);
    report.layer("power.measure_us", per_call_us("power.measure"));
    report.layer("power.measure.busy_ms", per_job("power.measure"));
    report.layer("vmodel.device_count_us",
                 per_call_us("vmodel.device_count"));
    report.layer("vmodel.device_count.busy_ms",
                 per_job("vmodel.device_count"));
    report.layer("vmodel.device_count.calls",
                 tracer.calls("vmodel.device_count") / jobs);
    report.layer("vmodel.device_count_memo_hit_ns", memoHitNs());
    if (noisy)
        report.layer("harness.recovery_ms", (driver_total - quiet_ms) / jobs);

    // Parallel efficiency of the fleet engine: serial job time over
    // worker-time of the untraced campaigns.
    const double serial_campaign_ms = driver_total / passes;
    report.layer("harness.fleet_parallel_eff",
                 serial_campaign_ms /
                     (static_cast<double>(hostWorkers()) *
                      percentile(untraced.bramCampaignMs, 0.5)));

    EndToEnd untraced_jobs, traced_jobs;
    untraced_jobs.throughputPerS = jobs / (bare_total / 1e3);
    untraced_jobs.latencyP50Ms = percentile(bare_per_job, 0.5);
    untraced_jobs.latencyTailMs = percentile(bare_per_job, 0.9);
    traced_jobs.throughputPerS = jobs / (replay_total / 1e3);
    traced_jobs.latencyP50Ms = percentile(replay_per_job, 0.5);
    traced_jobs.latencyTailMs = percentile(replay_per_job, 0.9);
    reportTraceOverhead(report, untraced_jobs, traced_jobs);

    if (mem) {
        // The backend sweep of each mem job, called directly with the
        // fleet engine's options, must reproduce the campaign's result.
        const harness::FleetPlan mem_plan = mem->plan();
        double sweep_ms = 0.0;
        std::uint64_t bad = 0;
        auto campaign = mem->run();
        for (std::size_t j = 0; j < mem_plan.jobs.size(); ++j) {
            const auto &job = mem_plan.jobs[j];
            auto device = mem::makeDevice(job.platform);
            harness::fillMemPattern(*device, job.pattern);
            mem::MemSweepOptions options;
            options.runsPerLevel = runsPerLevel;
            options.ambientC = job.ambientC;
            options.collectPerDomain = true;
            options.seed = hashSeed(job.label());
            const auto t0 = Clock::now();
            const auto result = mem::runMemSweep(*device, options);
            sweep_ms += msSince(t0);
            report.attempt(1);
            if (!campaign.ok() ||
                sweepDigest(harness::sweepFromMem(result, job.pattern)) !=
                    sweepDigest(campaign.value().jobs[j].sweep))
                ++bad;
        }
        report.gate("mem_sweep_matches_campaign", bad == 0, bad);
        report.layer("mem.sweep_ms", sweep_ms / mem_plan.jobs.size());
        report.layer("mem.domain_count_us", domainCountUs(args.seed));
        report.layer("mem.jobs_per_s",
                     static_cast<double>(untraced.memJobs) /
                         (untraced.memMs / 1e3));
    }
}

void
runSweep(const Args &args, Report &report, bool harsh)
{
    std::optional<pmbus::NoiseConfig> noise;
    if (harsh)
        noise = pmbus::NoiseConfig::harsh(args.seed, harshProbability);
    const harness::Campaign bram = bramCampaign(noise);
    std::optional<harness::Campaign> mem;
    if (!harsh)
        mem = memCampaign();

    ThreadPool pool(hostWorkers());
    // Warm-up: fills the shared chip-model cache and first-touch pages.
    (void)bram.run(pool);
    if (mem)
        (void)mem->run(pool);

    const double untraced_s = args.trace ? args.seconds * 0.4 : args.seconds;
    const CampaignTimes times =
        runCampaigns(pool, bram, mem, untraced_s, report);
    const harness::ResilienceReport &resilience = times.resilience;
    const std::uint64_t units = times.unitMs.size();
    report.digest("fleet_bram", times.bramDigest,
                  bram.plan().jobs.size() * units);
    if (mem)
        report.digest("fleet_mem", times.memDigest,
                      mem->plan().jobs.size() * units);
    report.info("campaigns", std::to_string(units));
    report.info("resilience_per_campaign",
                jsonString(resilienceText(resilience)));
    report.info("bram_campaign_ms_p50",
                jsonNumber(percentile(times.bramCampaignMs, 0.5)));
    if (mem)
        report.info("mem_jobs_per_s",
                    jsonNumber(times.memJobs / (times.memMs / 1e3)));

    if (!args.trace) {
        reportEndToEnd(report, median(times.setupS),
                       campaignEndToEnd(times));
        return;
    }
    report.layer("harness.crash_recoveries",
                 static_cast<double>(resilience.crashRecoveries));
    report.layer("harness.runs_retried",
                 static_cast<double>(resilience.runsRetried));
    report.layer("harness.checkpoint_resumes",
                 static_cast<double>(resilience.checkpointResumes));
    report.layer("pmbus.link_retransmits",
                 static_cast<double>(resilience.linkRetransmits));
    report.layer("pmbus.pmbus_retries",
                 static_cast<double>(resilience.pmbusRetries));
    traceSweeps(args, bram, mem, times, args.seconds * 0.6, report);
}

} // namespace

void
runSweepFleet(const Args &args, Report &report)
{
    runSweep(args, report, false);
}

void
runSweepHarsh(const Args &args, Report &report)
{
    runSweep(args, report, true);
}

} // namespace perfbench
