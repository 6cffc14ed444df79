/**
 * @file
 * serve_open: UvoltServer under an open loop.
 *
 * One generator thread sends on a seeded Poisson schedule at three
 * fixed offered rates, one phase per rate; one collector thread waits
 * on the futures. The server runs 2 workers. Requests classify 8
 * forest-like samples on the fixed 54-16-7 net at 850 mV; one request
 * in 64 characterizes ZC702 or KC705-A at 3 runs/level. Every request
 * carries a fixed deadline, and every payload is generated during
 * set-up.
 *
 * Latency is client-side: from the request's scheduled send time until
 * its future is ready, so a stalled generator or server is charged to
 * every request it delayed. A phase whose backlog grows, whose
 * generator ran late, or that lost a request is over capacity.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hh"
#include "data/synthetic.hh"
#include "serve/server.hh"
#include "util/format.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using namespace uvolt;

/** Offered rates of the three phases, requests per second. */
constexpr double phaseRates[] = {1200.0, 3200.0, 4000.0};
/** Share of the measured time each phase gets. */
constexpr double phaseShare[] = {0.25, 0.5, 0.25};
constexpr std::size_t middlePhase = 1;

constexpr double latencyLimitMs = 100.0;  ///< classify p99 limit
constexpr double lateLimitMs = 20.0;      ///< generator lateness p99
constexpr int latencyWindows = 5; ///< middle-phase windows (see below)
constexpr int characterizeEvery = 64;
constexpr std::size_t classifySamples = 8;
constexpr int classifySetpointMv = 850;
constexpr double classifyDeadlineMs = 1000.0;
constexpr double characterizeDeadlineMs = 5000.0;
constexpr int characterizeRuns = 3;
constexpr std::size_t payloadCount = 2048;
const char *const characterizePlatforms[] = {"ZC702", "KC705-A"};

std::shared_ptr<const nn::Network>
fixedNet()
{
    // The same small classifier ext_serve and serve_demo serve.
    auto net = std::make_shared<nn::Network>(
        std::vector<int>{data::forestFeatures, 16, data::forestClasses});
    net->initWeights(42);
    return net;
}

/** Payloads, their expected answers, and the direct-call costs. */
struct ServeInputs
{
    std::shared_ptr<const nn::Network> net;
    std::vector<std::vector<float>> payloads;
    std::vector<std::vector<int>> expectedClasses;
    double directClassifyMs = 0.0; ///< median Network::classify x 8
    std::vector<std::string> expectedSweeps; ///< per platform
    std::vector<double> directCharacterizeMs; ///< per platform
};

harness::SweepOptions
characterizeOptions()
{
    harness::SweepOptions options;
    options.runsPerLevel = characterizeRuns;
    options.collectPerBram = true;
    return options;
}

ServeInputs
buildInputs(std::uint64_t seed)
{
    ServeInputs inputs;
    inputs.net = fixedNet();
    const data::Dataset set =
        data::makeForestLike(payloadCount * classifySamples, seed);
    std::vector<double> direct_ms;
    for (std::size_t p = 0; p < payloadCount; ++p) {
        const auto rows = set.samples(p * classifySamples, classifySamples);
        inputs.payloads.emplace_back(rows.begin(), rows.end());
        std::vector<int> classes;
        const auto start = Clock::now();
        for (std::size_t s = 0; s < classifySamples; ++s)
            classes.push_back(inputs.net->classify(
                set.sample(p * classifySamples + s)));
        direct_ms.push_back(msSince(start));
        inputs.expectedClasses.push_back(std::move(classes));
    }
    inputs.directClassifyMs = median(direct_ms);

    for (const char *name : characterizePlatforms) {
        const auto &spec = fpga::findPlatform(name);
        pmbus::Board board(spec, pmbus::sharedChipModel(spec));
        const auto start = Clock::now();
        const auto sweep =
            harness::tryRunCriticalSweep(board, characterizeOptions());
        inputs.directCharacterizeMs.push_back(msSince(start));
        inputs.expectedSweeps.push_back(
            sweep.ok() ? sweepDigest(sweep.value()) : "sweep failed");
    }
    return inputs;
}

/** Thread ids of this process. */
std::vector<pid_t>
threadIds()
{
    std::vector<pid_t> ids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ids.push_back(static_cast<pid_t>(
            std::stol(entry.path().filename().string())));
    return ids;
}

/**
 * Pin thread @a tid (0 = the caller) to the @a slots-th CPUs this
 * process may use. The client's two threads and the server's workers
 * then never share a CPU, which keeps run-to-run thread placement from
 * moving the latency figures. No-op below four CPUs.
 */
void
pinThread(pid_t tid, std::initializer_list<std::size_t> slots)
{
    cpu_set_t allowed;
    if (hostWorkers() < 4 || sched_getaffinity(0, sizeof allowed, &allowed))
        return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t slot : slots)
        CPU_SET(cpus[slot], &set);
    sched_setaffinity(tid, sizeof set, &set);
}

/** One scheduled request of a phase. */
struct Scheduled
{
    double atS;         ///< offset from the phase start
    bool characterize;
    std::size_t payload; ///< payload index, or platform index
};

std::vector<Scheduled>
schedule(std::uint64_t seed, std::size_t phase, double seconds)
{
    Rng rng(combineSeeds(seed, phase + 1));
    const double rate = phaseRates[phase];
    const auto offset = rng.uniformInt(0, characterizeEvery - 1);
    std::vector<Scheduled> requests;
    double t = 0.0;
    for (std::size_t i = 0;; ++i) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        const bool characterize = (i + offset) % characterizeEvery == 0;
        requests.push_back(
            {t, characterize,
             characterize ? (i / characterizeEvery) %
                                std::size(characterizePlatforms)
                          : rng.uniformInt(0, payloadCount - 1)});
    }
    return requests;
}

/** A submitted request the collector waits on. */
struct InFlight
{
    Clock::time_point due;
    Scheduled request;
    std::future<Expected<serve::ClassifyResponse>> classify;
    std::future<Expected<serve::CharacterizeResponse>> characterize;
};

/** What the collector observed for one phase. */
struct Observed
{
    std::vector<std::pair<double, double>> classifyMs; ///< (due s, ms)
    std::vector<double> characterizeMs;
    /** Each characterize latency minus its platform's direct sweep. */
    std::vector<double> characterizeOverheadMs;
    std::uint64_t errors = 0;     ///< futures resolved with an Error
    std::uint64_t mismatches = 0; ///< answers differing from direct
    std::uint64_t resolved = 0;
    Clock::time_point lastDone;
};

/**
 * The collector thread: waits on the oldest classify future (classify
 * completes in near-FIFO order) in 200 us slices, polls every
 * characterize future between waits, and stamps each completion when
 * it is seen ready, so a stamp includes this thread's wake-up.
 */
class Collector
{
  public:
    explicit Collector(const ServeInputs &inputs) : inputs_(inputs)
    {
        thread_ = std::thread([this] {
            pinThread(0, {1});
            loop();
        });
    }

    ~Collector()
    {
        {
            std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    push(InFlight item)
    {
        {
            std::lock_guard lock(mutex_);
            incoming_.push_back(std::move(item));
        }
        wake_.notify_one();
    }

    std::uint64_t resolved() const { return resolved_.load(); }

    /** Start a new phase; the previous one's observations come back. */
    Observed
    take(Clock::time_point phase_start)
    {
        std::lock_guard lock(resultMutex_);
        Observed out = std::move(observed_);
        observed_ = Observed{};
        phaseStart_ = phase_start;
        return out;
    }

  private:
    void
    record(InFlight &item)
    {
        const auto now = Clock::now();
        const double ms = msBetween(item.due, now);
        std::lock_guard lock(resultMutex_);
        if (item.request.characterize) {
            auto result = item.characterize.get();
            if (!result.ok()) {
                ++observed_.errors;
            } else if (sweepDigest(result.value().sweep) !=
                       inputs_.expectedSweeps[item.request.payload]) {
                ++observed_.mismatches;
            } else {
                observed_.characterizeMs.push_back(ms);
                observed_.characterizeOverheadMs.push_back(
                    ms - inputs_.directCharacterizeMs[item.request.payload]);
            }
        } else {
            auto result = item.classify.get();
            if (!result.ok())
                ++observed_.errors;
            else if (result.value().classes !=
                     inputs_.expectedClasses[item.request.payload])
                ++observed_.mismatches;
            else
                observed_.classifyMs.emplace_back(
                    msBetween(phaseStart_, item.due) / 1e3, ms);
        }
        ++observed_.resolved;
        observed_.lastDone = now;
        resolved_.fetch_add(1);
    }

    void
    loop()
    {
        std::deque<InFlight> classifies;
        std::vector<InFlight> characterizes;
        for (;;) {
            // Block only when nothing is in flight; otherwise take new
            // arrivals only when the generator is not pushing.
            std::unique_lock lock(mutex_, std::defer_lock);
            if (classifies.empty() && characterizes.empty()) {
                lock.lock();
                wake_.wait(lock, [&] {
                    return stopping_ || !incoming_.empty();
                });
                if (incoming_.empty())
                    return; // stopping with nothing in flight
            } else {
                (void)lock.try_lock();
            }
            if (lock.owns_lock()) {
                for (auto &item : incoming_) {
                    if (item.request.characterize)
                        characterizes.push_back(std::move(item));
                    else
                        classifies.push_back(std::move(item));
                }
                incoming_.clear();
                lock.unlock();
            }
            const auto slice = std::chrono::microseconds(200);
            if (!classifies.empty()) {
                if (classifies.front().classify.wait_for(slice) ==
                    std::future_status::ready) {
                    record(classifies.front());
                    classifies.pop_front();
                }
            } else if (!characterizes.empty()) {
                characterizes.front().characterize.wait_for(slice);
            }
            for (auto it = characterizes.begin(); it != characterizes.end();) {
                if (it->characterize.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    record(*it);
                    it = characterizes.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }

    const ServeInputs &inputs_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<InFlight> incoming_;
    bool stopping_ = false;
    std::atomic<std::uint64_t> resolved_{0};
    std::mutex resultMutex_;
    Observed observed_;
    Clock::time_point phaseStart_;
    std::thread thread_;
};

/** One phase's figures. */
struct PhaseResult
{
    double rate = 0.0;
    double scheduledS = 0.0; ///< the schedule's length
    std::uint64_t sent = 0;
    std::uint64_t refused = 0;
    std::uint64_t unanswered = 0; ///< still pending at the drain deadline
    Observed observed;
    double wallS = 0.0;
    std::vector<double> lateMs;
    std::vector<double> admitUs;
    double backlogGrowth = 0.0;
    std::size_t queueDepthMax = 0;
    serve::ServerStats before, after;

    double
    classifyPercentile(double p) const
    {
        std::vector<double> ms;
        for (const auto &[due, latency] : observed.classifyMs)
            ms.push_back(latency);
        return percentile(ms, p);
    }

    /**
     * The percentile in each of @a windows equal slices of the phase
     * (by scheduled send time), and the median of those: one burst of
     * host noise moves one window, not the figure.
     */
    std::vector<double>
    windowPercentiles(double p, int windows) const
    {
        std::vector<std::vector<double>> slices(
            static_cast<std::size_t>(windows));
        const double span = std::max(1e-9, scheduledS);
        for (const auto &[due, latency] : observed.classifyMs) {
            const auto w = std::min<std::size_t>(
                slices.size() - 1,
                static_cast<std::size_t>(due / span * windows));
            slices[w].push_back(latency);
        }
        std::vector<double> per_window;
        for (auto &slice : slices) {
            if (!slice.empty())
                per_window.push_back(percentile(std::move(slice), p));
        }
        return per_window;
    }

    double
    windowedClassifyPercentile(double p, int windows) const
    {
        return median(windowPercentiles(p, windows));
    }

    /** Requests that missed the limit by failing. */
    std::uint64_t
    failures() const
    {
        return refused + unanswered + observed.errors + observed.mismatches;
    }

    bool
    backlogGrows() const
    {
        return backlogGrowth > 0.0;
    }

    bool
    generatorLate() const
    {
        return percentile(lateMs, 0.99) > lateLimitMs;
    }

    bool
    withinCapacity() const
    {
        return failures() == 0 && !backlogGrows() && !generatorLate() &&
               classifyPercentile(0.99) <= latencyLimitMs;
    }

    /** Answered with a value equal to the direct call's. */
    std::uint64_t
    succeeded() const
    {
        return observed.resolved - observed.errors - observed.mismatches;
    }

    double
    servedPerS() const
    {
        return static_cast<double>(succeeded()) / wallS;
    }
};

/**
 * Backlog trend: mean outstanding requests over the last quarter of the
 * phase minus the first quarter. Grows when the rise exceeds both 16
 * requests and the first quarter's own level; 0 otherwise.
 */
double
backlogGrowth(const std::vector<double> &outstanding)
{
    const std::size_t quarter = outstanding.size() / 4;
    if (quarter == 0)
        return 0.0;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
        first += outstanding[i];
        last += outstanding[outstanding.size() - 1 - i];
    }
    first /= quarter;
    last /= quarter;
    const double rise = last - first;
    return rise > std::max(16.0, first) ? rise : 0.0;
}

PhaseResult
runPhase(serve::UvoltServer &server, Collector &collector,
         const ServeInputs &inputs, const std::vector<Scheduled> &requests,
         double rate, bool traced)
{
    PhaseResult phase;
    phase.rate = rate;
    phase.scheduledS = requests.empty() ? 0.0 : requests.back().atS;
    phase.before = server.stats();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    (void)collector.take(start);
    const std::uint64_t resolved_before = collector.resolved();
    std::vector<double> outstanding;
    outstanding.reserve(requests.size());
    for (const Scheduled &scheduled : requests) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(scheduled.atS));
        std::this_thread::sleep_until(due);
        phase.lateMs.push_back(msSince(due));

        InFlight item;
        item.due = due;
        item.request = scheduled;
        const auto submit_start = Clock::now();
        bool admitted = false;
        if (scheduled.characterize) {
            serve::CharacterizeRequest request;
            request.platform = characterizePlatforms[scheduled.payload];
            request.runsPerLevel = characterizeRuns;
            request.deadlineMs = characterizeDeadlineMs;
            auto future = server.submitCharacterize(std::move(request));
            if ((admitted = future.ok()))
                item.characterize = future.take();
        } else {
            serve::ClassifyRequest request;
            request.samples = inputs.payloads[scheduled.payload];
            request.sampleCount = classifySamples;
            request.setpointMv = classifySetpointMv;
            request.deadlineMs = classifyDeadlineMs;
            auto future = server.submitClassify(std::move(request));
            if ((admitted = future.ok()))
                item.classify = future.take();
        }
        if (traced) {
            phase.admitUs.push_back(msSince(submit_start) * 1e3);
            phase.queueDepthMax =
                std::max(phase.queueDepthMax, server.queueDepth());
        }
        ++phase.sent;
        if (!admitted) {
            ++phase.refused;
        } else {
            collector.push(std::move(item));
        }
        outstanding.push_back(static_cast<double>(
            phase.sent - phase.refused -
            (collector.resolved() - resolved_before)));
    }
    // Let the phase's last requests finish before reading the stats.
    const auto drain_deadline = Clock::now() + std::chrono::seconds(30);
    while (collector.resolved() - resolved_before <
               phase.sent - phase.refused &&
           Clock::now() < drain_deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    phase.unanswered = phase.sent - phase.refused -
                       (collector.resolved() - resolved_before);
    phase.observed = collector.take(Clock::now());
    phase.wallS = msBetween(start, phase.observed.lastDone) / 1e3;
    phase.after = server.stats();
    phase.backlogGrowth = backlogGrowth(outstanding);
    return phase;
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += std::string(i ? "," : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
phaseJson(const PhaseResult &phase)
{
    return strFormat(
        "{{\"rate_rps\":{},\"sent\":{},\"succeeded\":{},\"refused\":{},"
        "\"unanswered\":{},\"errors\":{},\"mismatches\":{},"
        "\"served_per_s\":{},\"classify_ms_p50\":{},"
        "\"classify_ms_p99\":{},\"classify_samples\":{},"
        "\"characterize_ms_p50\":{},\"characterize_samples\":{},"
        "\"generator_late_ms_p99\":{},\"backlog_growth\":{},"
        "\"classify_ms_p50_windows\":{},\"classify_ms_p99_windows\":{},"
        "\"classify_ms_p50_p75_p90_p95_p99\":[{},{},{},{},{}],"
        "\"over_capacity\":{}}}",
        jsonNumber(phase.rate), phase.sent, phase.succeeded(), phase.refused,
        phase.unanswered, phase.observed.errors, phase.observed.mismatches,
        jsonNumber(phase.servedPerS()),
        jsonNumber(phase.classifyPercentile(0.5)),
        jsonNumber(phase.classifyPercentile(0.99)),
        phase.observed.classifyMs.size(),
        jsonNumber(percentile(phase.observed.characterizeMs, 0.5)),
        phase.observed.characterizeMs.size(),
        jsonNumber(percentile(phase.lateMs, 0.99)),
        jsonNumber(phase.backlogGrowth),
        jsonArray(phase.windowPercentiles(0.5, latencyWindows)),
        jsonArray(phase.windowPercentiles(0.99, latencyWindows)),
        jsonNumber(phase.classifyPercentile(0.5)),
        jsonNumber(phase.classifyPercentile(0.75)),
        jsonNumber(phase.classifyPercentile(0.9)),
        jsonNumber(phase.classifyPercentile(0.95)),
        jsonNumber(phase.classifyPercentile(0.99)),
        phase.withinCapacity() ? "false" : "true");
}

/** Three phases light -> heavy; the end-to-end figures they give. */
EndToEnd
runPhases(serve::UvoltServer &server, Collector &collector,
          const ServeInputs &inputs, std::uint64_t seed, double seconds,
          bool traced, std::vector<PhaseResult> &phases, Report &report)
{
    for (std::size_t p = 0; p < std::size(phaseRates); ++p) {
        const auto requests = schedule(seed, p, seconds * phaseShare[p]);
        phases.push_back(runPhase(server, collector, inputs, requests,
                                  phaseRates[p], traced));
        const PhaseResult &phase = phases.back();
        report.attempt(phase.sent);
        report.gate(strFormat("answers_equal_direct.{}rps",
                              static_cast<int>(phase.rate)),
                    phase.observed.mismatches == 0,
                    phase.observed.mismatches,
                    "every served classify/characterize equals the "
                    "direct Network::classify / tryRunCriticalSweep");
        // Only the lightest rate must lose nothing. A heavier phase that
        // refuses, fails or leaves requests unanswered is over capacity:
        // its counts go to the phases document, not to a gate.
        if (p == 0)
            report.gate(strFormat("no_lost_requests.{}rps",
                                  static_cast<int>(phase.rate)),
                        phase.failures() == phase.observed.mismatches,
                        phase.failures() - phase.observed.mismatches,
                        "refused, failed or unanswered requests");
        if (!phase.withinCapacity())
            std::fprintf(stderr,
                         "perfbench: serve phase at %.0f rps is over "
                         "capacity: %s\n",
                         phase.rate, phaseJson(phase).c_str());
    }
    EndToEnd e2e;
    const PhaseResult &middle = phases[middlePhase];
    e2e.latencyP50Ms =
        middle.windowedClassifyPercentile(0.5, latencyWindows);
    e2e.latencyTailMs =
        middle.windowedClassifyPercentile(0.99, latencyWindows);
    // The highest offered rate met within capacity, as served; the
    // lightest phase's served rate when none was.
    e2e.throughputPerS = phases.front().servedPerS();
    for (const auto &phase : phases) {
        if (phase.withinCapacity())
            e2e.throughputPerS = phase.servedPerS();
    }
    return e2e;
}

/** Everything one server's lifetime produced. */
struct ServeSession
{
    std::vector<PhaseResult> untraced, traced;
    EndToEnd e2eUntraced, e2eTraced;
    serve::ServerStats finalStats;
};

/**
 * One server: a warm-up at the light rate, then the untraced and the
 * traced phase sets (either may be 0 s long), then drain, and the
 * exactly-once ledger gate.
 */
ServeSession
serveSession(const ServeInputs &inputs, std::uint64_t seed, double warmup_s,
             double untraced_s, double traced_s, Report &report)
{
    serve::ServerConfig config;
    config.workers = 2;
    config.queueCapacity = 4096;
    config.blackboxDir = ""; // no flight-recorder dumps
    config.seed = seed;
    const auto net = inputs.net;
    config.modelProvider =
        [net](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return net;
    };

    ServeSession session;
    std::size_t final_depth = 0;
    std::uint64_t sent = 0, resolved = 0;
    {
        // CPU 0: generator, 1: collector, 2-3: the server's workers
        // (the threads its constructor starts).
        const auto before = threadIds();
        serve::UvoltServer server(config);
        for (pid_t tid : threadIds()) {
            if (std::find(before.begin(), before.end(), tid) == before.end())
                pinThread(tid, {2, 3});
        }
        Collector collector(inputs);
        pinThread(0, {0});
        std::vector<PhaseResult> warmup;
        runPhases(server, collector, inputs, seed ^ 0x5eed, warmup_s, false,
                  warmup, report);
        if (untraced_s > 0.0)
            session.e2eUntraced =
                runPhases(server, collector, inputs, seed, untraced_s, false,
                          session.untraced, report);
        if (traced_s > 0.0)
            session.e2eTraced =
                runPhases(server, collector, inputs, seed, traced_s, true,
                          session.traced, report);
        server.drain();
        session.finalStats = server.stats();
        final_depth = server.queueDepth();
        for (const auto *list : {&warmup, &session.untraced, &session.traced}) {
            for (const auto &phase : *list)
                sent += phase.sent - phase.refused;
        }
        // drain() has answered every admitted future; give the
        // collector time to pick the last ones up.
        const auto collect_deadline = Clock::now() + std::chrono::seconds(30);
        while (collector.resolved() < sent && Clock::now() < collect_deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        resolved = collector.resolved();
        server.stop();
    }
    // The exactly-once ledger: everything admitted was answered once.
    // It holds at any load (requests that fail under overload are in
    // stats.failed; refused ones were never admitted), so it is gated
    // over every phase.
    const auto &stats = session.finalStats;
    report.gate("ledger_balances",
                stats.admitted == stats.completed + stats.failed &&
                    final_depth == 0 && stats.admitted == sent &&
                    resolved == sent,
                0,
                strFormat("admitted={} completed={} failed={} depth={} "
                          "client_sent={} client_resolved={}",
                          stats.admitted, stats.completed, stats.failed,
                          final_depth, sent, resolved));
    return session;
}

/** The serve layer's rows, from the traced middle phase. */
void
reportServeLayers(const ServeInputs &inputs, const ServeSession &session,
                  Report &report)
{
    const PhaseResult &middle = session.traced[middlePhase];
    double wall_ms = 0.0;
    for (const auto &[due, ms] : middle.observed.classifyMs)
        wall_ms += ms;
    wall_ms /= std::max<std::size_t>(1, middle.observed.classifyMs.size());
    double admit_ms = 0.0;
    for (double us : middle.admitUs)
        admit_ms += us / 1e3;
    admit_ms /= std::max<std::size_t>(1, middle.admitUs.size());
    const auto &stats = session.finalStats;
    report.layer("request.wall_ms", wall_ms);
    report.layer("request.residual_ms",
                 wall_ms - admit_ms - inputs.directClassifyMs);
    report.layer("serve.admit.busy_ms", admit_ms);
    report.layer("serve.direct_ms", inputs.directClassifyMs);
    report.layer("serve.admit_us_p50", median(middle.admitUs));
    report.layer("serve.overhead_ms_p50", middle.classifyPercentile(0.5) -
                                              inputs.directClassifyMs);
    report.layer("serve.characterize_ms_p50",
                 percentile(middle.observed.characterizeMs, 0.5));
    report.layer("serve.characterize_ms_p90",
                 percentile(middle.observed.characterizeMs, 0.9));
    report.layer("serve.characterize_overhead_ms_p50",
                 percentile(middle.observed.characterizeOverheadMs, 0.5));
    report.layer("serve.coalesced_per_1k",
                 1000.0 *
                     static_cast<double>(middle.after.coalescedBlocks -
                                         middle.before.coalescedBlocks) /
                     std::max<double>(1.0, middle.observed.classifyMs.size()));
    report.layer("serve.queue_depth_max",
                 static_cast<double>(middle.queueDepthMax));
    report.layer("serve.retried", static_cast<double>(stats.retried));
    report.layer("serve.rejected", static_cast<double>(stats.rejected));
    report.layer("serve.shed", static_cast<double>(stats.shed));
    report.layer("serve.deadline_exceeded",
                 static_cast<double>(stats.deadlineExceeded));
    report.layer("serve.generator_late_ms_p99",
                 percentile(middle.lateMs, 0.99));
    report.layer("serve.backlog_growth", middle.backlogGrowth);
}

void
reportServeDigest(const ServeInputs &inputs, Report &report)
{
    Digest characterize;
    for (const auto &digest : inputs.expectedSweeps)
        characterize.add(digest);
    report.digest("serve_characterize", characterize.hex(),
                  inputs.expectedSweeps.size());
}

} // namespace

void
runServeOpen(const Args &args, Report &report)
{
    std::optional<ServeInputs> inputs;
    const double setup_s = medianSetupSeconds(
        5, [&] { inputs.emplace(buildInputs(args.seed)); });
    const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
    const ServeSession session =
        serveSession(*inputs, args.seed, 0.1 * args.seconds, measured_s,
                     args.trace ? measured_s : 0.0, report);

    std::string phases_json = "[";
    for (std::size_t i = 0; i < session.untraced.size(); ++i)
        phases_json +=
            std::string(i ? "," : "") + phaseJson(session.untraced[i]);
    report.info("phases", phases_json + "]");
    report.info("latency_limit_ms", jsonNumber(latencyLimitMs));
    reportServeDigest(*inputs, report);

    if (!args.trace) {
        reportEndToEnd(report, setup_s, session.e2eUntraced);
        return;
    }
    reportServeLayers(*inputs, session, report);
    reportTraceOverhead(report, session.e2eUntraced, session.e2eTraced);
}

void
traceServeLayer(const Args &args, double seconds, Report &report)
{
    const ServeInputs inputs = buildInputs(args.seed);
    reportServeDigest(inputs, report);
    const ServeSession session =
        serveSession(inputs, args.seed, 0.1 * seconds, 0.0, seconds, report);
    reportServeLayers(inputs, session, report);
}

} // namespace perfbench
