/**
 * @file
 * Undervolting-as-a-service: a long-running in-process serving daemon
 * in front of the characterization harness and the batched inference
 * engine.
 *
 * The paper's premise — operating reliably *below* the guardband — is a
 * service-level contract once traffic is continuous: a fault storm
 * (PMBus NACKs, setpoint mis-latches, spurious crashes; everything the
 * PR 1 injector models) must degrade the service gracefully, never drop
 * or corrupt client work. UvoltServer enforces that contract with:
 *
 *  - Admission control. A bounded MPMC queue; a full queue rejects
 *    with Errc::queueFull immediately — callers are never blocked
 *    unboundedly behind a characterization campaign.
 *  - Deadlines. Per-request deadlines are checked cooperatively at
 *    sweep-level granularity (characterize runs as maxLevels=1 slices,
 *    each continuing the last on the same live board or device) and at
 *    batch-block granularity (classify blocks), so an expired request
 *    stops consuming the board promptly.
 *  - Retries. Transient fault classes (crash-detected, link/PMBus/
 *    verify/recovery exhausted) are retried with exponential backoff
 *    plus seeded jitter. Requests are idempotent by construction:
 *    every characterize derives its seed from the PR 4 config-digest
 *    of its own shape, so a retry (or a resubmission after a restart)
 *    replays the identical campaign — and the PR 1 masking guarantee
 *    makes the result bit-identical with the injector on or off.
 *  - Coalescing. Concurrent classify requests at the same operating
 *    point are packed into forwardBatch-sized blocks (scatter-gather,
 *    no staging copies) and share one FvmCache across tenants.
 *  - Graceful degradation. A sliding-window health score fed from the
 *    retry/recovery accounting (and GovernorHealth via pressureOf())
 *    sheds low-priority work and raises the operating setpoint toward
 *    the safe region under sustained fault pressure, then ramps back
 *    down when healthy — see serve/health.hh.
 *  - Lifecycle. start (construction) / drain / stop. An in-flight
 *    characterize cancelled by stop() ends at its next slice boundary;
 *    resubmitted to a later server, the same request shape measures
 *    again from its first level and answers the same bits.
 *  - Telemetry. serve.* counters (admitted/rejected/deadline_exceeded/
 *    retried/degraded/completed/failed), a queue-depth gauge,
 *    queue-wait and end-to-end latency histograms, and a trace span
 *    per request.
 */

#ifndef UVOLT_SERVE_SERVER_HH
#define UVOLT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "harness/experiment.hh"
#include "harness/fleet.hh"
#include "nn/network.hh"
#include "pmbus/fault_injector.hh"
#include "serve/health.hh"
#include "serve/request_queue.hh"
#include "util/error.hh"
#include "util/profiler.hh"
#include "util/telemetry.hh"

namespace uvolt::serve
{

/** Work classes the degradation path distinguishes. */
enum class Priority
{
    low,    ///< sheddable under fault pressure
    normal, ///< served in every state
};

/**
 * Admission's cap on CharacterizeRequest::runsPerLevel: a hundred
 * times the paper's 100 runs per level. The sweep sizes per-level
 * buffers from the request, so an absurd count is refused up front.
 */
inline constexpr int maxRunsPerLevel = 10000;

/**
 * Admission's cap on ClassifyRequest::sampleCount: far above the few
 * dozen samples a tenant sends per request. The server sizes per-request
 * answer buffers from the count, so an absurd count is refused up
 * front.
 */
inline constexpr std::size_t maxSamplesPerRequest = 65536;

/** Run a Listing-1 characterization campaign for a tenant. */
struct CharacterizeRequest
{
    std::string platform;       ///< catalog name, e.g. "VC707"
    harness::PatternSpec pattern = harness::PatternSpec::allOnes();
    double ambientC = 50.0;
    int runsPerLevel = 5;
    Priority priority = Priority::normal;
    double deadlineMs = 0.0;    ///< from admission; 0 = none
};

struct CharacterizeResponse
{
    harness::SweepResult sweep; ///< resilience sums every slice
    int attempts = 1;           ///< serve-level tries consumed
};

/** Classify a batch of samples at an operating point. */
struct ClassifyRequest
{
    /** Sample-major feature rows, sampleCount x features back to back. */
    std::vector<float> samples;
    std::size_t sampleCount = 0;
    int setpointMv = 0;         ///< requested VCCBRAM operating point
    Priority priority = Priority::normal;
    double deadlineMs = 0.0;    ///< from admission; 0 = none
};

struct ClassifyResponse
{
    std::vector<int> classes;    ///< one class per sample
    int effectiveSetpointMv = 0; ///< after any degradation floor raise
    int attempts = 1;            ///< serve-level tries consumed
    bool coalesced = false;      ///< shared a block with another request
};

/**
 * Maps an operating point onto the model serving it (e.g. an
 * Accelerator's observedNetwork() at that setpoint, or a fixed
 * fault-free reference). Transient Errors are retried like any other
 * fault; the returned network must stay valid for the call's duration
 * (shared_ptr ownership).
 */
using ModelProvider = std::function<
    Expected<std::shared_ptr<const nn::Network>>(int setpoint_mv)>;

/** Serving knobs. */
struct ServerConfig
{
    std::size_t queueCapacity = 64; ///< admission-control bound
    std::size_t workers = 2;        ///< serving threads (>= 1)

    int maxAttempts = 3;        ///< tries per request on transient faults
    double backoffBaseMs = 1.0; ///< first retry delay; doubles, to 50 ms
    double backoffJitterMs = 1.0; ///< uniform seeded jitter on top

    int coalesceBatch = 0; ///< classify block width; 0 = defaultEvalBatch

    /** Cross-tenant FVM cache; successful characterizations publish
     *  into it (nullptr = no publication). */
    harness::FvmCache *fvmCache = nullptr;

    /** Harsh environment for every characterize board (the PR 1
     *  injector); reseeded per request + attempt. BRAM-only: a noisy
     *  server refuses HBM/SRAM characterize requests at admission. */
    std::optional<pmbus::NoiseConfig> noise;

    HealthConfig health; ///< degradation state machine knobs

    /** Serves classify requests; required before the first classify. */
    ModelProvider modelProvider;

    std::uint64_t seed = 1; ///< base of per-request seed derivation

    /** Flight-recorder dump directory ("" disables server dumps). */
    std::string blackboxDir = "results";

    /** Consecutive deadline expiries that trigger a flight-recorder
     *  dump (blackbox_deadline_storm.json); 0 disables. */
    int deadlineStormThreshold = 8;

    /** Tolerated failed/responded fraction; statusReport() reports the
     *  actual fraction divided by this budget (1.0 = budget spent). */
    double errorBudget = 0.05;
};

/** Exactly-once accounting, mirrored in serve.* telemetry counters. */
struct ServerStats
{
    std::uint64_t admitted = 0;  ///< accepted into the queue
    std::uint64_t rejected = 0;  ///< refused: queue full
    std::uint64_t shed = 0;      ///< refused: degraded, low priority
    std::uint64_t invalid = 0;   ///< malformed: refused at admission,
                                 ///< or failed once its model is known
    std::uint64_t completed = 0; ///< responded with a value
    std::uint64_t failed = 0;    ///< responded with an Error
    std::uint64_t deadlineExceeded = 0; ///< subset of failed
    std::uint64_t cancelled = 0; ///< subset of failed: server stopped
    std::uint64_t retried = 0;   ///< transient-fault retry attempts
    std::uint64_t coalescedBlocks = 0; ///< blocks mixing >= 2 requests
};

/** Median and 99th percentile of one latency histogram, ms. */
struct LatencyQuantiles
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Point-in-time operator view of the server, rendered by
 * `serve_demo --watch` and exported next to the Prometheus snapshot.
 * Latency quantiles come from the telemetry histograms; one is empty
 * (rendered "not recorded") when its histogram holds no samples, e.g.
 * with telemetry off. Everything else is live server state.
 */
struct StatusReport
{
    ServeState state = ServeState::normal;
    int floorRaiseMv = 0;
    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    ServerStats stats;

    std::optional<LatencyQuantiles> queueWait;
    std::optional<LatencyQuantiles> e2e;
    std::optional<LatencyQuantiles> characterize;
    std::optional<LatencyQuantiles> classify;

    /** failed/responded over the configured budget; >= 1 = budget
     *  exhausted. 0 while nothing has been responded to. */
    double errorBudgetBurn = 0.0;

    /**
     * Hottest sampled span frames (self/total sample counts) from the
     * process-wide SpanProfiler, when one is running. Empty when no
     * profiler is active or no samples have landed yet.
     */
    std::vector<profiler::FrameStat> hotFrames;
    std::uint64_t profileSamples = 0; ///< samples behind hotFrames

    /** Multi-line human rendering (the --watch screen). */
    std::string render() const;
};

/** How stop() treats in-flight and queued work. */
enum class StopMode
{
    drain, ///< finish everything admitted, then stop
    now,   ///< cancel cooperatively; queued work fails serverStopped
};

/**
 * The serving daemon. Construction starts the workers; destruction
 * stops them (StopMode::now). Thread-safe: any thread may submit.
 */
class UvoltServer
{
  public:
    explicit UvoltServer(ServerConfig config);
    ~UvoltServer();

    UvoltServer(const UvoltServer &) = delete;
    UvoltServer &operator=(const UvoltServer &) = delete;

    /**
     * Admit a characterization campaign. Synchronous refusals come
     * back as Errors (invalidRequest for an unknown platform, an
     * HBM/SRAM platform on a noisy server, a non-finite ambientC, a
     * random pattern whose oneDensity is outside [0, 1], or
     * runsPerLevel outside [1, maxRunsPerLevel]; queueFull,
     * serverStopped, loadShed); an admitted request resolves its
     * future exactly once.
     */
    Expected<std::future<Expected<CharacterizeResponse>>>
    submitCharacterize(CharacterizeRequest request);

    /**
     * Admit a classification batch; same admission contract, with
     * invalidRequest when sampleCount lies outside
     * [1, maxSamplesPerRequest] or the sample values do not divide into
     * sampleCount samples. Rows whose width differs from the serving
     * model's inputs resolve the future with invalidRequest.
     */
    Expected<std::future<Expected<ClassifyResponse>>>
    submitClassify(ClassifyRequest request);

    /**
     * Stop admitting and wait until every admitted request has been
     * responded to. The workers stay alive (a drained server still
     * answers stats()); call stop() to join them.
     */
    void drain();

    /**
     * Shut down. drain mode finishes the backlog first; now mode
     * cancels cooperatively — in-flight characterizes stop at the next
     * slice boundary (Errc::serverStopped) and queued requests fail
     * serverStopped. Idempotent.
     */
    void stop(StopMode mode = StopMode::drain);

    ServerStats stats() const;

    /**
     * Live operator view: health state, queue depth, per-class latency
     * quantiles (from telemetry; zeros when off), error-budget burn.
     * Safe to call from any thread at any time.
     */
    StatusReport statusReport() const;

    /** In-queue depth right now (also exported as serve.queue_depth). */
    std::size_t queueDepth() const { return queue_.size(); }

    // --- degradation ----------------------------------------------------

    /**
     * Feed one fault-pressure observation (scripted profiles, governor
     * health via pressureOf(), external monitors). The server also
     * feeds itself: every served request contributes its own
     * retry/recovery accounting. Serialized internally.
     */
    void observeFaultPressure(double pressure);

    ServeState healthState() const;

    /** mV currently added to requested setpoints (0 = healthy). */
    int floorRaiseMv() const;

    /** Transition log of the degradation state machine, in order. */
    std::vector<HealthTransition> healthTransitions() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct CharacterizeWork
    {
        CharacterizeRequest request;
        std::promise<Expected<CharacterizeResponse>> promise;
    };

    struct ClassifyWork
    {
        ClassifyRequest request;
        std::promise<Expected<ClassifyResponse>> promise;
    };

    struct Pending
    {
        std::uint64_t id = 0;
        Priority priority = Priority::normal;
        Clock::time_point submitted;
        Clock::time_point deadline; ///< time_point::max() = none
        /** Flow linkage minted at admission; inactive = telemetry off. */
        telemetry::TraceContext trace;
        std::uint64_t submitNs = 0; ///< admission time, trace timebase
        std::variant<CharacterizeWork, ClassifyWork> work;
    };

    template <typename Request, typename Response>
    Expected<std::future<Expected<Response>>> admit(Request request);

    /** Count a malformed request's refusal and hand its error back. */
    Error refuseInvalid(Error error);

    void workerLoop();
    void process(Pending item);
    void finishCharacterize(Pending &item);
    void finishClassifyGroup(std::vector<Pending> items);

    /**
     * One attempt: a time-sliced sweep of a fresh board (BRAM) or
     * device (HBM/SRAM), stop and deadline checked between slices.
     * Admission keeps HBM/SRAM requests off a noisy server: the
     * injector drives a pmbus::Board, which only BRAM has.
     */
    Expected<CharacterizeResponse>
    characterizeOnce(const CharacterizeRequest &request,
                     std::uint64_t request_seed, int attempt,
                     Clock::time_point deadline);

    Expected<std::shared_ptr<const nn::Network>>
    obtainModel(int setpoint_mv, std::uint64_t request_seed,
                int &attempts);

    /** Seeded backoff before retry @a attempt; false if stopping. */
    bool backoff(int attempt, std::uint64_t request_seed);

    /** One admitted request has been responded to (exactly once). */
    void settled();

    bool stopRequested() const
    {
        return stopNow_.load(std::memory_order_relaxed);
    }

    /** Answer @a item with @a error and count it failed. */
    void respondFailed(Pending &item, Error error);
    void respondExpired(Pending &item);
    void respondStopped(Pending &item);
    void noteCompleted(const Pending &item, bool ok, Errc code);

    /** Deadline-storm detection: count consecutive expiries and dump
     *  the flight recorder when the configured threshold is crossed. */
    void noteDeadlineExpiry();

    ServerConfig config_;
    BoundedQueue<Pending> queue_;
    std::vector<std::thread> workers_;

    std::atomic<bool> accepting_{true};
    std::atomic<bool> stopNow_{false};
    std::atomic<bool> joined_{false};
    std::atomic<std::uint64_t> nextId_{1};

    /** Admitted requests whose promise is not yet resolved. */
    std::atomic<std::uint64_t> unresponded_{0};

    mutable std::mutex drainMutex_;
    std::condition_variable drainCv_; ///< unresponded_ reached zero

    mutable std::mutex healthMutex_;
    HealthTracker health_;

    /** Consecutive deadline expiries since the last completion. */
    std::atomic<int> deadlineStreak_{0};

    mutable std::mutex statsMutex_;
    ServerStats stats_;

    std::mutex stopMutex_; ///< orders stop() callers
};

} // namespace uvolt::serve

#endif // UVOLT_SERVE_SERVER_HH
