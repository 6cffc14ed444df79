/**
 * @file
 * Tests for the serving layer: the bounded admission queue, the
 * degradation state machine, and the UvoltServer daemon itself —
 * admission control, deadlines, retry-with-backoff, the classify
 * coalescer, restart after stop, and the exactly-once accounting
 * contract under injected fault storms.
 *
 * The central invariants under test mirror the fleet engine's: every
 * admitted request is responded to exactly once (no drops, no
 * duplicates, at any worker count), and a request's *result* is a pure
 * function of its content — injector on or off, retried or not, sliced
 * or run through, cancelled and sent again or run once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "data/synthetic.hh"
#include "harness/experiment.hh"
#include "harness/fleet.hh"
#include "nn/network.hh"
#include "pmbus/board.hh"
#include "serve/health.hh"
#include "serve/request_queue.hh"
#include "serve/server.hh"
#include "util/flight_recorder.hh"
#include "util/json.hh"
#include "util/telemetry.hh"

#include "test_scratch.hh"

namespace uvolt::serve
{
namespace
{

using harness::PatternSpec;
using harness::SweepResult;

using test::scratchDir;

/** Bit-exact equality of two sweeps (the determinism contract). */
void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.dieId, b.dieId);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].vccBramMv, b.points[i].vccBramMv);
        EXPECT_EQ(a.points[i].runCounts, b.points[i].runCounts);
        EXPECT_EQ(a.points[i].medianFaults, b.points[i].medianFaults);
        EXPECT_EQ(a.points[i].perBramFaults, b.points[i].perBramFaults);
    }
}

/** A small deterministic classifier shared by the classify tests. */
std::shared_ptr<const nn::Network>
fixedNet()
{
    static std::shared_ptr<const nn::Network> net = [] {
        auto fresh = std::make_shared<nn::Network>(std::vector<int>{
            data::forestFeatures, 16, data::forestClasses});
        fresh->initWeights(42);
        return fresh;
    }();
    return net;
}

/** A provider that always serves fixedNet(), whatever the setpoint. */
ModelProvider
fixedProvider()
{
    return [](int) -> Expected<std::shared_ptr<const nn::Network>> {
        return fixedNet();
    };
}

/** Sample-major feature rows for @a count synthetic samples. */
ClassifyRequest
forestRequest(std::size_t count, std::uint64_t seed, int setpoint_mv)
{
    const data::Dataset set = data::makeForestLike(count, seed);
    ClassifyRequest request;
    request.sampleCount = count;
    request.setpointMv = setpoint_mv;
    request.samples.reserve(count * data::forestFeatures);
    for (std::size_t s = 0; s < count; ++s) {
        const auto row = set.sample(s);
        request.samples.insert(request.samples.end(), row.begin(),
                               row.end());
    }
    return request;
}

/** Enable telemetry for one test; restore and wipe on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        was_ = telemetry::Telemetry::enabled();
        telemetry::Registry::global().resetForTest();
        telemetry::Telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        telemetry::Telemetry::setEnabled(was_);
        telemetry::Registry::global().resetForTest();
    }

  private:
    bool was_;
};

/** A counter's value in the global registry (0 when never touched). */
std::uint64_t
counterValue(const std::string &name)
{
    for (const auto &[counter, value] :
         telemetry::Registry::global().metrics().counters) {
        if (counter == name)
            return value;
    }
    return 0;
}

// --- BoundedQueue --------------------------------------------------------

TEST(BoundedQueueTest, RejectsWhenFullWithoutBlocking)
{
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.tryPush(1).ok());
    EXPECT_TRUE(queue.tryPush(2).ok());
    auto full = queue.tryPush(3);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.error().code, Errc::queueFull);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.capacity(), 2u);
}

TEST(BoundedQueueTest, FifoOrderAndHeadOnlyMatching)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(10).ok());
    ASSERT_TRUE(queue.tryPush(11).ok());
    ASSERT_TRUE(queue.tryPush(20).ok());

    // tryPopMatching only ever considers the head: 20 is in the queue,
    // but 10 is in front of it.
    EXPECT_FALSE(
        queue.tryPopMatching([](int v) { return v == 20; }).has_value());
    auto head = queue.tryPopMatching([](int v) { return v == 10; });
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(*head, 10);
    EXPECT_EQ(*queue.pop(), 11);
    EXPECT_EQ(*queue.pop(), 20);
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenSignalsEnd)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(1).ok());
    queue.close();
    EXPECT_TRUE(queue.closed());

    auto refused = queue.tryPush(2);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::serverStopped);

    EXPECT_EQ(*queue.pop(), 1);
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers)
{
    BoundedQueue<int> queue(4);
    std::atomic<int> ended{0};
    std::vector<std::thread> consumers;
    for (int i = 0; i < 3; ++i) {
        consumers.emplace_back([&] {
            while (queue.pop().has_value()) {
            }
            ended.fetch_add(1);
        });
    }
    ASSERT_TRUE(queue.tryPush(7).ok());
    queue.close();
    for (auto &thread : consumers)
        thread.join();
    EXPECT_EQ(ended.load(), 3);
}

// --- HealthTracker -------------------------------------------------------

/** A fault-pressure profile: a storm, then a calm stretch. */
std::vector<double>
stormThenCalm()
{
    std::vector<double> profile;
    for (int i = 0; i < 4; ++i)
        profile.push_back(0.0); // warm-up, healthy
    for (int i = 0; i < 12; ++i)
        profile.push_back(3.0); // sustained storm
    for (int i = 0; i < 24; ++i)
        profile.push_back(0.0); // recovery
    return profile;
}

TEST(HealthTrackerTest, DegradesUnderStormAndRampsBack)
{
    HealthConfig config;
    config.window = 8;
    config.minSamples = 4;
    HealthTracker tracker(config);
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_EQ(tracker.score(), 1.0);

    for (double pressure : stormThenCalm())
        tracker.observe(pressure);

    // The storm degraded it, the calm stretch recovered it, and the
    // floor ramped all the way back to the requested operating points.
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_EQ(tracker.floorRaiseMv(), 0);
    EXPECT_FALSE(tracker.sheddingLowPriority());

    bool saw_degraded = false;
    bool saw_recovering = false;
    for (const auto &transition : tracker.transitions()) {
        saw_degraded |= transition.state == ServeState::degraded;
        saw_recovering |= transition.state == ServeState::recovering;
    }
    EXPECT_TRUE(saw_degraded);
    EXPECT_TRUE(saw_recovering);
}

TEST(HealthTrackerTest, FloorRaiseIsCappedAndShedsWhileDegraded)
{
    HealthConfig config;
    config.window = 8;
    config.minSamples = 2;
    config.setpointStepMv = 20;
    config.maxFloorRaiseMv = 50;
    HealthTracker tracker(config);
    for (int i = 0; i < 40; ++i)
        tracker.observe(5.0); // permanent storm
    EXPECT_EQ(tracker.state(), ServeState::degraded);
    EXPECT_EQ(tracker.floorRaiseMv(), 50); // capped, not 40 * 20
    EXPECT_TRUE(tracker.sheddingLowPriority());
}

TEST(HealthTrackerTest, NoTransitionsBeforeMinSamples)
{
    HealthConfig config;
    config.minSamples = 6;
    HealthTracker tracker(config);
    for (int i = 0; i < 5; ++i)
        tracker.observe(9.0);
    EXPECT_EQ(tracker.state(), ServeState::normal);
    EXPECT_TRUE(tracker.transitions().empty());
}

TEST(HealthTrackerTest, PureFunctionOfObservationSequence)
{
    HealthTracker a;
    HealthTracker b;
    for (double pressure : stormThenCalm()) {
        a.observe(pressure);
        b.observe(pressure);
    }
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.transitions().size(); ++i) {
        EXPECT_EQ(a.transitions()[i].observation,
                  b.transitions()[i].observation);
        EXPECT_EQ(a.transitions()[i].state, b.transitions()[i].state);
        EXPECT_EQ(a.transitions()[i].floorRaiseMv,
                  b.transitions()[i].floorRaiseMv);
    }
}

TEST(HealthTrackerTest, GovernorHealthMapsOntoPressureScale)
{
    EXPECT_EQ(pressureOf(harness::GovernorHealth::ok), 0.0);
    EXPECT_GE(pressureOf(harness::GovernorHealth::heldUncertain), 1.0);
    EXPECT_GE(pressureOf(harness::GovernorHealth::recovered),
              pressureOf(harness::GovernorHealth::heldUncertain));
}

// --- admission control ---------------------------------------------------

/** A provider whose first call blocks until released. */
struct BlockableProvider
{
    std::atomic<bool> release{false};
    std::atomic<int> calls{0};

    ModelProvider
    provider()
    {
        return [this](int)
            -> Expected<std::shared_ptr<const nn::Network>> {
            if (calls.fetch_add(1) == 0) {
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
            return fixedNet();
        };
    }
};

TEST(ServeAdmission, FullQueueRejectsWithQueueFull)
{
    BlockableProvider gate;
    ServerConfig config;
    config.queueCapacity = 2;
    config.workers = 1;
    config.modelProvider = gate.provider();
    UvoltServer server(std::move(config));

    // Occupy the single worker, then fill the queue behind it.
    auto busy = server.submitClassify(forestRequest(4, 1, 850));
    ASSERT_TRUE(busy.ok());
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::future<Expected<ClassifyResponse>>> queued;
    int rejected = 0;
    for (int i = 0; i < 6; ++i) {
        auto admitted =
            server.submitClassify(forestRequest(4, 2 + i, 850));
        if (admitted.ok()) {
            queued.push_back(std::move(admitted.value()));
        } else {
            EXPECT_EQ(admitted.error().code, Errc::queueFull);
            ++rejected;
        }
    }
    EXPECT_GE(rejected, 4); // capacity 2, six offered
    EXPECT_LE(server.queueDepth(), 2u);

    gate.release.store(true);
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 1u + queued.size());
    EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
    for (auto &future : queued)
        EXPECT_TRUE(future.get().ok());
    auto first = busy.value().get();
    EXPECT_TRUE(first.ok());
    server.stop();
}

TEST(ServeAdmission, DrainedServerRefusesNewWork)
{
    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));
    server.drain();
    auto refused = server.submitClassify(forestRequest(2, 1, 850));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, Errc::serverStopped);
    server.stop();
}

TEST(ServeAdmission, DegradedServerShedsLowPriorityOnly)
{
    ServerConfig config;
    config.workers = 1;
    config.health.minSamples = 2;
    config.health.window = 4;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    for (int i = 0; i < 8; ++i)
        server.observeFaultPressure(5.0);
    ASSERT_EQ(server.healthState(), ServeState::degraded);
    EXPECT_GT(server.floorRaiseMv(), 0);
    const int floor_raise = server.floorRaiseMv();

    ClassifyRequest low = forestRequest(2, 1, 850);
    low.priority = Priority::low;
    auto shed = server.submitClassify(std::move(low));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.error().code, Errc::loadShed);

    auto normal = server.submitClassify(forestRequest(2, 1, 850));
    ASSERT_TRUE(normal.ok());
    auto response = normal.value().get();
    ASSERT_TRUE(response.ok());
    // Degradation raised the operating point toward the safe region.
    EXPECT_EQ(response.value().effectiveSetpointMv, 850 + floor_raise);
    EXPECT_EQ(server.stats().shed, 1u);
    server.stop();
}

// --- malformed requests --------------------------------------------------

CharacterizeRequest
goodCharacterize(double ambient_c)
{
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 3;
    request.ambientC = ambient_c;
    return request;
}

/**
 * Offer @a hostile (a callable submitting one malformed request and
 * returning its admission code) eight times while another thread feeds
 * good characterize and classify requests to the same server. Every
 * hostile offer must be refused with invalidRequest and never admitted;
 * the good answers must be bit-identical to a server that saw only good
 * traffic; every admitted request must be answered exactly once.
 */
template <typename Hostile>
void
refusedAmidGoodTraffic(Hostile &&hostile)
{
    const std::array<double, 2> ambients{45.0, 70.0};
    const auto config = [] {
        ServerConfig config;
        config.workers = 2;
        config.modelProvider = fixedProvider();
        return config;
    };

    std::vector<SweepResult> clean_sweeps;
    std::vector<std::vector<int>> clean_classes;
    {
        UvoltServer clean(config());
        for (double ambient : ambients) {
            auto sweep = clean.submitCharacterize(goodCharacterize(ambient));
            ASSERT_TRUE(sweep.ok());
            clean_sweeps.push_back(sweep.value().get().take().sweep);
        }
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            auto batch = clean.submitClassify(forestRequest(6, seed, 850));
            ASSERT_TRUE(batch.ok());
            clean_classes.push_back(batch.value().get().take().classes);
        }
        clean.stop();
    }

    UvoltServer server(config());
    std::vector<std::future<Expected<CharacterizeResponse>>> sweeps;
    std::vector<std::future<Expected<ClassifyResponse>>> batches;
    std::thread good([&] {
        for (double ambient : ambients) {
            auto admitted =
                server.submitCharacterize(goodCharacterize(ambient));
            if (admitted.ok())
                sweeps.push_back(std::move(admitted.value()));
        }
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            auto admitted =
                server.submitClassify(forestRequest(6, seed, 850));
            if (admitted.ok())
                batches.push_back(std::move(admitted.value()));
        }
    });
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(hostile(server), Errc::invalidRequest) << i;
    good.join();

    ASSERT_EQ(sweeps.size(), ambients.size());
    ASSERT_EQ(batches.size(), clean_classes.size());
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        auto response = sweeps[i].get();
        ASSERT_TRUE(response.ok()) << response.error().message;
        expectSameSweep(response.value().sweep, clean_sweeps[i]);
    }
    for (std::size_t i = 0; i < batches.size(); ++i) {
        auto response = batches[i].get();
        ASSERT_TRUE(response.ok()) << response.error().message;
        EXPECT_EQ(response.value().classes, clean_classes[i]);
    }
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, sweeps.size() + batches.size());
    EXPECT_EQ(stats.completed, stats.admitted);
    EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
    EXPECT_EQ(stats.invalid, 8u);
    server.stop();
}

TEST(ServeMalformed, UnknownPlatformIsRefusedNotAdmitted)
{
    refusedAmidGoodTraffic([](UvoltServer &server) {
        CharacterizeRequest typo = goodCharacterize(50.0);
        typo.platform = "VC70";
        auto refused = server.submitCharacterize(std::move(typo));
        if (!refused.ok()) {
            EXPECT_NE(refused.error().message.find("VC70"),
                      std::string::npos);
        }
        return refused.code();
    });
}

TEST(ServeMalformed, NonPositiveRunsPerLevelIsRefused)
{
    int offer = 0;
    refusedAmidGoodTraffic([&offer](UvoltServer &server) {
        CharacterizeRequest request = goodCharacterize(50.0);
        request.runsPerLevel = -offer++; // 0, then negatives
        return server.submitCharacterize(std::move(request)).code();
    });
}

TEST(ServeMalformed, MisShapedClassifyPayloadIsRefused)
{
    int offer = 0;
    refusedAmidGoodTraffic([&offer](UvoltServer &server) {
        ClassifyRequest request = forestRequest(4, 9, 850);
        switch (offer++ % 4) {
        case 0: request.samples.pop_back(); break; // 4 samples minus one
        case 1: request.sampleCount = 0; break;
        case 2:
            // An empty payload divides into any count: only the cap
            // keeps the server from sizing buffers from it.
            request.samples.clear();
            request.sampleCount = maxSamplesPerRequest + 1;
            break;
        default:
            request.samples.clear();
            request.sampleCount = std::numeric_limits<std::size_t>::max();
            break;
        }
        return server.submitClassify(std::move(request)).code();
    });
}

TEST(ServeMalformed, WrongWidthClassifyFailsAloneAmidGoodTraffic)
{
    // 4 samples' worth of values declared as 2 samples: the payload
    // divides, so admission takes it, but each row is twice the
    // model's input width. Only the model can tell.
    ClassifyRequest wide = forestRequest(4, 9, 850);
    wide.sampleCount = 2;

    std::vector<std::vector<int>> clean_classes;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const ClassifyRequest good = forestRequest(6, seed, 850);
        std::vector<std::span<const float>> rows;
        for (std::size_t i = 0; i < good.sampleCount; ++i)
            rows.emplace_back(good.samples.data() +
                                  i * data::forestFeatures,
                              data::forestFeatures);
        std::vector<int> classes(good.sampleCount, -1);
        fixedNet()->classifyScattered(rows, classes);
        clean_classes.push_back(std::move(classes));
    }

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    // Hold the only worker with a characterize so the classify traffic
    // queues up and coalesces into one group, bad members included.
    auto busy = server.submitCharacterize(goodCharacterize(50.0)).orFatal();
    while (server.queueDepth() != 0)
        std::this_thread::yield();
    std::vector<std::future<Expected<ClassifyResponse>>> good;
    std::vector<std::future<Expected<ClassifyResponse>>> bad;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        good.push_back(
            server.submitClassify(forestRequest(6, seed, 850)).orFatal());
        bad.push_back(server.submitClassify(wide).orFatal());
    }
    ASSERT_TRUE(busy.get().ok());

    bool coalesced = false;
    for (std::size_t i = 0; i < good.size(); ++i) {
        auto response = good[i].get();
        ASSERT_TRUE(response.ok()) << response.error().message;
        EXPECT_EQ(response.value().classes, clean_classes[i]);
        coalesced = coalesced || response.value().coalesced;
    }
    EXPECT_TRUE(coalesced);
    for (auto &future : bad) {
        auto response = future.get();
        ASSERT_FALSE(response.ok());
        EXPECT_EQ(response.code(), Errc::invalidRequest);
        EXPECT_NE(response.error().message.find(
                      std::to_string(2 * data::forestFeatures) +
                      " features"),
                  std::string::npos)
            << response.error().message;
    }
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 1u + good.size() + bad.size());
    EXPECT_EQ(stats.completed, 1u + good.size());
    EXPECT_EQ(stats.failed, bad.size());
    EXPECT_EQ(stats.invalid, bad.size());
    server.stop();
}

TEST(ServeMalformed, HostileTenantIsRefusedAmidGoodTraffic)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    int offer = 0;
    refusedAmidGoodTraffic([&](UvoltServer &server) {
        CharacterizeRequest request = goodCharacterize(50.0);
        switch (offer++) {
        case 0: request.ambientC = nan; break;
        case 1: request.ambientC = inf; break;
        case 2: request.ambientC = -inf; break;
        case 3: request.pattern = PatternSpec::random(nan, 3); break;
        case 4: request.pattern = PatternSpec::random(1.5, 3); break;
        case 5: request.pattern = PatternSpec::random(-0.25, 3); break;
        case 6: request.runsPerLevel = maxRunsPerLevel + 1; break;
        default:
            request.runsPerLevel = std::numeric_limits<int>::max();
            break;
        }
        return server.submitCharacterize(std::move(request)).code();
    });
}

TEST(ServeMalformed, NoisyServerRefusesNonBramPlatforms)
{
    ServerConfig config;
    config.workers = 1;
    config.noise = pmbus::NoiseConfig::harsh(0, 0.02);
    UvoltServer server(std::move(config));
    for (const std::string platform : {"HBM2-A", "MORS-SRAM-A"}) {
        CharacterizeRequest request = goodCharacterize(50.0);
        request.platform = platform;
        auto refused = server.submitCharacterize(std::move(request));
        ASSERT_FALSE(refused.ok()) << platform;
        EXPECT_EQ(refused.code(), Errc::invalidRequest);
        EXPECT_NE(refused.error().message.find(platform),
                  std::string::npos);
    }
    // The same noisy server still serves BRAM.
    auto bram = server.submitCharacterize(goodCharacterize(50.0));
    ASSERT_TRUE(bram.ok());
    EXPECT_TRUE(bram.value().get().ok());
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.invalid, 2u);
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    server.stop();
}

// --- deadlines -----------------------------------------------------------

TEST(ServeDeadline, ExpiredRequestFailsDeadlineExceeded)
{
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 5;
    request.deadlineMs = 1e-3; // expires before any worker can pop it
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::deadlineExceeded);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.deadlineExceeded, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 0u);
    server.stop();
}

TEST(ServeDeadline, UnboundedDeadlineCompletes)
{
    ServerConfig config;
    config.workers = 1;
    UvoltServer server(std::move(config));
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 3;
    auto future = server.submitCharacterize(std::move(request));
    ASSERT_TRUE(future.ok());
    EXPECT_TRUE(future.value().get().ok());
    server.stop();
}

// --- retries -------------------------------------------------------------

TEST(ServeRetry, TransientModelFaultsRetryWithBackoff)
{
    std::atomic<int> calls{0};
    ServerConfig config;
    config.workers = 1;
    config.maxAttempts = 4;
    config.backoffBaseMs = 0.1;
    config.backoffJitterMs = 0.1;
    config.modelProvider =
        [&calls](int) -> Expected<std::shared_ptr<const nn::Network>> {
        if (calls.fetch_add(1) < 2)
            return makeError(Errc::linkExhausted, "injected fault");
        return fixedNet();
    };
    UvoltServer server(std::move(config));

    auto future = server.submitClassify(forestRequest(3, 9, 850));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().attempts, 3);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(server.stats().retried, 2u);
    EXPECT_EQ(server.stats().completed, 1u);
    server.stop();
}

TEST(ServeRetry, NonTransientFaultsFailFast)
{
    std::atomic<int> calls{0};
    ServerConfig config;
    config.workers = 1;
    config.maxAttempts = 4;
    config.modelProvider =
        [&calls](int) -> Expected<std::shared_ptr<const nn::Network>> {
        calls.fetch_add(1);
        return makeError(Errc::corruptCache, "model image unusable");
    };
    UvoltServer server(std::move(config));

    auto future = server.submitClassify(forestRequest(3, 9, 850));
    ASSERT_TRUE(future.ok());
    auto response = future.value().get();
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.code(), Errc::corruptCache);
    EXPECT_EQ(calls.load(), 1); // no retry burned on a permanent fault
    EXPECT_EQ(server.stats().retried, 0u);
    server.stop();
}

// --- the coalescer -------------------------------------------------------

TEST(ServeCoalesce, CoalescedBlocksAreBitIdenticalToScalarClassify)
{
    BlockableProvider gate;
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 32;
    config.coalesceBatch = 16;
    config.modelProvider = gate.provider();
    UvoltServer server(std::move(config));

    // Hold the worker on a first request, queue several more at the
    // same operating point, then release: the queued ones coalesce.
    std::vector<ClassifyRequest> requests;
    std::vector<std::future<Expected<ClassifyResponse>>> futures;
    for (int i = 0; i < 6; ++i)
        requests.push_back(forestRequest(3 + i, 100 + i, 850));
    {
        auto first = server.submitClassify(requests[0]);
        ASSERT_TRUE(first.ok());
        futures.push_back(std::move(first.value()));
    }
    while (gate.calls.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t i = 1; i < requests.size(); ++i) {
        auto admitted = server.submitClassify(requests[i]);
        ASSERT_TRUE(admitted.ok());
        futures.push_back(std::move(admitted.value()));
    }
    gate.release.store(true);
    server.drain();

    const auto net = fixedNet();
    bool any_coalesced = false;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << "request " << i;
        const auto &classes = response.value().classes;
        ASSERT_EQ(classes.size(), requests[i].sampleCount);
        // Bit-identity with the scalar path, member by member: block
        // packing across tenants must not change a single result.
        for (std::size_t s = 0; s < requests[i].sampleCount; ++s) {
            const std::span<const float> sample(
                requests[i].samples.data() + s * data::forestFeatures,
                data::forestFeatures);
            EXPECT_EQ(classes[s], net->classify(sample));
        }
        any_coalesced |= response.value().coalesced;
    }
    EXPECT_TRUE(any_coalesced);
    EXPECT_GE(server.stats().coalescedBlocks, 1u);
    server.stop();
}

// --- degradation determinism --------------------------------------------

TEST(ServeHealth, ScriptedProfileIsDeterministicAcrossWorkerCounts)
{
    std::vector<std::vector<HealthTransition>> logs;
    for (std::size_t workers : {1u, 4u}) {
        ServerConfig config;
        config.workers = workers;
        config.modelProvider = fixedProvider();
        UvoltServer server(std::move(config));
        for (double pressure : stormThenCalm())
            server.observeFaultPressure(pressure);
        logs.push_back(server.healthTransitions());
        server.stop();
    }
    ASSERT_EQ(logs[0].size(), logs[1].size());
    for (std::size_t i = 0; i < logs[0].size(); ++i) {
        EXPECT_EQ(logs[0][i].observation, logs[1][i].observation);
        EXPECT_EQ(logs[0][i].state, logs[1][i].state);
        EXPECT_EQ(logs[0][i].floorRaiseMv, logs[1][i].floorRaiseMv);
    }
}

// --- lifecycle: stop and restart ----------------------------------------

TEST(ServeLifecycle, RestartAfterStopNowMatchesTheDirectSweep)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn guard;

    // The largest admitted run count, so one level takes long enough
    // for a stop to land between the request's first and last level.
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = maxRunsPerLevel;

    pmbus::Board board(fpga::findPlatform("ZC702"));
    harness::SweepOptions reference_options;
    reference_options.runsPerLevel = request.runsPerLevel;
    reference_options.collectPerBram = true;
    auto reference =
        harness::tryRunCriticalSweep(board, reference_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_GT(reference.value().points.size(), 2u);

    ServerConfig config;
    config.workers = 1;
    config.blackboxDir = "";

    // stop(now) a server once its request has measured a level. Should
    // the worker outrun the stop and finish, kill a fresh server again.
    bool killed_mid_campaign = false;
    for (int tries = 0; tries < 10 && !killed_mid_campaign; ++tries) {
        telemetry::Registry::global().resetForTest();
        UvoltServer killed(config);
        auto cancelled = killed.submitCharacterize(request).orFatal();
        while (counterValue("sweep.levels") == 0)
            std::this_thread::yield();
        killed.stop(StopMode::now);
        const auto response = cancelled.get();
        if (!response.ok()) {
            EXPECT_EQ(response.code(), Errc::serverStopped);
            killed_mid_campaign = true;
        }
    }
    ASSERT_TRUE(killed_mid_campaign);

    // A new server measures the request again from its first level and
    // answers the same bits as the direct sweep.
    UvoltServer restarted(config);
    auto response = restarted.submitCharacterize(request).orFatal().get();
    ASSERT_TRUE(response.ok()) << response.error().message;
    expectSameSweep(response.value().sweep, reference.value());
    restarted.stop();
}

TEST(ServeLifecycle, StopNowAnswersEverythingExactlyOnce)
{
    ServerConfig config;
    config.workers = 2;
    config.modelProvider = fixedProvider();
    UvoltServer server(std::move(config));

    std::vector<std::future<Expected<CharacterizeResponse>>> futures;
    for (int i = 0; i < 4; ++i) {
        CharacterizeRequest request;
        request.platform = "ZC702";
        request.runsPerLevel = 8;
        request.ambientC = 40.0 + 10.0 * i; // distinct shapes
        auto admitted = server.submitCharacterize(std::move(request));
        ASSERT_TRUE(admitted.ok());
        futures.push_back(std::move(admitted.value()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop(StopMode::now);

    // Exactly-once: every admitted future resolves — completed or
    // cancelled with serverStopped, never dropped, never twice.
    int completed = 0;
    int cancelled = 0;
    for (auto &future : futures) {
        auto response = future.get();
        if (response.ok())
            ++completed;
        else {
            EXPECT_EQ(response.code(), Errc::serverStopped);
            ++cancelled;
        }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 4u);
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
    EXPECT_EQ(stats.cancelled, static_cast<std::uint64_t>(cancelled));
    EXPECT_EQ(stats.completed + stats.failed, stats.admitted);
}

// --- identity under the fault injector -----------------------------------

TEST(ServeIdentity, InjectorOnAndOffAreBitIdentical)
{
    const std::string cache_dir = scratchDir("uvolt-serve-ident-cache");

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 5;

    auto run_once = [&](bool noisy) -> CharacterizeResponse {
        ServerConfig config;
        config.workers = 2;
        config.seed = 77;
        if (noisy) {
            pmbus::NoiseConfig noise =
                pmbus::NoiseConfig::harsh(0, 0.02);
            noise.spuriousCrashProb = 0.3;
            config.noise = noise;
        }
        UvoltServer server(std::move(config));
        auto future = server.submitCharacterize(request);
        EXPECT_TRUE(future.ok());
        auto response = future.value().get();
        EXPECT_TRUE(response.ok());
        server.stop();
        return response.take();
    };

    const CharacterizeResponse quiet = run_once(false);
    const CharacterizeResponse noisy = run_once(true);
    // The PR-1 masking guarantee, surfaced at the service boundary: the
    // harsh environment's faults are absorbed by retry/recovery and the
    // response payload is bit-identical.
    expectSameSweep(quiet.sweep, noisy.sweep);
    EXPECT_GT(noisy.sweep.resilience.linkRetransmits +
                  noisy.sweep.resilience.crashRecoveries +
                  noisy.sweep.resilience.pmbusRetries,
              0u);

    // And a successful characterize publishes the die's FVM for every
    // tenant: the cache serves it without a single new sweep.
    harness::FvmCache cache(cache_dir);
    ServerConfig config;
    config.workers = 1;
    config.fvmCache = &cache;
    UvoltServer server(std::move(config));
    auto future = server.submitCharacterize(request);
    ASSERT_TRUE(future.ok());
    ASSERT_TRUE(future.value().get().ok());
    server.stop();

    int characterizations = 0;
    auto obtained = cache.obtain(
        fpga::findPlatform(request.platform), request.pattern,
        request.runsPerLevel, [&]() -> Expected<harness::Fvm> {
            ++characterizations;
            return makeError(Errc::cacheMiss, "should not be called");
        });
    ASSERT_TRUE(obtained.ok());
    EXPECT_EQ(characterizations, 0);
}

TEST(ServeIdentity, RepeatedRequestsAreIdempotent)
{
    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 4;

    ServerConfig config;
    config.workers = 2;
    config.noise = pmbus::NoiseConfig::harsh(0, 0.02);
    UvoltServer server(std::move(config));

    // The same request shape twice, concurrently: seeds derive from the
    // request content, not submission order, so both see the identical
    // campaign, even when two workers run them side by side.
    auto first = server.submitCharacterize(request);
    auto second = server.submitCharacterize(request);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    auto a = first.value().get();
    auto b = second.value().get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    expectSameSweep(a.value().sweep, b.value().sweep);
    server.stop();
}

TEST(ServeIdentity, ResponseResilienceSumsEverySlice)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn guard;

    ServerConfig config;
    config.workers = 1;
    config.blackboxDir = "";
    pmbus::NoiseConfig noise = pmbus::NoiseConfig::harsh(5, 0.02);
    noise.spuriousCrashProb = 0.5;
    config.noise = noise;
    UvoltServer server(std::move(config));

    CharacterizeRequest request;
    request.platform = "ZC702";
    request.runsPerLevel = 11;
    auto response = server.submitCharacterize(request).orFatal().get();
    ASSERT_TRUE(response.ok()) << response.error().message;
    server.stop();
    // A failed attempt would count recoveries the answer never saw.
    ASSERT_EQ(response.value().attempts, 1);

    // The request ran as one-level slices; the answer accounts for all
    // of them, not only the last.
    const SweepResult &sweep = response.value().sweep;
    const harness::ResilienceReport &res = sweep.resilience;
    ASSERT_GT(sweep.points.size(), 1u);
    EXPECT_GT(res.crashRecoveries, 0u);
    EXPECT_EQ(res.crashRecoveries, counterValue("sweep.crash_recoveries"));
    EXPECT_EQ(res.runsRetried, counterValue("sweep.runs_retried"));
    EXPECT_EQ(res.checkpointResumes, sweep.points.size() - 1);
}

// --- observability -------------------------------------------------------

/**
 * Every request admitted with telemetry on is one connected, well-
 * formed flow: exactly one start ("serve.admit"), at least one step
 * (the queue-wait hop), exactly one finish ("serve.request" or
 * "serve.reject"), and every child span's parent was recorded. Holds
 * at every worker count, including the degenerate single worker.
 */
void
expectServeFlowsWellFormed(std::size_t workers, std::size_t admitted)
{
    TelemetryOn guard;

    ServerConfig config;
    config.workers = workers;
    config.modelProvider = fixedProvider();
    config.blackboxDir = ""; // no dumps from this test
    UvoltServer server(std::move(config));

    std::vector<std::future<Expected<ClassifyResponse>>> classifies;
    for (std::size_t i = 0; i + 1 < admitted; ++i)
        classifies.push_back(
            server.submitClassify(forestRequest(4, 10 + i, 850))
                .orFatal());
    CharacterizeRequest characterize;
    characterize.platform = "ZC702";
    characterize.runsPerLevel = 3;
    auto sweep = server.submitCharacterize(characterize).orFatal();
    for (auto &future : classifies)
        ASSERT_TRUE(future.get().ok());
    ASSERT_TRUE(sweep.get().ok());
    server.stop();

    const auto events = telemetry::Registry::global().traceEvents();
    std::set<std::uint64_t> spans;
    for (const auto &event : events) {
        if (event.spanId != 0)
            spans.insert(event.spanId);
    }
    std::map<std::uint64_t, std::array<int, 3>> flows; // s, t, f
    for (const auto &event : events) {
        if (event.parentId != 0) {
            EXPECT_TRUE(spans.count(event.parentId))
                << event.name << " parents under an unrecorded span";
        }
        if (event.flowId != 0 &&
            event.flowPoint != telemetry::FlowPoint::none) {
            auto &counts = flows[event.flowId];
            switch (event.flowPoint) {
              case telemetry::FlowPoint::start: ++counts[0]; break;
              case telemetry::FlowPoint::step: ++counts[1]; break;
              default: ++counts[2]; break;
            }
        }
    }
    EXPECT_EQ(flows.size(), admitted) << "workers=" << workers;
    for (const auto &[flow, counts] : flows) {
        EXPECT_EQ(counts[0], 1) << "flow " << flow << " starts";
        EXPECT_GE(counts[1], 1) << "flow " << flow << " steps";
        EXPECT_EQ(counts[2], 1) << "flow " << flow << " finishes";
    }
}

TEST(ServeObservability, RequestFlowsWellFormedAtAnyWorkerCount)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    for (std::size_t workers : {1u, 2u, 8u})
        expectServeFlowsWellFormed(workers, 6);
}

TEST(ServeObservability, RefusedAdmissionStillClosesItsFlow)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn guard;

    // Capacity 1, one characterize running in the only worker and a
    // second one filling the queue: the classify submits behind them
    // hit queueFull, and each refused admission must still be a closed
    // flow (one start, one "serve.reject" finish) — a half-open flow
    // draws forever-dangling arrows in the viewer. No future is waited
    // on before the submit loop ends, so nothing drains the queue early.
    ServerConfig config;
    config.workers = 1;
    config.queueCapacity = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = "";
    UvoltServer server(std::move(config));

    CharacterizeRequest slow;
    slow.platform = "ZC702";
    slow.runsPerLevel = 3;
    auto running = server.submitCharacterize(slow).orFatal();
    while (server.queueDepth() != 0)
        std::this_thread::yield(); // the worker has taken it
    auto queued = server.submitCharacterize(slow).orFatal();
    std::uint64_t rejected = 0;
    std::vector<std::future<Expected<ClassifyResponse>>> classified;
    for (int i = 0; i < 32; ++i) {
        auto admitted = server.submitClassify(forestRequest(2, i, 850));
        if (admitted.ok())
            classified.push_back(admitted.take());
        else
            ++rejected;
    }
    for (auto &future : classified)
        ASSERT_TRUE(future.get().ok());
    ASSERT_TRUE(running.get().ok());
    ASSERT_TRUE(queued.get().ok());
    server.stop();

    std::map<std::uint64_t, std::pair<int, int>> flows; // starts, ends
    std::uint64_t reject_spans = 0;
    for (const auto &event :
         telemetry::Registry::global().traceEvents()) {
        reject_spans += std::string_view(event.name) == "serve.reject";
        if (event.flowId == 0)
            continue;
        if (event.flowPoint == telemetry::FlowPoint::start)
            ++flows[event.flowId].first;
        else if (event.flowPoint == telemetry::FlowPoint::finish)
            ++flows[event.flowId].second;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(reject_spans, rejected);
    for (const auto &[flow, counts] : flows) {
        EXPECT_EQ(counts.first, 1) << "flow " << flow;
        EXPECT_EQ(counts.second, 1) << "flow " << flow;
    }
}

TEST(ServeObservability, DegradationTransitionDumpsBlackbox)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    const std::string dir = scratchDir("uvolt_serve_blackbox");
    flightrec::FlightRecorder::global().resetForTest();

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = dir;
    UvoltServer server(std::move(config));

    // One completed request seeds the ring (an empty black box is
    // never written), then a scripted storm forces the transition.
    ASSERT_TRUE(server.submitClassify(forestRequest(2, 1, 850))
                    .orFatal()
                    .get()
                    .ok());
    flightrec::note(flightrec::Level::info, "test", "storm incoming");
    for (int i = 0; i < 12; ++i)
        server.observeFaultPressure(3.0);
    EXPECT_EQ(server.healthState(), ServeState::degraded);
    server.stop();

    const std::string path = dir + "/blackbox_degraded.json";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    auto parsed = json::Value::parse(content.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value &root = parsed.value();
    EXPECT_EQ(root.stringOr("schema", ""), "uvolt-blackbox-v1");
    const json::Value *events = root.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items().empty());
    // The transition note itself must be in the box: the dump happens
    // after the recorder sees the "health normal -> degraded" event.
    bool transition_noted = false;
    std::uint64_t last_seq = 0;
    for (const json::Value &event : events->items()) {
        ASSERT_TRUE(event.isObject());
        const auto seq =
            static_cast<std::uint64_t>(event.numberOr("seq", 0));
        EXPECT_GT(seq, last_seq) << "merge must preserve seq order";
        last_seq = seq;
        if (event.stringOr("component", "") == "serve" &&
            event.stringOr("message", "").find("degraded") !=
                std::string::npos)
            transition_noted = true;
    }
    EXPECT_TRUE(transition_noted);
    const auto dumps = flightrec::FlightRecorder::global().dumps();
    EXPECT_NE(std::find(dumps.begin(), dumps.end(), path), dumps.end());
    flightrec::FlightRecorder::global().resetForTest();
}

TEST(ServeObservability, DeadlineStormDumpsBlackbox)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    const std::string dir = scratchDir("uvolt_serve_deadline_storm");
    flightrec::FlightRecorder::global().resetForTest();

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = dir;
    config.deadlineStormThreshold = 3;
    UvoltServer server(std::move(config));

    // Every request is born expired: each expiry extends the streak,
    // and the third crossing dumps the recorder.
    for (int i = 0; i < 4; ++i) {
        ClassifyRequest request = forestRequest(2, 50 + i, 850);
        request.deadlineMs = 1e-3;
        auto future = server.submitClassify(std::move(request));
        ASSERT_TRUE(future.ok());
        const auto response = future.take().get();
        ASSERT_FALSE(response.ok());
        EXPECT_EQ(response.error().code, Errc::deadlineExceeded);
    }
    server.stop();

    EXPECT_TRUE(std::filesystem::exists(
        dir + "/blackbox_deadline_storm.json"));
    flightrec::FlightRecorder::global().resetForTest();
}

TEST(ServeObservability, StatusReportMatchesLedgerAndRenders)
{
    TelemetryOn guard;

    ServerConfig config;
    config.workers = 2;
    config.modelProvider = fixedProvider();
    config.blackboxDir = "";
    config.errorBudget = 0.5;
    UvoltServer server(std::move(config));

    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(server.submitClassify(forestRequest(4, i, 850))
                        .orFatal()
                        .get()
                        .ok());
    ClassifyRequest hopeless = forestRequest(2, 99, 850);
    hopeless.deadlineMs = 1e-3;
    ASSERT_FALSE(
        server.submitClassify(std::move(hopeless)).orFatal().get().ok());
    server.drain();

    const StatusReport report = server.statusReport();
    const ServerStats stats = server.stats();
    EXPECT_EQ(report.stats.admitted, stats.admitted);
    EXPECT_EQ(report.stats.completed, stats.completed);
    EXPECT_EQ(report.stats.failed, stats.failed);
    EXPECT_EQ(report.queueDepth, 0u);
    EXPECT_EQ(report.queueCapacity, 64u);
    EXPECT_EQ(report.state, ServeState::normal);
    // 1 failure of 7 responses over a 0.5 budget = 2/7 burned.
    EXPECT_NEAR(report.errorBudgetBurn, (1.0 / 7.0) / 0.5, 1e-9);
    if (telemetry::Telemetry::compiledIn()) {
        ASSERT_TRUE(report.e2e && report.classify);
        EXPECT_GT(report.e2e->p99Ms, 0.0);
        EXPECT_GT(report.classify->p50Ms, 0.0);
        // No characterize request ran: its quantiles have no samples.
        EXPECT_FALSE(report.characterize);
    }

    const std::string screen = report.render();
    EXPECT_NE(screen.find("state"), std::string::npos);
    EXPECT_NE(screen.find("normal"), std::string::npos);
    EXPECT_NE(screen.find("error budget"), std::string::npos);
    server.stop();
}

TEST(ServeObservability, UnsampledQuantilesAreNotRecordedAndRefusalsCount)
{
    const bool was = telemetry::Telemetry::enabled();
    telemetry::Telemetry::setEnabled(false);

    ServerConfig config;
    config.workers = 1;
    config.modelProvider = fixedProvider();
    config.blackboxDir = "";
    UvoltServer server(std::move(config));
    ASSERT_TRUE(
        server.submitClassify(forestRequest(2, 1, 850)).orFatal().get().ok());
    CharacterizeRequest typo;
    typo.platform = "VC70";
    CharacterizeRequest no_runs;
    no_runs.platform = "ZC702";
    no_runs.runsPerLevel = 0;
    ClassifyRequest ragged = forestRequest(2, 2, 850);
    ragged.samples.pop_back();
    EXPECT_EQ(server.submitCharacterize(std::move(typo)).code(),
              Errc::invalidRequest);
    EXPECT_EQ(server.submitCharacterize(std::move(no_runs)).code(),
              Errc::invalidRequest);
    EXPECT_EQ(server.submitClassify(std::move(ragged)).code(),
              Errc::invalidRequest);
    server.drain();

    const StatusReport report = server.statusReport();
    telemetry::Telemetry::setEnabled(was);
    EXPECT_EQ(report.stats.invalid, 3u);
    EXPECT_EQ(report.stats.admitted, 1u);
    EXPECT_EQ(report.stats.rejected, 0u);
    // Telemetry off: no latency was sampled, so none may read as zero.
    EXPECT_FALSE(report.queueWait || report.e2e || report.characterize ||
                 report.classify);
    const std::string screen = report.render();
    EXPECT_NE(screen.find("invalid 3"), std::string::npos) << screen;
    EXPECT_EQ(screen.find("0.000 ms"), std::string::npos) << screen;
    std::size_t not_recorded = 0;
    for (auto at = screen.find("not recorded"); at != std::string::npos;
         at = screen.find("not recorded", at + 1))
        ++not_recorded;
    EXPECT_EQ(not_recorded, 4u) << screen;
    server.stop();
}

} // namespace
} // namespace uvolt::serve
