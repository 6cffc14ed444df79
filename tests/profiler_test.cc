/**
 * @file
 * Tests for the span-sampling profiler: the fold accumulator against
 * golden collapsed-stack text, self/total attribution (including
 * recursion dedup), sampler lifecycle (start/stop/restart, reset,
 * idempotence), live capture of scripted spans, an 8-thread span-churn
 * soak (the TSan leg's reason to exist), the central guarantee that
 * profiling on vs off leaves sweep results bit-identical, and the
 * compiled-out stub under -DUVOLT_TELEMETRY=OFF.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "util/profiler.hh"
#include "util/telemetry.hh"

#include "test_scratch.hh"

namespace uvolt::profiler
{
namespace
{

using telemetry::Telemetry;

/** Enable telemetry for one test; restore and wipe values on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        was_ = Telemetry::enabled();
        telemetry::Registry::global().resetForTest();
        Telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        Telemetry::setEnabled(was_);
        telemetry::Registry::global().resetForTest();
    }

  private:
    bool was_;
};

telemetry::SpanStackSnapshot
stack(std::vector<const char *> frames, std::uint64_t flow = 0,
      bool truncated = false)
{
    telemetry::SpanStackSnapshot snapshot;
    snapshot.tid = 1;
    snapshot.flowId = flow;
    snapshot.frames = std::move(frames);
    snapshot.truncated = truncated;
    return snapshot;
}

TEST(ProfilerFold, GoldenFoldedText)
{
    Profile profile;
    foldInto(profile, {stack({"sweep.run", "sweep.level"}),
                       stack({"sweep.run"})});
    foldInto(profile, {stack({"sweep.run", "sweep.level"})});
    foldInto(profile,
             {stack({"sweep.run", "sweep.level", "bram.readback"})});
    foldInto(profile, {stack({"serve.classify"}, /*flow=*/7)});

    EXPECT_EQ(profile.foldedText(),
              "serve.classify 1\n"
              "sweep.run 1\n"
              "sweep.run;sweep.level 2\n"
              "sweep.run;sweep.level;bram.readback 1\n");
    EXPECT_EQ(profile.samples, 5u);
    EXPECT_EQ(profile.flowSamples, 1u);
    EXPECT_EQ(profile.truncated, 0u);
}

TEST(ProfilerFold, CountsTruncatedStacks)
{
    Profile profile;
    foldInto(profile, {stack({"a"}, 0, /*truncated=*/true)});
    EXPECT_EQ(profile.truncated, 1u);
    EXPECT_EQ(profile.samples, 1u);
}

TEST(ProfilerFold, TopFramesSelfAndTotal)
{
    Profile profile;
    for (int i = 0; i < 4; ++i)
        foldInto(profile, {stack({"a", "b"})});
    foldInto(profile, {stack({"a"}), stack({"a"})});
    foldInto(profile, {stack({"b"})});

    const auto top = profile.topFrames(2);
    ASSERT_EQ(top.size(), 2u);
    // b: leaf of "a;b" x4 plus alone x1 -> self 5, total 5.
    EXPECT_EQ(top[0].name, "b");
    EXPECT_EQ(top[0].self, 5u);
    EXPECT_EQ(top[0].total, 5u);
    // a: leaf only when alone -> self 2, but on-stack for all 7.
    EXPECT_EQ(top[1].name, "a");
    EXPECT_EQ(top[1].self, 2u);
    EXPECT_EQ(top[1].total, 6u);
}

TEST(ProfilerFold, RecursionCountsOncePerSample)
{
    Profile profile;
    foldInto(profile, {stack({"a", "b", "a"})});
    for (const auto &frame : profile.topFrames(8)) {
        if (frame.name == "a") {
            EXPECT_EQ(frame.total, 1u); // deduplicated, not 2
            EXPECT_EQ(frame.self, 1u);  // it is also the leaf
        }
    }
}

TEST(ProfilerFold, WriteFoldedMatchesText)
{
    Profile profile;
    foldInto(profile, {stack({"x", "y"})});
    const auto path =
        std::filesystem::path(test::scratchDir("profile")) / "out.folded";
    ASSERT_TRUE(writeFolded(profile, path.string()));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, profile.foldedText());
}

TEST(Profiler, IntervalFromEnv)
{
    if (!Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    ::setenv("UVOLT_PROFILE_HZ", "2000", 1);
    EXPECT_EQ(SpanProfiler::intervalFromEnv(), 500u);
    ::setenv("UVOLT_PROFILE_HZ", "junk", 1);
    EXPECT_EQ(SpanProfiler::intervalFromEnv(), 997u);
    ::setenv("UVOLT_PROFILE_HZ", "0", 1);
    EXPECT_EQ(SpanProfiler::intervalFromEnv(), 997u);
    ::unsetenv("UVOLT_PROFILE_HZ");
    EXPECT_EQ(SpanProfiler::intervalFromEnv(), 997u);
}

TEST(Profiler, CapturesScriptedSpans)
{
    if (!Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn on;
    SpanProfiler profiler(/*interval_us=*/200);
    profiler.start();
    EXPECT_TRUE(profiler.running());

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool found = false;
    while (!found && std::chrono::steady_clock::now() < deadline) {
        UVOLT_TRACE_SCOPE("prof.outer");
        {
            UVOLT_TRACE_SCOPE("prof.inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        found = profiler.snapshot().folded.count(
                    "prof.outer;prof.inner") > 0;
    }
    profiler.stop();
    EXPECT_FALSE(profiler.running());
    EXPECT_TRUE(found) << profiler.snapshot().foldedText();
    EXPECT_GT(profiler.snapshot().ticks, 0u);
}

TEST(Profiler, StartStopRestartAndReset)
{
    if (!Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn on;
    SpanProfiler profiler(/*interval_us=*/200);
    profiler.start();
    profiler.start(); // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    profiler.stop();
    profiler.stop(); // idempotent
    const std::uint64_t first = profiler.snapshot().ticks;
    EXPECT_GT(first, 0u);

    profiler.start(); // restartable; samples accumulate
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    profiler.stop();
    EXPECT_GE(profiler.snapshot().ticks, first);

    profiler.reset();
    EXPECT_EQ(profiler.snapshot().ticks, 0u);
    EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(Profiler, EightThreadSpanChurn)
{
    if (!Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn on;
    SpanProfiler profiler(/*interval_us=*/100);
    profiler.start();

    static constexpr const char *names[] = {
        "churn.a", "churn.b", "churn.c", "churn.d",
        "churn.e", "churn.f", "churn.g", "churn.h"};
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([t] {
            for (int i = 0; i < 2000; ++i) {
                UVOLT_TRACE_SCOPE(names[t]);
                UVOLT_TRACE_SCOPE(names[(t + 1) % 8]);
                if (i % 64 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
    profiler.stop();

    const Profile profile = profiler.snapshot();
    EXPECT_GT(profile.ticks, 0u);
    // Every sampled frame must be one of the churn names (static
    // pointers stayed valid; no torn stacks leaked garbage).
    for (const auto &[key, count] : profile.folded) {
        EXPECT_NE(key.find("churn."), std::string::npos) << key;
        EXPECT_GT(count, 0u);
    }
}

/** The tentpole guarantee: sampling never perturbs results. */
TEST(Profiler, SweepIdenticalWithProfilerOnAndOff)
{
    if (!Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    TelemetryOn on;

    const auto run_once = [] {
        return harness::Campaign::onPlatform("ZC702")
            .sweep(5)
            .run()
            .orFatal();
    };
    SpanProfiler profiler(/*interval_us=*/100);
    profiler.start();
    const harness::FleetResult sampled = run_once();
    profiler.stop();
    const harness::FleetResult quiet = run_once();

    ASSERT_EQ(sampled.jobs.size(), quiet.jobs.size());
    for (std::size_t j = 0; j < sampled.jobs.size(); ++j) {
        const auto &a = sampled.jobs[j].sweep;
        const auto &b = quiet.jobs[j].sweep;
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t p = 0; p < a.points.size(); ++p) {
            EXPECT_EQ(a.points[p].vccBramMv, b.points[p].vccBramMv);
            EXPECT_EQ(a.points[p].runCounts, b.points[p].runCounts);
            EXPECT_EQ(a.points[p].perBramFaults,
                      b.points[p].perBramFaults);
        }
    }
}

TEST(Profiler, CompiledOutStubIsInert)
{
    if (Telemetry::compiledIn())
        GTEST_SKIP() << "stub only exists with telemetry compiled out";
    SpanProfiler &profiler = SpanProfiler::global();
    profiler.start();
    EXPECT_FALSE(profiler.running());
    EXPECT_TRUE(profiler.snapshot().empty());
    profiler.stop();
}

TEST(Profiler, GlobalIsSingleInstance)
{
    EXPECT_EQ(&SpanProfiler::global(), &SpanProfiler::global());
}

} // namespace
} // namespace uvolt::profiler
