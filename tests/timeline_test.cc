/**
 * @file
 * Tests for the perf timeline: uvolt-timeline-v1 row JSON roundtrip,
 * append/load over a real file, schema rejection, malformed-line
 * errors with position, util/fsio's atomic append primitive, and the
 * property the format exists for — concurrent appenders interleave
 * whole rows, never torn ones.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/timeline.hh"
#include "util/format.hh"
#include "util/fsio.hh"

#include "test_scratch.hh"

namespace uvolt::harness
{
namespace
{

using test::scratchFile;

TimelineRow
sampleRow(const std::string &run_id)
{
    TimelineRow row;
    row.tool = "ext_serve";
    row.runId = run_id;
    row.gitSha = "abc123";
    row.startedAtIso = "2026-08-09T10:00:00Z";
    row.configDigest = "deadbeefdeadbeef";
    row.workers = 4;
    row.durationMs = 1234.5;
    row.metrics = {{"e2e_p50_ms", 1.25}, {"e2e_p99_ms", 20.5},
                   {"name with \"quotes\"", -0.5}};
    row.topFrames = {{"serve.classify", 412}, {"sweep.level", 88}};
    return row;
}

TEST(TimelineRow, JsonRoundtrip)
{
    const TimelineRow row = sampleRow("run-1");
    const std::string line = row.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const auto parsed = TimelineRow::fromJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const TimelineRow &back = parsed.value();
    EXPECT_EQ(back.tool, row.tool);
    EXPECT_EQ(back.runId, row.runId);
    EXPECT_EQ(back.gitSha, row.gitSha);
    EXPECT_EQ(back.startedAtIso, row.startedAtIso);
    EXPECT_EQ(back.configDigest, row.configDigest);
    EXPECT_EQ(back.workers, row.workers);
    EXPECT_NEAR(back.durationMs, row.durationMs, 1e-3);
    ASSERT_EQ(back.metrics.size(), row.metrics.size());
    for (std::size_t i = 0; i < row.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].first, row.metrics[i].first);
        EXPECT_NEAR(back.metrics[i].second, row.metrics[i].second,
                    1e-6);
    }
    EXPECT_EQ(back.topFrames, row.topFrames);
}

TEST(TimelineRow, RejectsWrongSchema)
{
    EXPECT_FALSE(TimelineRow::fromJson("{\"schema\": \"nope\"}").ok());
    EXPECT_FALSE(TimelineRow::fromJson("[1, 2]").ok());
    EXPECT_FALSE(TimelineRow::fromJson("not json at all").ok());
}

TEST(Timeline, AppendThenLoadPreservesOrder)
{
    const auto path = scratchFile("history.jsonl");
    const Timeline timeline(path.string());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            timeline.append(sampleRow(strFormat("run-{}", i))).ok());

    const auto rows = timeline.load();
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    ASSERT_EQ(rows.value().size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(rows.value()[i].runId, strFormat("run-{}", i));
}

TEST(Timeline, MissingFileLoadsEmpty)
{
    const Timeline timeline(scratchFile("never_written.jsonl").string());
    const auto rows = timeline.load();
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows.value().empty());
}

TEST(Timeline, MalformedLineFailsWithPosition)
{
    const auto path = scratchFile("torn.jsonl");
    const Timeline timeline(path.string());
    ASSERT_TRUE(timeline.append(sampleRow("run-0")).ok());
    ASSERT_TRUE(
        appendFileRecord(path.string(), "{\"schema\": \"uvolt-t").ok());
    const auto rows = timeline.load();
    ASSERT_FALSE(rows.ok());
    EXPECT_NE(rows.error().message.find(":2:"), std::string::npos)
        << rows.error().message;
}

TEST(Fsio, AppendFileRecordCreatesParentsAndTerminates)
{
    const auto path = scratchFile("deep/nested/records.jsonl");
    ASSERT_TRUE(appendFileRecord(path.string(), "one").ok());
    ASSERT_TRUE(appendFileRecord(path.string(), "two\n").ok());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "one\ntwo\n"); // exactly one '\n' per record
}

TEST(Timeline, ConcurrentAppendersNeverTearRows)
{
    const auto path = scratchFile("concurrent.jsonl");
    constexpr int writers = 8;
    constexpr int rows_each = 25;

    std::vector<std::thread> pool;
    for (int w = 0; w < writers; ++w) {
        pool.emplace_back([&path, w] {
            const Timeline timeline(path.string());
            for (int i = 0; i < rows_each; ++i) {
                TimelineRow row = sampleRow(
                    strFormat("writer{}-row{}", w, i));
                // Vary the payload size so torn writes would misalign.
                row.metrics.resize(1 + (w * rows_each + i) % 3);
                ASSERT_TRUE(timeline.append(row).ok());
            }
        });
    }
    for (auto &thread : pool)
        thread.join();

    // Every row parses (no torn lines) and every writer's full set
    // arrived exactly once.
    const auto rows = Timeline(path.string()).load();
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    ASSERT_EQ(rows.value().size(),
              static_cast<std::size_t>(writers * rows_each));
    std::vector<int> seen(writers, 0);
    for (const auto &row : rows.value()) {
        int w = -1;
        ASSERT_EQ(std::sscanf(row.runId.c_str(), "writer%d-", &w), 1);
        ASSERT_GE(w, 0);
        ASSERT_LT(w, writers);
        ++seen[w];
    }
    for (int w = 0; w < writers; ++w)
        EXPECT_EQ(seen[w], rows_each);
}

TEST(Timeline, NowIso8601Shape)
{
    const std::string stamp = nowIso8601();
    ASSERT_EQ(stamp.size(), 20u);
    EXPECT_EQ(stamp[4], '-');
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp.back(), 'Z');
}

TEST(Timeline, DefaultPathHonorsEnvironment)
{
    ::setenv("UVOLT_TIMELINE", "/tmp/elsewhere.jsonl", 1);
    EXPECT_EQ(Timeline::defaultPath(), "/tmp/elsewhere.jsonl");
    ::unsetenv("UVOLT_TIMELINE");
    EXPECT_EQ(Timeline::defaultPath(), "results/timeline.jsonl");
}

} // namespace
} // namespace uvolt::harness
