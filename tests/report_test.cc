/**
 * @file
 * Tests for the observability exporters and the provenance plumbing
 * underneath them: CSV quoting, JSON string escaping (through the
 * repo's own parser), histogram quantile interpolation and its
 * surfacing in the report JSON, Chrome-trace thread_name metadata,
 * the JSON parser's edge cases, and the run-provenance ledger
 * (manifest roundtrip, digest stability, and the Campaign end-to-end
 * flow leaving a loadable run_manifest.json).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.hh"
#include "harness/ledger.hh"
#include "harness/report.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"

#include "test_scratch.hh"

namespace uvolt::harness
{
namespace
{

using test::scratchDir;

// --- CSV and JSON escaping ----------------------------------------------

TEST(CsvEscaping, QuotesCommasQuotesAndNewlines)
{
    TextTable table({"name", "value"});
    table.addRow({"plain", "1"});
    table.addRow({"a,b", "he said \"hi\"\nbye"});
    std::ostringstream out;
    table.printCsv(out);
    EXPECT_EQ(out.str(),
              "name,value\n"
              "plain,1\n"
              "\"a,b\",\"he said \"\"hi\"\"\nbye\"\n");
}

TEST(JsonEscaping, ControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escaped("plain"), "plain");
    EXPECT_EQ(json::escaped("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escaped("line1\nline2\t!"), "line1\\nline2\\t!");
    EXPECT_EQ(json::escaped(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscaping, MetricsJsonSurvivesHostileNames)
{
    telemetry::MetricsSnapshot snapshot;
    snapshot.counters.emplace_back("weird \"name\"\\path\n", 7);
    snapshot.gauges.emplace_back("gauge,with\tcontrol", 1.5);
    const auto doc = json::Value::parse(metricsJson(snapshot));
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const json::Value &counters = doc.value().at("counters");
    ASSERT_EQ(counters.members().size(), 1u);
    EXPECT_EQ(counters.members()[0].first, "weird \"name\"\\path\n");
    EXPECT_DOUBLE_EQ(counters.members()[0].second.number(), 7.0);
}

// --- histogram quantiles ------------------------------------------------

telemetry::HistogramSnapshot
flatHistogram()
{
    telemetry::HistogramSnapshot h;
    h.name = "t";
    h.bounds = {10.0, 20.0, 30.0};
    h.buckets = {2, 2, 2, 0}; // bounds + overflow
    h.count = 6;
    h.sum = 90.0;
    return h;
}

TEST(HistogramQuantile, InterpolatesWithinBuckets)
{
    const telemetry::HistogramSnapshot h = flatHistogram();
    // rank 3 lands mid-way through the (10, 20] bucket.
    EXPECT_NEAR(h.p50(), 15.0, 1e-9);
    // rank 5.7 lands 85 % through the (20, 30] bucket.
    EXPECT_NEAR(h.p95(), 28.5, 1e-9);
    EXPECT_NEAR(h.p99(), 29.7, 1e-9);
}

TEST(HistogramQuantile, FirstBucketInterpolatesFromZero)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {4, 0, 0, 0};
    h.count = 4;
    EXPECT_NEAR(h.p50(), 5.0, 1e-9);
}

TEST(HistogramQuantile, OverflowClampsToLastBound)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {0, 0, 0, 5};
    h.count = 5;
    EXPECT_DOUBLE_EQ(h.p50(), 30.0);
    EXPECT_DOUBLE_EQ(h.p99(), 30.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    telemetry::HistogramSnapshot h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, SkipsEmptyLeadingBuckets)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {0, 0, 4, 0}; // all samples in (20, 30]
    h.count = 4;
    // q=0 is the low edge of the first bucket that actually holds
    // samples, not a stale bound from an empty leading bucket.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 20.0);
    EXPECT_NEAR(h.p50(), 25.0, 1e-9);
    // q=1 is the exact top of the populated range.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(HistogramQuantile, ClampsOutOfRangeAndNanQ)
{
    const telemetry::HistogramSnapshot h = flatHistogram();
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
    EXPECT_DOUBLE_EQ(
        h.quantile(std::numeric_limits<double>::quiet_NaN()),
        h.quantile(0.0));
}

TEST(HistogramQuantile, SurfacesInReportJsonAndTable)
{
    telemetry::MetricsSnapshot snapshot;
    snapshot.histograms.push_back(flatHistogram());
    const auto doc = json::Value::parse(metricsJson(snapshot));
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const json::Value &h = doc.value().at("histograms").at("t");
    EXPECT_NEAR(h.numberOr("p50", 0.0), 15.0, 1e-6);
    EXPECT_NEAR(h.numberOr("p95", 0.0), 28.5, 1e-6);
    EXPECT_NEAR(h.numberOr("p99", 0.0), 29.7, 1e-6);

    std::ostringstream table;
    metricsTable(snapshot).print(table);
    EXPECT_NE(table.str().find("p95=28.5"), std::string::npos)
        << table.str();
}

// --- Chrome trace metadata ----------------------------------------------

TEST(ChromeTrace, EmitsProcessAndThreadNameMetadata)
{
    telemetry::TraceEvent event;
    event.name = "job";
    event.startNs = 1000;
    event.durNs = 500;
    event.tid = 3;
    const std::string trace =
        chromeTraceJson({event}, {{3, "fleet-worker-3"}});

    const auto doc = json::Value::parse(trace);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const auto &events = doc.value().at("traceEvents").items();
    ASSERT_EQ(events.size(), 3u); // process_name, thread_name, span
    EXPECT_EQ(events[0].stringOr("name", ""), "process_name");
    EXPECT_EQ(events[0].stringOr("ph", ""), "M");
    EXPECT_EQ(events[1].stringOr("name", ""), "thread_name");
    EXPECT_DOUBLE_EQ(events[1].numberOr("tid", 0.0), 3.0);
    EXPECT_EQ(events[1].at("args").stringOr("name", ""),
              "fleet-worker-3");
    EXPECT_EQ(events[2].stringOr("ph", ""), "X");
}

TEST(ChromeTrace, NoMetadataWithoutThreadNames)
{
    const std::string trace = chromeTraceJson({});
    EXPECT_EQ(trace.find("thread_name"), std::string::npos);
    const auto doc = json::Value::parse(trace);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_TRUE(doc.value().at("traceEvents").items().empty());
}

TEST(ChromeTrace, PoolWorkersNameThemselves)
{
    if (!telemetry::Telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    bool done = false;
    {
        ThreadPool pool(1, "report-test-pool");
        pool.submit([&] { done = true; });
        pool.wait();
    }
    EXPECT_TRUE(done);
    bool found = false;
    for (const auto &[tid, name] :
         telemetry::Registry::global().threadNames()) {
        (void)tid;
        if (name == "report-test-pool-0")
            found = true;
    }
    EXPECT_TRUE(found);
}

// --- JSON parser edge cases ---------------------------------------------

TEST(JsonParser, ParsesTheCommonShapes)
{
    const auto doc = json::Value::parse(
        "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": null, "
        "\"d\": [true, false]}, \"s\": \"q\\\"\\\\\\n\\u00e9\"}");
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const json::Value &root = doc.value();
    const auto &a = root.at("a").items();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a[0].number(), 1.0);
    EXPECT_DOUBLE_EQ(a[1].number(), 2.5);
    EXPECT_DOUBLE_EQ(a[2].number(), -300.0);
    EXPECT_TRUE(root.at("b").at("c").isNull());
    EXPECT_TRUE(root.at("b").at("d").items()[0].boolean());
    EXPECT_FALSE(root.at("b").at("d").items()[1].boolean());
    EXPECT_EQ(root.at("s").string(), "q\"\\\n\xe9");
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    EXPECT_FALSE(json::Value::parse("").ok());
    EXPECT_FALSE(json::Value::parse("{").ok());
    EXPECT_FALSE(json::Value::parse("[1, 2").ok());
    EXPECT_FALSE(json::Value::parse("nul").ok());
    EXPECT_FALSE(json::Value::parse("{} trailing").ok());
    EXPECT_FALSE(json::Value::parse("{\"a\" 1}").ok());
    EXPECT_FALSE(json::Value::parse("\"unterminated").ok());
    const auto err = json::Value::parse("{\n\"a\": nope\n}");
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.error().code, Errc::corruptCache);
    EXPECT_NE(err.error().message.find("line 2"), std::string::npos)
        << err.error().message;
}

TEST(JsonParser, TypedLookupsFallBack)
{
    const auto doc =
        json::Value::parse("{\"n\": 4, \"s\": \"x\"}");
    ASSERT_TRUE(doc.ok());
    const json::Value &root = doc.value();
    EXPECT_DOUBLE_EQ(root.numberOr("n", -1.0), 4.0);
    EXPECT_DOUBLE_EQ(root.numberOr("missing", -1.0), -1.0);
    EXPECT_EQ(root.stringOr("s", "d"), "x");
    EXPECT_EQ(root.stringOr("missing", "d"), "d");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParser, MissingFileIsCacheMiss)
{
    const auto doc = json::Value::parseFile("/nonexistent/x.json");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.error().code, Errc::cacheMiss);
}

// --- the run-provenance ledger ------------------------------------------

RunManifest
sampleManifest()
{
    RunManifest manifest;
    manifest.runId = "deadbeef-123456";
    manifest.gitSha = "abc1234";
    manifest.startedAtIso = "2026-08-05T12:00:00Z";
    manifest.configDigest = configDigest("sample");
    manifest.jobLabels = {"VC707-p16_hFFFF-t50", "ZC702-p16_h0000-t50"};
    manifest.noiseSeeds = {0, 42};
    manifest.runsPerLevel = 15;
    manifest.stepMv = 10;
    manifest.collectPerBram = false;
    manifest.discoverRegions = true;
    manifest.maxAttemptsPerJob = 3;
    manifest.workers = 8;
    manifest.durationMs = 123.5;
    manifest.jobRetries = 1;
    manifest.crashRecoveries = 2;
    manifest.checkpointResumes = 3;
    manifest.dieRates = {{"VC707", 642.0}, {"ZC702", 151.25}};
    manifest.artifacts = {"results/ledger", "uvolt_model_cache"};
    manifest.counters = {{"fleet.jobs", 2}, {"sweep.campaigns", 2}};
    manifest.tracePath = "results/ext_serve_trace.json";
    manifest.prometheusPath = "results/ext_serve_metrics.prom";
    manifest.blackboxPaths = {"results/blackbox_degraded.json",
                              "results/blackbox_deadline_storm.json"};
    return manifest;
}

TEST(Ledger, ManifestRoundTripsThroughJson)
{
    const RunManifest manifest = sampleManifest();
    const auto parsed = RunManifest::fromJson(manifest.toJson());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const RunManifest &back = parsed.value();
    EXPECT_EQ(back.tool, manifest.tool);
    EXPECT_EQ(back.runId, manifest.runId);
    EXPECT_EQ(back.gitSha, manifest.gitSha);
    EXPECT_EQ(back.startedAtIso, manifest.startedAtIso);
    EXPECT_EQ(back.configDigest, manifest.configDigest);
    EXPECT_EQ(back.jobLabels, manifest.jobLabels);
    EXPECT_EQ(back.noiseSeeds, manifest.noiseSeeds);
    EXPECT_EQ(back.runsPerLevel, manifest.runsPerLevel);
    EXPECT_EQ(back.stepMv, manifest.stepMv);
    EXPECT_EQ(back.collectPerBram, manifest.collectPerBram);
    EXPECT_EQ(back.discoverRegions, manifest.discoverRegions);
    EXPECT_EQ(back.maxAttemptsPerJob, manifest.maxAttemptsPerJob);
    EXPECT_EQ(back.workers, manifest.workers);
    EXPECT_DOUBLE_EQ(back.durationMs, manifest.durationMs);
    EXPECT_EQ(back.jobRetries, manifest.jobRetries);
    EXPECT_EQ(back.crashRecoveries, manifest.crashRecoveries);
    EXPECT_EQ(back.checkpointResumes, manifest.checkpointResumes);
    EXPECT_EQ(back.dieRates, manifest.dieRates);
    EXPECT_EQ(back.artifacts, manifest.artifacts);
    EXPECT_EQ(back.counters, manifest.counters);
    EXPECT_EQ(back.tracePath, manifest.tracePath);
    EXPECT_EQ(back.prometheusPath, manifest.prometheusPath);
    EXPECT_EQ(back.blackboxPaths, manifest.blackboxPaths);
}

TEST(Ledger, RejectsForeignSchemas)
{
    const auto parsed = RunManifest::fromJson("{\"schema\": \"nope\"}");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, Errc::corruptCache);
}

TEST(Ledger, ConfigDigestIsStableAndDiscriminating)
{
    EXPECT_EQ(configDigest("abc"), configDigest("abc"));
    EXPECT_NE(configDigest("abc"), configDigest("abd"));
    EXPECT_EQ(configDigest("x").size(), 16u);
    EXPECT_EQ(configDigest("x").find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(Ledger, RecordWritesLatestAndHistory)
{
    const std::string dir = scratchDir("uvolt-ledger-record");
    const Ledger ledger(dir);
    const RunManifest manifest = sampleManifest();
    ASSERT_TRUE(ledger.record(manifest).ok());
    EXPECT_TRUE(std::filesystem::exists(ledger.latestPath()));
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / (manifest.runId + ".json")));

    const auto loaded = RunManifest::load(ledger.latestPath());
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value().runId, manifest.runId);
}

TEST(Ledger, LoadOfMissingManifestIsCacheMiss)
{
    const auto loaded = RunManifest::load("/nonexistent/manifest.json");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, Errc::cacheMiss);
}

TEST(Ledger, CampaignRunLeavesALoadableManifest)
{
    const std::string dir = scratchDir("uvolt-ledger-campaign");
    Campaign campaign = Campaign::onPlatform("ZC702");
    campaign.sweep(2).stepMv(50).perBramMaps(false).ledgerUnder(dir);
    const FleetResult result = campaign.run().orFatal();
    ASSERT_EQ(result.jobs.size(), 1u);

    const auto manifest = RunManifest::load(Ledger(dir).latestPath());
    ASSERT_TRUE(manifest.ok()) << manifest.error().message;
    const RunManifest &m = manifest.value();
    EXPECT_EQ(m.tool, "FleetEngine");
    EXPECT_FALSE(m.runId.empty());
    EXPECT_FALSE(m.startedAtIso.empty());
    EXPECT_EQ(m.configDigest.size(), 16u);
    ASSERT_EQ(m.jobLabels.size(), 1u);
    EXPECT_EQ(m.jobLabels[0], result.jobs[0].job.label());
    EXPECT_EQ(m.runsPerLevel, 2);
    EXPECT_EQ(m.stepMv, 50);
    EXPECT_FALSE(m.collectPerBram);
    EXPECT_EQ(m.workers, 0u); // serial run
    EXPECT_GE(m.durationMs, 0.0);
    ASSERT_EQ(m.dieRates.size(), 1u);
    EXPECT_EQ(m.dieRates[0].first, "ZC702");
}

TEST(Ledger, DisabledLedgerWritesNothing)
{
    const std::string dir = scratchDir("uvolt-ledger-disabled");
    Campaign campaign = Campaign::onPlatform("ZC702");
    campaign.sweep(1).stepMv(50).perBramMaps(false).ledgerUnder("");
    (void)campaign.run().orFatal();
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(dir) / "run_manifest.json"));
}

TEST(Ledger, IdenticalPlansShareADigestDistinctPlansDoNot)
{
    Campaign a = Campaign::onPlatform("ZC702");
    a.sweep(2).stepMv(50).perBramMaps(false);
    Campaign b = Campaign::onPlatform("ZC702");
    b.sweep(2).stepMv(50).perBramMaps(false);
    const std::string dir_a = scratchDir("uvolt-ledger-digest-a");
    const std::string dir_b = scratchDir("uvolt-ledger-digest-b");
    a.ledgerUnder(dir_a);
    b.ledgerUnder(dir_b);
    (void)a.run().orFatal();
    (void)b.run().orFatal();
    const auto ma = RunManifest::load(Ledger(dir_a).latestPath());
    const auto mb = RunManifest::load(Ledger(dir_b).latestPath());
    ASSERT_TRUE(ma.ok() && mb.ok());
    EXPECT_EQ(ma.value().configDigest, mb.value().configDigest);

    Campaign c = Campaign::onPlatform("ZC702");
    c.sweep(3).stepMv(50).perBramMaps(false);
    const std::string dir_c = scratchDir("uvolt-ledger-digest-c");
    c.ledgerUnder(dir_c);
    (void)c.run().orFatal();
    const auto mc = RunManifest::load(Ledger(dir_c).latestPath());
    ASSERT_TRUE(mc.ok());
    EXPECT_NE(ma.value().configDigest, mc.value().configDigest);
}

} // namespace
} // namespace uvolt::harness
