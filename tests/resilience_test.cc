/**
 * @file
 * Tests for the harsh-environment resilience layer: the error taxonomy,
 * CRC-verified retransmission, PMBus verify-after-write, spurious-crash
 * recovery in the campaign engine, serialized checkpoint resume, and
 * the hardened voltage governor.
 *
 * The central invariant under test: every maskable injected fault class
 * (frame corruption, NACKs, setpoint jitter, spurious crashes) is fully
 * absorbed by retries and recovery, so a noisy campaign's measurements
 * are bit-identical to a quiet one's.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/fleet.hh"
#include "harness/fvm.hh"
#include "harness/governor.hh"
#include "pmbus/board.hh"
#include "pmbus/fault_injector.hh"
#include "pmbus/serial_link.hh"
#include "util/error.hh"

namespace uvolt::harness
{
namespace
{

using pmbus::Board;
using pmbus::FaultInjector;
using pmbus::NoiseConfig;
using pmbus::SerialLink;

TEST(ErrorTaxonomy, ExpectedHoldsValueOrError)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.code(), Errc::ok);

    Expected<int> bad(makeError(Errc::linkExhausted, "gave up after {}",
                                3));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::linkExhausted);
    EXPECT_NE(bad.error().message.find("[link-exhausted]"),
              std::string::npos);
    EXPECT_NE(bad.error().message.find("gave up after 3"),
              std::string::npos);
}

TEST(ErrorTaxonomy, VoidExpectedAndNames)
{
    Expected<void> good;
    EXPECT_TRUE(good.ok());
    Expected<void> bad(makeError(Errc::badCheckpoint, "nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_STREQ(errcName(Errc::crashDetected), "crash-detected");
    EXPECT_STREQ(errcName(Errc::pmbusExhausted), "pmbus-exhausted");
    EXPECT_STREQ(errcName(Errc::recoveryExhausted), "recovery-exhausted");
}

TEST(ErrorTaxonomy, OrFatalDiesWithTaxonomyName)
{
    Expected<int> bad(makeError(Errc::verifyExhausted, "mismatch"));
    EXPECT_EXIT(std::move(bad).orFatal(), ::testing::ExitedWithCode(1),
                "verify-exhausted");
}

TEST(SerialRetry, RetransmitsUntilVerified)
{
    NoiseConfig noise;
    noise.seed = 42;
    noise.frameCorruptProb = 0.5;
    FaultInjector injector(noise);

    SerialLink link;
    link.attachInjector(&injector);
    const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};

    for (int i = 0; i < 50; ++i) {
        auto frame = link.transferReliable(payload);
        ASSERT_TRUE(frame.ok());
        EXPECT_TRUE(frame.value().verified());
        EXPECT_EQ(frame.value().payload, payload);
    }
    EXPECT_GT(link.stats().crcErrors, 0u);
    EXPECT_GT(link.stats().retransmits, 0u);
    EXPECT_GT(link.stats().backoffTicks, 0u);
    EXPECT_EQ(link.stats().exhausted, 0u);
}

TEST(SerialRetry, ExhaustionReportsLinkError)
{
    NoiseConfig noise;
    noise.frameCorruptProb = 1.0;
    FaultInjector injector(noise);

    SerialLink link;
    link.attachInjector(&injector);
    link.setMaxAttempts(3);

    auto frame = link.transferReliable({0xAA});
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.code(), Errc::linkExhausted);
    EXPECT_EQ(link.stats().exhausted, 1u);
    EXPECT_EQ(link.stats().retransmits, 2u);
}

TEST(SerialRetry, ExhaustionPropagatesThroughBoardReadback)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.frameCorruptProb = 1.0;
    board.attachNoise(noise);
    board.link().setMaxAttempts(2);
    board.device().fillAll(0xFFFF);
    board.startReferenceRun();

    auto observed = board.tryReadBramToHost(0);
    ASSERT_FALSE(observed.ok());
    EXPECT_EQ(observed.code(), Errc::linkExhausted);
}

TEST(PmbusRetry, VerifyAfterWriteConvergesUnderNoise)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.seed = 7;
    noise.pmbusNackProb = 0.1;
    noise.setpointJitterProb = 0.1;
    board.attachNoise(noise);
    board.setMaxPmbusAttempts(32);

    for (int mv = 1000; mv >= 560; mv -= 10) {
        ASSERT_TRUE(board.trySetVccBramMv(mv).ok());
        EXPECT_EQ(board.vccBramMv(), mv);
    }
    EXPECT_GT(board.pmbusStats().retries +
                  board.pmbusStats().verifyMismatches,
              0u);
    EXPECT_EQ(board.pmbusStats().exhausted, 0u);
}

TEST(PmbusRetry, ExhaustionReportsPmbusError)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.pmbusNackProb = 1.0;
    board.attachNoise(noise);
    board.setMaxPmbusAttempts(2);

    auto result = board.trySetVccBramMv(620);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), Errc::pmbusExhausted);
    EXPECT_EQ(board.pmbusStats().exhausted, 1u);
}

/** Options for a fast, fully-covered ZC702 sweep. */
SweepOptions
fastSweepOptions()
{
    SweepOptions options;
    options.runsPerLevel = 11;
    return options;
}

/** The whole point of the resilience layer, as one assertion. */
void
expectSameSweep(const SweepResult &quiet, const SweepResult &noisy)
{
    ASSERT_EQ(quiet.points.size(), noisy.points.size());
    for (std::size_t i = 0; i < quiet.points.size(); ++i) {
        const SweepPoint &a = quiet.points[i];
        const SweepPoint &b = noisy.points[i];
        EXPECT_EQ(a.vccBramMv, b.vccBramMv);
        EXPECT_EQ(a.runCounts, b.runCounts);
        EXPECT_DOUBLE_EQ(a.medianFaults, b.medianFaults);
        EXPECT_DOUBLE_EQ(a.faultsPerMbit, b.faultsPerMbit);
        EXPECT_EQ(a.perBramFaults, b.perBramFaults);
        EXPECT_DOUBLE_EQ(a.oneToZeroFraction, b.oneToZeroFraction);
    }
}

TEST(ResilientSweep, InjectedFaultsAreFullyMasked)
{
    Board quiet_board(fpga::findPlatform("ZC702"));
    const SweepResult quiet =
        runCriticalSweep(quiet_board, fastSweepOptions());
    EXPECT_EQ(quiet.resilience.crashRecoveries, 0u);
    EXPECT_EQ(quiet.resilience.linkRetransmits, 0u);
    EXPECT_EQ(quiet.resilience.pmbusRetries, 0u);

    Board noisy_board(fpga::findPlatform("ZC702"));
    NoiseConfig noise = NoiseConfig::harsh(1234, 0.02);
    noise.spuriousCrashProb = 0.5; // make the crash band bite
    noisy_board.attachNoise(noise);
    const SweepResult noisy =
        runCriticalSweep(noisy_board, fastSweepOptions());

    expectSameSweep(quiet, noisy);
    EXPECT_GT(noisy.resilience.crashRecoveries, 0u);
    EXPECT_GT(noisy.resilience.runsRetried, 0u);
    EXPECT_GT(noisy.resilience.linkRetransmits, 0u);
    EXPECT_GT(noisy.resilience.pmbusRetries, 0u);
}

TEST(ResilientSweep, ExhaustedSoftResetIsAnErrorNotAnExit)
{
    // Every rail restore goes through the verified setpoint path: with
    // one attempt under heavy NACKs the sweep's opening soft reset
    // gives up, and the caller gets the error to retry on.
    NoiseConfig noise;
    noise.seed = 3;
    noise.pmbusNackProb = 0.9;

    Board sweep_board(fpga::findPlatform("ZC702"));
    sweep_board.attachNoise(noise);
    sweep_board.setMaxPmbusAttempts(1);
    auto sweep = tryRunCriticalSweep(sweep_board, fastSweepOptions());
    ASSERT_FALSE(sweep.ok());
    EXPECT_EQ(sweep.code(), Errc::pmbusExhausted);

    Board region_board(fpga::findPlatform("ZC702"));
    region_board.attachNoise(noise);
    region_board.setMaxPmbusAttempts(1);
    auto regions = tryDiscoverRegions(region_board, fpga::RailId::VccBram);
    ASSERT_FALSE(regions.ok());
    EXPECT_EQ(regions.code(), Errc::pmbusExhausted);
}

TEST(ResilientSweep, FleetRetriesAnExhaustedSoftReset)
{
    // Under this NACK stream the first attempt's board runs out of
    // PMBus attempts while a soft reset restores the rails; the fleet's
    // reseeded retry then completes the job with the quiet result.
    NoiseConfig noise;
    noise.seed = 16;
    noise.pmbusNackProb = 0.3;
    Board first_attempt(fpga::findPlatform("ZC702"));
    first_attempt.setAmbientC(50.0);
    first_attempt.attachNoise(noise);
    auto failed = tryRunCriticalSweep(first_attempt, fastSweepOptions());
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), Errc::pmbusExhausted);

    FleetPlan quiet = FleetPlan::crossProduct(
        {"ZC702"}, {PatternSpec::allOnes()}, {50.0});
    quiet.runsPerLevel = fastSweepOptions().runsPerLevel;
    FleetPlan noisy = quiet;
    noisy.jobs.front().noise = noise;
    FleetEngine engine;
    auto quiet_result = engine.run(quiet);
    auto noisy_result = engine.run(noisy);
    ASSERT_TRUE(quiet_result.ok());
    ASSERT_TRUE(noisy_result.ok()) << noisy_result.error().message;
    EXPECT_EQ(noisy_result.value().jobs.front().attempts, 2);
    expectSameSweep(quiet_result.value().jobs.front().sweep,
                    noisy_result.value().jobs.front().sweep);
}

TEST(ResilientSweep, DiscoverRegionsSurvivesNoise)
{
    Board quiet_board(fpga::findPlatform("ZC702"));
    const RegionResult quiet =
        discoverRegions(quiet_board, fpga::RailId::VccBram);

    Board noisy_board(fpga::findPlatform("ZC702"));
    NoiseConfig noise = NoiseConfig::harsh(99, 0.02);
    noise.spuriousCrashProb = 0.5;
    noisy_board.attachNoise(noise);
    const RegionResult noisy =
        discoverRegions(noisy_board, fpga::RailId::VccBram);

    EXPECT_EQ(quiet.vminMv, noisy.vminMv);
    EXPECT_EQ(quiet.vcrashMv, noisy.vcrashMv);
}

TEST(Checkpoint, StreamRoundTrip)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepCheckpoint checkpoint;
    SweepOptions options = fastSweepOptions();
    options.maxLevels = 2;
    options.checkpoint = &checkpoint;
    const SweepResult partial = runCriticalSweep(board, options);
    EXPECT_TRUE(partial.truncated);
    ASSERT_TRUE(checkpoint.valid);

    std::stringstream stream;
    saveCheckpoint(checkpoint, stream);
    auto loaded = loadCheckpoint(stream);
    ASSERT_TRUE(loaded.ok());
    const SweepCheckpoint &restored = loaded.value();
    EXPECT_EQ(restored.platform, checkpoint.platform);
    EXPECT_EQ(restored.currentLevelMv, checkpoint.currentLevelMv);
    EXPECT_EQ(restored.runsStarted, checkpoint.runsStarted);
    EXPECT_EQ(restored.currentRunCounts, checkpoint.currentRunCounts);
    ASSERT_EQ(restored.completedPoints.size(),
              checkpoint.completedPoints.size());
    for (std::size_t i = 0; i < restored.completedPoints.size(); ++i) {
        EXPECT_EQ(restored.completedPoints[i].runCounts,
                  checkpoint.completedPoints[i].runCounts);
        EXPECT_EQ(restored.completedPoints[i].perBramFaults,
                  checkpoint.completedPoints[i].perBramFaults);
    }
}

TEST(Checkpoint, RejectsGarbage)
{
    std::stringstream stream("not a checkpoint at all");
    auto loaded = loadCheckpoint(stream);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), Errc::badCheckpoint);
}

TEST(Checkpoint, ResumedSweepEqualsUninterrupted)
{
    Board reference_board(fpga::findPlatform("ZC702"));
    const SweepResult reference =
        runCriticalSweep(reference_board, fastSweepOptions());

    // First process: measure two levels, then "die". Ship the
    // checkpoint through its serialized form, as a real resume would.
    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepOptions options = fastSweepOptions();
        options.maxLevels = 2;
        options.checkpoint = &checkpoint;
        const SweepResult partial = runCriticalSweep(board, options);
        EXPECT_TRUE(partial.truncated);
        EXPECT_EQ(partial.points.size(), 2u);
    }
    std::stringstream stream;
    saveCheckpoint(checkpoint, stream);
    auto reloaded = loadCheckpoint(stream);
    ASSERT_TRUE(reloaded.ok());
    SweepCheckpoint resumed_checkpoint = reloaded.take();

    // Second process: fresh board, resume, finish the campaign.
    Board resumed_board(fpga::findPlatform("ZC702"));
    SweepOptions options = fastSweepOptions();
    options.checkpoint = &resumed_checkpoint;
    const SweepResult resumed = runCriticalSweep(resumed_board, options);
    EXPECT_FALSE(resumed.truncated);
    EXPECT_EQ(resumed.resilience.checkpointResumes, 1u);
    EXPECT_FALSE(resumed_checkpoint.valid);

    expectSameSweep(reference, resumed);
}

TEST(Checkpoint, ResumeUnderNoiseStillMatches)
{
    Board reference_board(fpga::findPlatform("ZC702"));
    const SweepResult reference =
        runCriticalSweep(reference_board, fastSweepOptions());

    NoiseConfig noise = NoiseConfig::harsh(5, 0.02);
    noise.spuriousCrashProb = 0.5;

    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        board.attachNoise(noise);
        SweepOptions options = fastSweepOptions();
        options.maxLevels = 3;
        options.checkpoint = &checkpoint;
        runCriticalSweep(board, options);
    }

    Board resumed_board(fpga::findPlatform("ZC702"));
    resumed_board.attachNoise(noise);
    SweepOptions options = fastSweepOptions();
    options.checkpoint = &checkpoint;
    const SweepResult resumed = runCriticalSweep(resumed_board, options);

    expectSameSweep(reference, resumed);
}

TEST(Checkpoint, ValidationRejectsWrongBoard)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepCheckpoint checkpoint;
    SweepOptions options = fastSweepOptions();
    options.maxLevels = 1;
    options.checkpoint = &checkpoint;
    runCriticalSweep(board, options);
    ASSERT_TRUE(checkpoint.valid);

    Board other(fpga::findPlatform("VC707"));
    SweepOptions resume = fastSweepOptions();
    resume.checkpoint = &checkpoint;
    EXPECT_EXIT(runCriticalSweep(other, resume),
                ::testing::ExitedWithCode(1), "checkpoint belongs to");
}

TEST(SweepQueries, MissingLevelReportsAvailableLevels)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepOptions options = fastSweepOptions();
    const SweepResult sweep = runCriticalSweep(board, options);
    // The context-rich fatal(): names the missing level AND what the
    // sweep actually measured.
    EXPECT_EXIT(sweep.at(9999), ::testing::ExitedWithCode(1),
                "no point at 9999 mV.*level");
}

/** Characterize a quiet board so a governor can pick canaries. */
Fvm
characterize(Board &board)
{
    SweepOptions options;
    options.runsPerLevel = 5;
    const SweepResult sweep = runCriticalSweep(board, options);
    return fvmFromSweep(sweep, board.device().floorplan());
}

TEST(HardenedGovernor, HoldsSetpointOnUncertainReads)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);

    NoiseConfig noise;
    noise.frameCorruptProb = 1.0; // every canary read is uncertain
    board.attachNoise(noise);
    board.link().setMaxAttempts(2);

    VoltageGovernor governor(board, fvm, {});
    const int initial = governor.setpointMv();

    for (int i = 0; i < 5; ++i) {
        const GovernorStep step = governor.step();
        EXPECT_EQ(step.health, GovernorHealth::heldUncertain);
        EXPECT_EQ(step.commandedMv, initial);
        EXPECT_FALSE(step.backedOff);
        EXPECT_GT(step.linkRetries, 0u);
    }
    EXPECT_EQ(governor.setpointMv(), initial);
}

TEST(HardenedGovernor, RecoversAndBacksOffAfterSpuriousCrash)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);

    NoiseConfig noise;
    noise.seed = 11;
    noise.spuriousCrashProb = 1.0;
    noise.crashBandMv = 10000; // crash anywhere, not just near Vcrash
    board.attachNoise(noise);

    VoltageGovernor governor(board, fvm, {});

    bool recovered = false;
    for (int i = 0; i < 400 && !recovered; ++i) {
        const int before = governor.setpointMv();
        const GovernorStep step = governor.step();
        if (step.health == GovernorHealth::recovered) {
            recovered = true;
            EXPECT_TRUE(step.backedOff);
            EXPECT_GE(step.commandedMv, before);
            EXPECT_TRUE(board.donePin());
        }
    }
    EXPECT_TRUE(recovered);
}

TEST(HardenedGovernor, QuietEnvironmentBehavesAsBefore)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);
    VoltageGovernor governor(board, fvm, {});
    const auto trace = governor.settle();
    ASSERT_FALSE(trace.empty());
    for (const GovernorStep &step : trace)
        EXPECT_EQ(step.health, GovernorHealth::ok);
    EXPECT_GE(governor.setpointMv(),
              board.spec().calib.bramVcrashMv);
    EXPECT_LT(governor.setpointMv(), board.spec().vnomMv);
}

} // namespace
} // namespace uvolt::harness
