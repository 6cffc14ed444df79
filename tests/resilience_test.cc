/**
 * @file
 * Tests for the harsh-environment resilience layer: the error taxonomy,
 * CRC-verified retransmission, PMBus verify-after-write, spurious-crash
 * recovery in the campaign engine, sweep slicing on a live board, and
 * the hardened voltage governor.
 *
 * The central invariant under test: every maskable injected fault class
 * (frame corruption, NACKs, setpoint jitter, spurious crashes) is fully
 * absorbed by retries and recovery, so a noisy campaign's measurements
 * are bit-identical to a quiet one's.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

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
    Expected<void> bad(makeError(Errc::corruptCache, "nope"));
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

/** One slicing case: a board, quiet or harsh, and a level budget. */
struct SliceCase
{
    const char *platform;
    bool noisy;
    int maxLevels;
};

void
PrintTo(const SliceCase &c, std::ostream *out)
{
    *out << c.platform << (c.noisy ? " harsh " : " quiet ") << c.maxLevels;
}

std::vector<SliceCase>
sliceCases()
{
    std::vector<SliceCase> cases;
    for (const char *platform : {"ZC702", "KC705-A", "VC707"}) {
        for (bool noisy : {false, true}) {
            for (int max_levels = 1; max_levels <= 3; ++max_levels)
                cases.push_back({platform, noisy, max_levels});
        }
    }
    return cases;
}

class SliceContinuation : public ::testing::TestWithParam<SliceCase>
{
  protected:
    /** A fresh board of the case's platform and environment. */
    std::unique_ptr<Board>
    makeBoard() const
    {
        auto board =
            std::make_unique<Board>(fpga::findPlatform(GetParam().platform));
        if (GetParam().noisy) {
            NoiseConfig noise = NoiseConfig::harsh(5, 0.02);
            noise.spuriousCrashProb = 0.5;
            board->attachNoise(noise);
        }
        return board;
    }
};

TEST_P(SliceContinuation, EqualsUnslicedSweep)
{
    const SliceCase &c = GetParam();
    const auto whole_board = makeBoard();
    const SweepResult whole =
        runCriticalSweep(*whole_board, fastSweepOptions());
    ASSERT_FALSE(whole.truncated);

    // Slice the same campaign on one live board: each call continues
    // one step below the last measured level.
    const auto board = makeBoard();
    SweepOptions options = fastSweepOptions();
    options.maxLevels = c.maxLevels;
    SweepResult sliced;
    std::size_t slices = 0;
    for (;;) {
        const SweepResult slice = runCriticalSweep(*board, options);
        ++slices;
        EXPECT_LE(slice.points.size(),
                  static_cast<std::size_t>(c.maxLevels));
        sliced.points.insert(sliced.points.end(), slice.points.begin(),
                             slice.points.end());
        if (!slice.truncated)
            break;
        options.fromMv = sliced.points.back().vccBramMv - options.stepMv;
    }

    expectSameSweep(whole, sliced);
    for (std::size_t i = 0; i < whole.points.size(); ++i) {
        EXPECT_DOUBLE_EQ(whole.points[i].bramPowerW,
                         sliced.points[i].bramPowerW);
    }
    const std::size_t budget = static_cast<std::size_t>(c.maxLevels);
    EXPECT_EQ(slices, (whole.points.size() + budget - 1) / budget);
}

INSTANTIATE_TEST_SUITE_P(
    Boards, SliceContinuation,
    ::testing::ValuesIn(sliceCases()), [](const auto &info) {
        std::string name = info.param.platform;
        for (auto &ch : name)
            if (ch == '-')
                ch = '_';
        return name + (info.param.noisy ? "_harsh_" : "_quiet_") +
               std::to_string(info.param.maxLevels);
    });

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
