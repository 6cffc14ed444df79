/**
 * @file
 * Per-test scratch space under the system temp root. ctest runs every
 * test case as its own process, in parallel, so a fixed path under
 * $TMPDIR is shared by cases that delete each other's files. Each
 * running test instead gets its own root,
 * $TMPDIR/uvolt-<Suite>.<Test>-<pid>, which a gtest listener removes
 * when the test ends.
 */

#ifndef UVOLT_TESTS_TEST_SCRATCH_HH
#define UVOLT_TESTS_TEST_SCRATCH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace uvolt::test
{

/** The scratch root of @a test (nullptr: code outside any test). */
inline std::filesystem::path
scratchRootOf(const ::testing::TestInfo *test)
{
    std::string name = test ? std::string(test->test_suite_name()) + "." +
            test->name()
                            : std::string("no-test");
    // Parameterized names contain '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return std::filesystem::temp_directory_path() /
        ("uvolt-" + name + "-" + std::to_string(::getpid()));
}

/** The running test's scratch root; nothing is created. */
inline std::filesystem::path
scratchRoot()
{
    return scratchRootOf(
        ::testing::UnitTest::GetInstance()->current_test_info());
}

/** A path inside the running test's scratch root; nothing is created. */
inline std::filesystem::path
scratchFile(const std::string &name)
{
    return scratchRoot() / name;
}

/** A fresh, empty directory inside the running test's scratch root. */
inline std::string
scratchDir(const std::string &name)
{
    const auto path = scratchFile(name);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path.string();
}

/** Removes each test's scratch root when the test ends. */
class ScratchCleanup : public ::testing::EmptyTestEventListener
{
    void
    OnTestEnd(const ::testing::TestInfo &test) override
    {
        std::error_code ec;
        std::filesystem::remove_all(scratchRootOf(&test), ec);
    }
};

inline const bool scratchCleanupInstalled = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new ScratchCleanup);
    return true;
}();

} // namespace uvolt::test

#endif // UVOLT_TESTS_TEST_SCRATCH_HH
