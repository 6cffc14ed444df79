/**
 * @file
 * `uvolt [scenario...]`: runs the named scenarios (bench/scenario.hh),
 * or all of them in name order. Run it from the repository root: tables
 * land in results/ under the working directory, and the NN scenarios
 * look for ./uvolt_model_cache (or UVOLT_CACHE_DIR). It exits 2 on an
 * unknown name, listing the registered ones, and 1 if any scenario
 * failed its own check or an Output::emit(), naming each such scenario.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "scenario.hh"
#include "util/logging.hh"

namespace uvolt::scenario
{
namespace
{

struct Scenario
{
    const char *title;
    Fn fn;
};

std::map<std::string, Scenario> &
registry()
{
    static std::map<std::string, Scenario> scenarios;
    return scenarios;
}

} // namespace

bool
add(const char *name, const char *title, Fn fn)
{
    if (!registry().emplace(name, Scenario{title, fn}).second)
        panic("scenario '{}' is registered twice", name);
    return true;
}

void
Output::emit(const TextTable &table, const std::string &stem)
{
    table.print(std::cout);
    if (!stems_.insert(stem).second) {
        std::fprintf(stderr, "uvolt: results/%s.csv was already written "
                     "in this run\n", stem.c_str());
        ++failures_;
    } else if (!writeCsv(table, "results/" + stem + ".csv")) {
        ++failures_;
    }
}

} // namespace uvolt::scenario

int
main(int argc, char **argv)
{
    using namespace uvolt::scenario;

    std::vector<std::string> names(argv + 1, argv + argc);
    if (names.empty()) {
        for (const auto &entry : registry())
            names.push_back(entry.first);
    }
    for (const std::string &name : names) {
        if (registry().count(name))
            continue;
        std::fprintf(stderr, "uvolt: unknown scenario '%s'; registered:\n",
                     name.c_str());
        for (const auto &entry : registry())
            std::fprintf(stderr, "  %s\n", entry.first.c_str());
        return 2;
    }

    Output out;
    std::string failed;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Scenario &scenario = registry().at(names[i]);
        std::printf("%s# %s\n\n", i ? "\n" : "", scenario.title);
        const std::size_t failures = out.failures();
        if (!scenario.fn(out) || out.failures() != failures)
            failed += " " + names[i];
        std::fflush(stdout);
    }
    if (failed.empty())
        return 0;
    std::fprintf(stderr, "uvolt: failed:%s\n", failed.c_str());
    return 1;
}
