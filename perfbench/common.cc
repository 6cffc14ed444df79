#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench
{

double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::size_t
hostWorkers()
{
    // The CPUs this process may run on (what `nproc` prints), not the
    // machine's: a container may be pinned to fewer.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
medianSetupSeconds(int reps, const std::function<void()> &setup)
{
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        setup();
        seconds.push_back(msSince(start) / 1e3);
    }
    return median(seconds);
}

void
Digest::add(std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        state_ ^= (value >> (8 * byte)) & 0xFF;
        state_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::string_view text)
{
    add(static_cast<std::uint64_t>(text.size()));
    for (unsigned char c : text) {
        state_ ^= c;
        state_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buffer;
}

void
addSweep(Digest &digest, const uvolt::harness::SweepResult &sweep)
{
    digest.add(sweep.platform);
    digest.add(sweep.dieId);
    digest.add(sweep.pattern.label());
    digest.add(static_cast<std::uint64_t>(std::llround(sweep.ambientC)));
    digest.add(static_cast<std::uint64_t>(sweep.points.size()));
    for (const auto &point : sweep.points) {
        digest.add(static_cast<std::uint64_t>(point.vccBramMv));
        for (double count : point.runCounts)
            digest.add(static_cast<std::uint64_t>(std::llround(count)));
        digest.add(static_cast<std::uint64_t>(point.perBramFaults.size()));
        for (int faults : point.perBramFaults)
            digest.add(static_cast<std::uint64_t>(faults));
    }
}

std::string
sweepDigest(const uvolt::harness::SweepResult &sweep)
{
    Digest digest;
    addSweep(digest, sweep);
    return digest.hex();
}

int
Tracer::find(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<int>(i);
    }
    return -1;
}

int
Tracer::layer(const std::string &name)
{
    if (const int id = find(name); id >= 0)
        return id;
    names_.push_back(name);
    busyNs_.push_back(0);
    topNs_.push_back(0);
    calls_.push_back(0);
    return static_cast<int>(names_.size() - 1);
}

namespace
{

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Spans kept for the Chrome-trace export; totals keep counting. */
constexpr std::size_t maxKeptSpans = 200000;

} // namespace

void
Tracer::begin(int layer)
{
    stack_.push_back({layer, steadyNs()});
}

void
Tracer::end()
{
    const Open open = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = steadyNs() - open.startNs;
    const auto layer = static_cast<std::size_t>(open.layer);
    busyNs_[layer] += dur;
    ++calls_[layer];
    if (stack_.empty()) {
        topNs_[layer] += dur;
        topLevelNs_ += dur;
    }
    if (spans_.size() < maxKeptSpans)
        spans_.push_back({open.layer, open.startNs, dur,
                          static_cast<int>(stack_.size())});
}

double
Tracer::busyMs(const std::string &name) const
{
    const int id = find(name);
    return id < 0 ? 0.0
                  : static_cast<double>(busyNs_[static_cast<std::size_t>(id)]) /
                        1e6;
}

bool
Tracer::partitionsTopLevel(const std::vector<std::string> &names) const
{
    std::uint64_t covered = 0;
    for (const auto &name : names) {
        const int id = find(name);
        if (id < 0)
            continue;
        const auto layer = static_cast<std::size_t>(id);
        if (topNs_[layer] != busyNs_[layer])
            return false;
        covered += topNs_[layer];
    }
    return covered == topLevelNs_;
}

std::uint64_t
Tracer::calls(const std::string &name) const
{
    const int id = find(name);
    return id < 0 ? 0 : calls_[static_cast<std::size_t>(id)];
}

bool
Tracer::writeChromeTrace(const std::string &path, std::size_t cap) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    const std::size_t count = std::min(cap, spans_.size());
    for (std::size_t i = 0; i < count; ++i) {
        const Span &span = spans_[i];
        if (i)
            out << ',';
        out << "{\"name\":" << jsonString(names_[static_cast<std::size_t>(
                                   span.layer)])
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << jsonNumber(static_cast<double>(span.startNs - origin) / 1e3)
            << ",\"dur\":" << jsonNumber(static_cast<double>(span.durNs) / 1e3)
            << ",\"args\":{\"depth\":" << span.depth << "}}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    for (auto &[existing, encoded] : metrics_) {
        if (existing == name) {
            encoded = "{\"value\":" + jsonNumber(value) +
                      ",\"unit\":" + jsonString(unit) + "}";
            return;
        }
    }
    metrics_.emplace_back(name, "{\"value\":" + jsonNumber(value) +
                                    ",\"unit\":" + jsonString(unit) + "}");
}

void
Report::gate(const std::string &name, bool ok, std::uint64_t ops,
             const std::string &detail)
{
    if (!ok) {
        failed_ += std::max<std::uint64_t>(ops, 1); // a failed gate fails the run
        std::fprintf(stderr, "perfbench: gate %s FAILED: %s\n",
                     name.c_str(), detail.c_str());
    }
    gates_.push_back("{\"name\":" + jsonString(name) +
                     ",\"ok\":" + (ok ? "true" : "false") +
                     ",\"ops\":" + std::to_string(ops) +
                     ",\"detail\":" + jsonString(detail) + "}");
}

void
Report::digest(const std::string &name, const std::string &hex,
               std::uint64_t ops)
{
    digests_.push_back("{\"name\":" + jsonString(name) +
                       ",\"value\":" + jsonString(hex) +
                       ",\"ops\":" + std::to_string(ops) + "}");
}

void
Report::info(const std::string &name, const std::string &json_value)
{
    info_.emplace_back(name, json_value);
}

void
reportEndToEnd(Report &report, double setup_s, const EndToEnd &e2e)
{
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.metric("throughput_per_s", e2e.throughputPerS, "1/s");
    report.metric("latency_ms_p50", e2e.latencyP50Ms, "ms");
    report.metric("latency_ms_tail", e2e.latencyTailMs, "ms");
}

void
reportTraceOverhead(Report &report, const EndToEnd &untraced,
                    const EndToEnd &traced)
{
    // Positive = tracing made the figure worse.
    const auto pct = [](double worse, double base) {
        return base > 0.0 ? 100.0 * (worse / base - 1.0) : 0.0;
    };
    report.layer("trace_overhead.throughput_pct",
                 pct(untraced.throughputPerS, traced.throughputPerS));
    report.layer("trace_overhead.latency_p50_pct",
                 pct(traced.latencyP50Ms, untraced.latencyP50Ms));
    report.layer("trace_overhead.latency_tail_pct",
                 pct(traced.latencyTailMs, untraced.latencyTailMs));
}

std::string
Report::json() const
{
    std::string out = "{\"workload\":" + jsonString(workload_) +
                      ",\"correct\":" + (ok() ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(metrics_[i].first) + ":" + metrics_[i].second;
    }
    out += "},\"gates\":[";
    for (std::size_t i = 0; i < gates_.size(); ++i)
        out += (i ? "," : "") + gates_[i];
    out += "],\"digests\":[";
    for (std::size_t i = 0; i < digests_.size(); ++i)
        out += (i ? "," : "") + digests_[i];
    out += "],\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(info_[i].first) + ":" + info_[i].second;
    }
    return out + "}}";
}

} // namespace perfbench
