/**
 * @file
 * Shared plumbing of the perfbench program: command line, the result
 * document, percentile helpers, content digests of simulated
 * statistics, and the span tracer the traced mode wraps around every
 * call into a library layer.
 *
 * Timings are host wall time (steady_clock). Simulated statistics are
 * never reported as speed: they are folded into digests and compared
 * for exact equality.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @a start. */
double msSince(Clock::time_point start);

/** Milliseconds between two instants. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** Parsed command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured time budget of the run
    bool trace = false;     ///< per-layer (traced) mode
    std::string spansOut;   ///< Chrome-trace file of recorded spans
};

/** Worker count for every pool: the host's CPUs, at least one. */
std::size_t hostWorkers();

/** Linear-interpolated percentile (p in [0, 1]); 0 for no samples. */
double percentile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/**
 * Run @a setup @a reps times and return the median wall time in
 * seconds (the setup_s metric: repeated so one noisy pass cannot move
 * it).
 */
double medianSetupSeconds(int reps, const std::function<void()> &setup);

/** FNV-1a over integers and strings: digest of simulated statistics. */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(std::string_view text);
    std::string hex() const;

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/**
 * Fold the simulated statistics of one sweep into @a digest: identity,
 * every level, every run count, and every per-BRAM map. Host-dependent
 * floating-point products (power, rates) are left out on purpose.
 */
void addSweep(Digest &digest, const uvolt::harness::SweepResult &sweep);

/** Canonical digest of one sweep. */
std::string sweepDigest(const uvolt::harness::SweepResult &sweep);

/**
 * In-memory span recorder. Layers are registered once by name; a span
 * charges its whole duration to its layer, so a nested span's time is
 * also inside its enclosing span's. Single-threaded.
 */
class Tracer
{
  public:
    int layer(const std::string &name);

    void begin(int layer);
    void end();

    /** Total busy milliseconds and call count of one layer. */
    double busyMs(const std::string &name) const;
    std::uint64_t calls(const std::string &name) const;

    /**
     * True when the spans of @a names are exactly the top-level spans:
     * every span of those layers opened with no span open, and no span
     * of another layer did. A unit's layers + residual only add up to
     * its wall time when this holds: a nested layer in the list would
     * be counted twice, a missing top-level one hidden in the residual.
     * Compared in whole nanoseconds, so the check is exact.
     */
    bool partitionsTopLevel(const std::vector<std::string> &names) const;

    /** Write up to @a cap spans as Chrome-trace JSON; false on I/O. */
    bool writeChromeTrace(const std::string &path, std::size_t cap) const;

  private:
    struct Open
    {
        int layer;
        std::uint64_t startNs;
    };
    struct Span
    {
        int layer;
        std::uint64_t startNs;
        std::uint64_t durNs;
        int depth;
    };

    int find(const std::string &name) const;

    std::vector<std::string> names_;
    std::vector<std::uint64_t> busyNs_;
    std::vector<std::uint64_t> topNs_; ///< busy time of depth-0 spans
    std::vector<std::uint64_t> calls_;
    std::uint64_t topLevelNs_ = 0;
    std::vector<Open> stack_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer (untraced mode) records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, int layer) : tracer_(tracer)
    {
        if (tracer_)
            tracer_->begin(layer);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/** The result document one run prints as its last stdout line. */
class Report
{
  public:
    explicit Report(std::string workload) : workload_(std::move(workload))
    {
    }

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Operations attempted by the measured phases. */
    void attempt(std::uint64_t ops) { attempted_ += ops; }

    /**
     * A correctness gate. A failed gate counts @a ops operations (at
     * least one) as failed and makes the run exit nonzero.
     */
    void gate(const std::string &name, bool ok, std::uint64_t ops,
              const std::string &detail = {});

    /**
     * A digest of seed-independent simulated statistics; the runner
     * compares it against perfbench/expected.json and charges @a ops
     * failed operations on a mismatch.
     */
    void digest(const std::string &name, const std::string &hex,
                std::uint64_t ops);

    /** Free-form detail (a JSON value, already encoded). */
    void info(const std::string &name, const std::string &json_value);

    /** A per-layer value of the traced mode (see perLayerRows()). */
    void layer(const std::string &name, double value)
    {
        layers_[name] = value;
    }
    const std::map<std::string, double> &layers() const { return layers_; }

    bool ok() const { return failed_ == 0; }
    std::string json() const;

  private:
    std::string workload_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::vector<std::string> gates_;
    std::vector<std::string> digests_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::map<std::string, double> layers_;
};

/** The end-to-end figures of one measured phase. */
struct EndToEnd
{
    double throughputPerS = 0.0; ///< units of work per second
    double latencyP50Ms = 0.0;   ///< median unit latency
    double latencyTailMs = 0.0;  ///< tail unit latency (p90 or p99)
};

/** Report the end-to-end metrics (untraced mode) plus peak RSS. */
void reportEndToEnd(Report &report, double setup_s, const EndToEnd &e2e);

/** Traced-mode cost of tracing: traced vs untraced phase, percent. */
void reportTraceOverhead(Report &report, const EndToEnd &untraced,
                         const EndToEnd &traced);

/** JSON number with every digit (finite values only; else 0). */
std::string jsonNumber(double value);

/** JSON string literal. */
std::string jsonString(std::string_view text);

// Workload entry points (one translation unit each).
void runSweepFleet(const Args &args, Report &report);
void runSweepHarsh(const Args &args, Report &report);
void runNnEval(const Args &args, Report &report);
void runServeOpen(const Args &args, Report &report);

/**
 * The serve layer's traced rows (serve.*, request.*) from an open-loop
 * session of @a seconds on the serve_open traffic mix; nn_eval's traced
 * run appends it so the gated workloads still measure that layer.
 */
void traceServeLayer(const Args &args, double seconds, Report &report);

/**
 * Per-layer rows every traced run reports, so the traced output of any
 * workload carries the full set; a layer the workload never enters
 * reads 0 with 0 calls. Registered here, filled by the workloads.
 */
const std::vector<std::pair<std::string, std::string>> &perLayerRows();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
