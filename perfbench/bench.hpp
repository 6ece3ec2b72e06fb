#pragma once
// Shared pieces of the repository benchmark: run options, the result every
// workload fills, the benchmark's own arithmetic (medians, tail
// percentiles, open-loop lateness, server-counter deltas) and the span
// tracer that times calls into the library from the benchmark's files.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

namespace serve = bayesft::serve;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
};

/// What one run reports.  `metrics` maps a metric name to its value; the
/// unit of every name is fixed in main.cpp, next to the metric lists.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;

    /// Marks the run incorrect (and says why on stderr) when `ok` is false.
    void check(bool ok, const std::string& what);
};

/// A `# ...` line on stdout, ahead of the result line.
void note(const std::string& text);

/// "<count> (<s1> <s2> ...) s": repeat timings for a note, two decimals.
std::string seconds_list(const std::vector<double>& seconds);

// ---------------------------------------------------------------- stats --

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// The smallest of repeated timings of one workload's unit of work; 0 when
/// empty.  On a shared host the speed swings by a third over seconds, as
/// other tenants come and go: the median of a few multi-second repeats
/// follows those swings, the fastest repeat much less.
double fastest(const std::vector<double>& seconds);

/// A tail percentile and the rank it was actually taken at.
struct Tail {
    double value = 0.0;
    double p = 0.0;         ///< percentile used, in (0, 1)
    std::size_t count = 0;  ///< samples it was taken from
};

/// The `wanted` percentile (nearest rank) when at least ten samples lie
/// beyond it; otherwise the highest percentile that keeps ten samples
/// beyond it, and the median when the sample has ten values or fewer.
Tail tail_percentile(std::vector<double> values, double wanted = 0.99);

/// Open-loop timing: every request is timed from when it was due, so a
/// stall also counts against the requests queued behind it.
struct OpenLoopTimes {
    std::vector<double> latency_ms;  ///< done - due
    std::vector<double> lag_ms;      ///< sent - due (how late the generator ran)
};
OpenLoopTimes open_loop_times(const std::vector<double>& due_s,
                              const std::vector<double>& sent_s,
                              const std::vector<double>& done_s);

/// Per-counter difference of two `stats` snapshots; throws
/// std::runtime_error when a monotonic counter went backwards.
serve::ServeStats stats_delta(const serve::ServeStats& before,
                              const serve::ServeStats& after);

// ---------------------------------------------------------------- trace --

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Spans recorded around calls into the library.  Off by default; when off
/// a Span costs one load.  Aggregates are kept per span name; spans with
/// no parent on their thread are also kept as intervals so the share of a
/// window that no span covers can be computed.
class Trace {
public:
    struct Aggregate {
        std::uint64_t calls = 0;
        double total_s = 0.0;  ///< inclusive of nested spans
        std::vector<double> durations_s;
    };
    static void set_enabled(bool on);
    static void reset();
    static std::map<std::string, Aggregate> aggregates();
    /// Parent-less span intervals (all threads) as (start, end) seconds.
    static std::vector<std::pair<double, double>> top_intervals();
};

class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_;
    bool on_;
    double start_ = 0.0;
    Span* parent_ = nullptr;
};

/// Length of the union of `intervals` clipped to [lo, hi].
double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi);

// ---------------------------------------------------------------- misc --

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// A per-process scratch directory under the working directory's
/// `.bench_tmp/`, created on first use and removed by remove_scratch_dir.
const std::string& scratch_dir();
void remove_scratch_dir();

// ------------------------------------------------------------- workloads --

Result run_fig3b(const Options& options);
Result run_search(const Options& options);

/// serve/ and generator per-layer metrics: open-loop load on an in-process
/// evaluation server (serve_probe.cpp).
void serve_probe(Result& result, std::uint64_t seed);

/// Per-layer metrics every traced run reports: the GEMM / im2col / col2im /
/// transpose replay at the shapes LeNet and the search MLP issue.
void tensor_replay(Result& result);

/// Arithmetic self-test; returns the number of failed checks.
int self_test();

}  // namespace perfbench
