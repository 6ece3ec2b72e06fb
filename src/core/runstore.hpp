#pragma once
// The append-only JSONL run store (docs/checkpointing.md, "Run store").
// Every `experiments` invocation appends one record per observed search
// trial — scenario id, seed, decoded point, objective, build stamp — plus
// one summary record per completed run (best point, wall clock) to
// `<root>/<scenario>.jsonl`.  Unlike the `--json` flat export (one file
// per invocation, overwritten), the store accumulates across invocations
// and machines: resumed runs append only their newly observed trials, so
// an interrupted-then-resumed run's trial log concatenates to exactly the
// uninterrupted run's, and the `report` generator can aggregate
// best/mean/stddev/trials-to-target across seeds from the files alone.
//
// The per-trial records deliberately carry no wall-clock field: every
// field is a deterministic function of (scenario, seed, config), which is
// what makes the bit-identical-resume contract checkable with a plain
// line diff.  Timing lives in the summary records.

#include <cstdint>
#include <string>
#include <vector>

namespace bayesft::core {

/// One parsed run-store line.  `kind` selects which fields are meaningful:
/// "trial" records fill {trial, point, objective}; "summary" records fill
/// {trials, best_trial, best_point, best_objective, seconds, annotation}.
struct RunRecord {
    std::string kind;
    std::string scenario;
    std::string family;
    std::uint64_t seed = 0;
    std::string build;
    std::uint64_t batch = 1;
    /// Provenance only, serialized on summary records alone: trial
    /// records must stay byte-identical when a checkpoint written at one
    /// thread count is resumed at another.
    std::uint64_t threads = 0;
    /// Distributed worker count (docs/distributed.md).  Provenance only,
    /// serialized on summary records alone for the same reason as
    /// `threads`: trial logs must byte-diff clean across worker counts.
    std::uint64_t workers = 0;
    bool quick = false;
    // --- trial fields ---
    std::uint64_t trial = 0;   ///< global trial index within the search
    std::string point;         ///< decoded, human-readable
    double objective = 0.0;
    /// Trial outcome class ("ok", "failed_nan", "failed_crash",
    /// "failed_timeout"; see core/trial.hpp).  Serialized on trial
    /// records; absent in pre-robustness store files, which parse as "ok".
    std::string status = "ok";
    // --- summary fields ---
    std::uint64_t trials = 0;  ///< total observed trials (0 = no search)
    std::uint64_t best_trial = 0;
    std::string best_point;
    double best_objective = 0.0;
    double seconds = 0.0;
    std::string annotation;
};

/// Append/load access to one run-store directory.
class RunStore {
public:
    /// Uses (and lazily creates) `root` as the store directory.
    explicit RunStore(std::string root);

    const std::string& root() const { return root_; }

    /// Validates that the store can be written — creates the root
    /// directory and probes a file in it — so callers can fail fast
    /// before a long computation instead of losing its records at append
    /// time.  Throws std::runtime_error with a clear message.
    void probe() const;

    /// Appends `records` to `<root>/<scenario>.jsonl` (creating the
    /// directory and file as needed).  Throws std::runtime_error with a
    /// clear message when the directory or file cannot be written.
    void append(const std::string& scenario,
                const std::vector<RunRecord>& records);

    /// Parses one record line (the unit parse_file applies per line, and
    /// the response format of the worker pool's pipe protocol —
    /// docs/distributed.md).  False when `line` is not a complete run-store
    /// record.
    static bool parse_line(const std::string& line, RunRecord& out);

    /// Parses one JSONL file; lines that are not run-store records are
    /// skipped.  Throws std::runtime_error when the file cannot be read.
    static std::vector<RunRecord> parse_file(const std::string& path);

    /// Parses every *.jsonl under the root (sorted by filename, so the
    /// result order is stable).  An absent root yields an empty vector.
    std::vector<RunRecord> load_all() const;

    /// Serializes one record to its JSONL line (no trailing newline).
    /// Doubles are printed with 17 significant digits, so equal doubles
    /// always print identically and values round-trip exactly.
    static std::string to_json(const RunRecord& record);

private:
    std::string root_;
};

/// Aggregate view of one scenario across every stored seed, the shape the
/// `report` generator renders.
struct ScenarioSummary {
    std::string scenario;
    std::string family;
    /// Run configuration this row aggregates: quick and full-size runs
    /// (or different batch sizes) of one scenario produce separate rows —
    /// their objectives are not comparable, so pooling them would corrupt
    /// the cross-seed mean/stddev the report presents as the
    /// reproducibility measure.
    bool quick = false;
    std::uint64_t batch = 1;
    std::string build;          ///< build stamp of the latest record seen
    std::size_t runs = 0;       ///< completed runs (summary records)
    /// Complete trial series.  A series is one run identity — (quick,
    /// batch, seed) — so a --quick re-run never splices into a full-size
    /// series, and interrupted never-resumed series are excluded from
    /// every aggregate below (their truncated history would skew the
    /// reproducibility numbers).
    std::size_t seeds = 0;
    std::size_t trial_records = 0;
    /// Trial records whose status is not "ok" — quarantined (NaN /
    /// crashed / timed-out) trials, so the report can tabulate failure
    /// rates per scenario configuration (docs/robustness.md).
    std::size_t failed_trials = 0;
    bool has_search = false;    ///< any trial records at all
    // Best across all seeds:
    double best_objective = 0.0;
    std::string best_point;
    std::uint64_t best_seed = 0;
    // Across the per-seed bests:
    double mean_best = 0.0;
    double stddev_best = 0.0;
    /// Mean (across seeds) of the first 1-based trial count reaching
    /// within the target fraction of that seed's final best.
    double mean_trials_to_target = 0.0;
    double mean_seconds = 0.0;  ///< across summary records
};

/// Groups records per (family, scenario, quick, batch), resolving
/// duplicate (seed, trial) pairs latest-wins, and computes the
/// aggregates.  Ordered by family, scenario, then configuration.
/// `target_fraction` defines trials-to-target: a trial reaches target
/// when objective >= best - (1 - f) * |best|.
std::vector<ScenarioSummary> summarize_runs(
    const std::vector<RunRecord>& records, double target_fraction = 0.99);

/// Validates that `path` can be created or overwritten as a regular file
/// before any long computation runs: throws std::runtime_error with a
/// clear message when it is a directory or cannot be opened for writing.
/// Never truncates an existing file; a file created by the probe is
/// removed again.
void validate_output_file(const std::string& path);

// ---------------------------------------------------------------------------
// IEEE-754 wire codec shared by every line protocol that ships doubles
// between processes — the distributed worker pipe (docs/distributed.md)
// and the evaluation server (docs/serving.md).  A double travels as the
// 16 lowercase hex digits of its bit pattern, so values — including NaNs,
// infinities, and signed zeros — arrive bit-exactly without a decimal
// round trip (which would be a covert source of drift).
// ---------------------------------------------------------------------------

/// 64-bit identifier (digest, seed) -> 16 lowercase hex digits.
std::string format_hex(std::uint64_t value);
/// Strict inverse of format_hex: accepts 1-16 hex digits (either case)
/// and nothing else — no sign, no "0x" prefix, no trailing bytes.  False
/// leaves `out` untouched.
bool parse_hex(const std::string& text, std::uint64_t& out);
/// Double -> the 16 hex digits of its IEEE-754 bit pattern.
std::string format_bits(double value);
/// Strict inverse of format_bits (same grammar as parse_hex).
bool parse_bits(const std::string& text, double& out);

}  // namespace bayesft::core
