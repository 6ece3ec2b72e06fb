#pragma once
// Trial-level failure taxonomy and resilience knobs shared by the
// evaluation engine, the Bayesian-optimization driver, the run store, and
// the checkpoint format (docs/robustness.md).
//
// A trial that diverges (NaN objective), crashes its evaluation, or
// exceeds its wall-clock budget is a *failed trial*, not a dead search:
// the engine reports the failure class alongside the (non-finite) utility,
// the optimizer quarantines the point under a configurable policy, and the
// status is persisted so reports can tabulate failure rates.

#include <cstddef>
#include <optional>
#include <string_view>

namespace bayesft {

/// Outcome class of one candidate evaluation.
enum class TrialStatus {
    kOk = 0,            ///< finished with a finite objective
    kFailedNaN = 1,     ///< diverged: non-finite objective value
    kFailedCrash = 2,   ///< evaluation process/attempt died
    kFailedTimeout = 3  ///< exceeded the per-trial wall-clock budget
};

/// Stable short name ("ok", "failed_nan", ...) used by the run store,
/// checkpoints, and reports.
const char* trial_status_name(TrialStatus status);

/// Inverse of trial_status_name; nullopt for unknown text.
std::optional<TrialStatus> parse_trial_status(std::string_view name);

/// How the optimizer feeds failed trials to the GP surrogate.
enum class FailPolicy {
    /// Keep the quarantined point in the surrogate at `fail_penalty`, so
    /// the acquisition is actively repelled from failing regions.
    kPenalize = 0,
    /// Drop failed trials from the GP fit entirely (the surrogate stays
    /// blind to them; the trial history still records the failure).
    kExclude = 1
};

/// Fault-tolerant trial-execution knobs (docs/robustness.md).  Timeouts,
/// retries, and isolation never change a successful search's results: a
/// retried attempt replays the same deterministic candidate stream, so —
/// like the thread count — none of these fields enter scenario digests.
struct ResilienceConfig {
    /// Evaluate each self-contained candidate attempt in a one-shot
    /// forked worker (core/distrib.hpp), so a segfault/OOM in one
    /// candidate is a failed trial instead of a dead search.  Only point
    /// evaluations (arch_search) support isolation; evolving-weights
    /// searches fall back to in-process fault handling.
    bool isolate = false;
    /// Per-trial wall-clock budget in seconds; an attempt exceeding it is
    /// recorded failed_timeout (out-of-process workers are SIGKILLed at
    /// the deadline).  0 disables the timeout.
    double timeout_seconds = 0.0;
    /// Failed attempts are retried up to this many times before the trial
    /// is quarantined.
    std::size_t max_retries = 2;
    /// Base delay between retry attempts.  The actual delay is derived
    /// deterministically from the candidate seed and attempt index (never
    /// from the wall clock), growing with each attempt.
    double backoff_seconds = 0.005;
};

}  // namespace bayesft
