#pragma once
// Single-attempt execution and retry policy shared by both candidate
// evaluation paths — in-process (core/engine.cpp) and the out-of-process
// worker pool behind --isolate and --workers (core/distrib.cpp).  Internal
// to the runtime; not part of the public engine API.
//
// Both paths must classify and retry identically: chaos decisions,
// the attempt taxonomy, and the backoff delay are pure functions of the
// candidate seed and attempt index, which is what keeps a recovered trial
// bit-identical to one that never failed, on every execution path.

#include <chrono>
#include <cstdint>
#include <functional>

#include "core/trial.hpp"
#include "fault/chaos.hpp"

namespace bayesft::core {

/// Outcome of one evaluation attempt (before retry accounting).
struct AttemptResult {
    double utility = 0.0;
    TrialStatus status = TrialStatus::kOk;
};

/// Deterministic retry backoff: a pure function of the candidate seed and
/// the attempt index (never wall-clock randomness — the delay must not
/// become a covert source of nondeterminism in the trial log).  Linear in
/// the attempt number with a +-50% seed-derived jitter so retry storms
/// across a batch decorrelate.
std::chrono::microseconds backoff_duration(const ResilienceConfig& resilience,
                                           std::uint64_t candidate_seed,
                                           std::uint64_t attempt);

/// Sleeps for backoff_duration (no-op at zero).
void backoff_sleep(const ResilienceConfig& resilience,
                   std::uint64_t candidate_seed, std::uint64_t attempt);

/// One guarded in-process evaluation attempt: applies the (seeded, pure)
/// chaos decision, absorbs evaluator exceptions, classifies non-finite
/// results, and applies the post-hoc wall-clock deadline.  In-process the
/// deadline cannot preempt a stuck evaluator — that needs a worker
/// process, which is SIGKILLed; here an injected hang sleeps just past the
/// deadline and is then classified.
AttemptResult guarded_attempt(const fault::ChaosSpec& chaos,
                              const ResilienceConfig& resilience,
                              std::uint64_t candidate_seed,
                              std::uint64_t attempt,
                              const std::function<double()>& run);

/// Bounded-retry wrapper around guarded_attempt, starting at
/// `first_attempt` (> 0 when a worker attempt already failed and the
/// candidate fell back to in-process execution with its remaining retry
/// budget).  Each retry rolls fresh chaos dice (the attempt index is
/// folded into the decision) but replays the identical candidate stream,
/// so a recovered trial is bit-identical to one that never failed.
AttemptResult evaluate_with_retries(const fault::ChaosSpec& chaos,
                                    const ResilienceConfig& resilience,
                                    std::uint64_t candidate_seed,
                                    std::uint64_t first_attempt,
                                    const std::function<double()>& run);

}  // namespace bayesft::core
