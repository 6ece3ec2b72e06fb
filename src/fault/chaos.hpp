#pragma once
// Chaos harness for the search runtime itself (docs/robustness.md): a
// seeded, purely deterministic hook that injects crashes, hangs, NaN
// objectives, and spawn failures into candidate evaluation, so the
// fault-tolerant trial execution paths (timeout, retry, quarantine, the
// out-of-process worker pool and its spawn watchdog) can be
// torture-tested.
//
// Every injection decision is a pure function of (spec seed, candidate
// seed, attempt index) — never of the wall clock, thread schedule, or
// evaluation order — so a chaos run is exactly reproducible and the
// determinism-under-failure contract is checkable bit for bit: a run with
// injected failures and retries must produce the same best point and
// trial log as a failure-free run.

#include <cstdint>

namespace bayesft::fault {

/// What the chaos hook does to one evaluation attempt.
enum class ChaosAction {
    kNone = 0,   ///< evaluate normally
    kCrash = 1,  ///< the attempt fails, reported as failed_crash
    kHang = 2,   ///< block past the trial deadline
    kNaN = 3     ///< evaluate, then replace the objective with NaN
};

/// Per-action injection probabilities, parsed from the environment.
struct ChaosSpec {
    double crash = 0.0;  ///< P(kCrash) per attempt
    double hang = 0.0;   ///< P(kHang) per attempt
    double nan = 0.0;    ///< P(kNaN) per attempt
    /// P(simulated spawn failure) per worker spawn of the out-of-process
    /// pool (drawn per (slot, respawn)), exercising the watchdog that
    /// degrades the pool back to in-process evaluation.
    double spawn = 0.0;
    /// P(the worker process aborts) per out-of-process attempt, under
    /// `--isolate` and `--workers` alike (docs/distributed.md).  Unlike
    /// `crash` — a failed attempt the worker reports — this kills the
    /// worker itself, so the coordinator must detect the death, reap it,
    /// and re-dispatch the candidate.
    double worker_crash = 0.0;
    /// Stream selector: two chaos runs with different seeds inject into
    /// different candidates.
    std::uint64_t seed = 0;

    bool any() const {
        return crash > 0.0 || hang > 0.0 || nan > 0.0 || spawn > 0.0 ||
               worker_crash > 0.0;
    }

    /// Parses `BAYESFT_CHAOS`
    /// ("crash:0.3,hang:0.1,nan:0.05,spawn:0.2,worker_crash:0.3";
    /// unknown/malformed entries are ignored) and `BAYESFT_CHAOS_SEED`.
    /// An unset variable yields an all-zero spec (chaos off).
    static ChaosSpec from_env();
};

/// The injection decision for one evaluation attempt.  Pure: identical
/// (spec, candidate_seed, attempt) always decide identically, and the
/// attempt index is folded in so a retried attempt rolls fresh dice — an
/// injected failure with p < 1 is recoverable, while p == 1 fails every
/// attempt and exercises quarantine.
ChaosAction chaos_decide(const ChaosSpec& spec, std::uint64_t candidate_seed,
                         std::uint64_t attempt);

/// Whether to simulate a worker-spawn failure.  The worker pool keys it
/// by (slot tag, respawn count) in place of (candidate seed, attempt); it
/// draws on an independent stream from chaos_decide, so spawn chaos
/// composes with the others.
bool chaos_spawn_failure(const ChaosSpec& spec, std::uint64_t candidate_seed,
                         std::uint64_t attempt);

/// Whether an out-of-process worker aborts while evaluating this attempt
/// (stream 3, independent of the other injections).  Pure in
/// (spec, candidate_seed, attempt): the same attempt kills its worker in
/// every run at every worker count, which is what makes the
/// bit-identical-under-chaos contract of docs/distributed.md checkable.
bool chaos_worker_crash(const ChaosSpec& spec, std::uint64_t candidate_seed,
                        std::uint64_t attempt);

}  // namespace bayesft::fault
