#pragma once
// Batched candidate-evaluation engine: the service between a proposal rule
// (GP suggest_batch, random sampling, ...) and the expensive train-and-score
// of one dropout configuration alpha.
//
// A batch of q candidates is evaluated concurrently on per-candidate model
// replicas (ModelHandle::clone + deterministic per-candidate RNG streams),
// and the winning candidate's trained replica is adopted as the new model
// state, so the propose/evaluate pipeline is decoupled from the strictly
// serial suggest -> train -> observe loop.
//
// Determinism contract:
//   - q == 1 evaluates in place on the caller's model with the caller's RNG,
//     bit-identical to the historical serial loop.
//   - q > 1 derives each candidate's RNG purely from (context key, stamp,
//     alpha), so results are invariant to thread count and scheduling.
//
// A memoization cache keyed on (context key, stamp, alpha) makes repeated /
// duplicate proposals free; the context key should digest everything else
// the utility depends on (seed nonce, drift sigma set, MC sample count) and
// the stamp must be bumped whenever the underlying model weights change.
//
// Self-contained point evaluations (evaluate_points) can also run out of
// process, on the one executor in core/distrib.hpp: a WorkerPool of
// one-shot workers under ResilienceConfig::isolate, or of persistent
// workers under EngineConfig::workers.  Either way the outcome is
// bit-identical to in-process evaluation.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trial.hpp"
#include "fault/chaos.hpp"
#include "models/zoo.hpp"
#include "utils/rng.hpp"

namespace bayesft::core {

/// One candidate's dropout-rate vector.
using Alpha = std::vector<double>;

/// Trains/scores one candidate: the handle already has `alpha` installed;
/// the evaluator may train the handle's network in place and must return
/// the candidate's utility using only `rng` for stochastic draws.  Called
/// concurrently on per-candidate replicas when q > 1, so it must not touch
/// shared mutable state outside the handle it is given.
using CandidateEvaluator =
    std::function<double(models::ModelHandle& model, const Alpha& alpha,
                         Rng& rng)>;

/// Trains/scores one self-contained candidate identified only by its
/// encoded search-space point (e.g. a ParamSpace point that the evaluator
/// decodes and builds a model from).  Must derive all stochastic draws from
/// `rng` and touch no shared mutable state; called concurrently.
using PointEvaluator =
    std::function<double(const Alpha& encoded, Rng& rng)>;


/// FNV-1a style mixing used to build engine context keys.  The overloads
/// fold doubles (bitwise), integers, and strings (e.g. a FaultModel's
/// describe() output) into one digest; all are pure functions.
std::uint64_t mix_key(std::uint64_t seed, const double* values,
                      std::size_t count);
std::uint64_t mix_key(std::uint64_t seed, std::uint64_t value);
std::uint64_t mix_key(std::uint64_t seed, std::string_view text);

/// Engine knobs.  An EvaluationEngine instance is NOT thread-safe itself
/// (its memo cache is unsynchronized): drive one engine from one thread;
/// the engine parallelizes the candidate evaluations internally.
struct EngineConfig {
    /// Maximum candidates evaluated concurrently; 0 = thread-pool width.
    std::size_t threads = 0;
    /// Enables the (context, stamp, alpha) -> utility memoization cache.
    bool cache = true;
    /// Fault-tolerant trial execution: isolation, timeout, retries
    /// (docs/robustness.md).  None of it changes a successful evaluation's
    /// result — retried attempts replay the same candidate stream.
    ResilienceConfig resilience;
    /// Failure-injection hook for the chaos torture tests, read from
    /// BAYESFT_CHAOS at config construction (all-zero, i.e. off, when the
    /// variable is unset).
    fault::ChaosSpec chaos = fault::ChaosSpec::from_env();
    /// Distributed evaluation (docs/distributed.md): fork this many
    /// persistent worker processes and farm self-contained point
    /// evaluations to them over the run-store wire protocol.  0 evaluates
    /// in-process (the default); >= 1 always exercises the worker path,
    /// so `workers = 1` already proves the pipe protocol.  Like `threads`
    /// this is result-invariant — the search outcome is bit-identical for
    /// every worker count.  Only evaluate_points supports it (a persistent
    /// worker keeps the evaluator it was forked with, so the evaluator
    /// must be stable across calls, and candidates must be
    /// self-contained); evaluate_batch ignores it.
    std::size_t workers = 0;
};

/// Identifies the evaluation environment for caching and RNG derivation.
struct EvalContext {
    /// Digest of everything the utility depends on besides alpha and the
    /// model weights (seed nonce, fault-model configuration, MC samples,
    /// epochs, ...).  Build it with objective_digest + mix_key.
    std::uint64_t key = 0;
    /// Version of the model weights; bump after every adoption/training so
    /// stale utilities are never reused.  Self-contained point evaluations
    /// (evaluate_points) have no evolving weights, so their callers keep the
    /// stamp constant and the memo cache stays valid across the whole run.
    std::uint64_t stamp = 0;
};

/// Deterministic RNG seed for one candidate: a pure function of the
/// evaluation context and the encoded point, so duplicate proposals draw
/// identical streams (making the memo cache sound), results are invariant
/// to thread count and evaluation order, and a search can re-materialize
/// its winner exactly (arch_search rebuilds the best model this way).
std::uint64_t candidate_seed(const EvalContext& context, const Alpha& point);

/// Result of one batch evaluation.
struct BatchOutcome {
    /// Aligned with the alphas argument; a failed (quarantined) candidate
    /// holds NaN — read `statuses` for the failure class.
    std::vector<double> utilities;
    /// Aligned with the alphas argument: kOk, or why the candidate's
    /// evaluation was quarantined after exhausting its retries.
    std::vector<TrialStatus> statuses;
    /// Argmax utility over the successful candidates (first on ties); 0
    /// when every candidate failed.
    std::size_t best_index = 0;
    /// Candidates served without a live evaluation: within-batch duplicates
    /// (always) plus cross-call map hits, which require the caller to hold
    /// (context.key, context.stamp) constant across calls — i.e. the model
    /// weights did not change, as in pure scoring sweeps.
    std::size_t cache_hits = 0;
};

class WorkerPool;

class EvaluationEngine {
public:
    explicit EvaluationEngine(EngineConfig config = {});
    // Out of line: the worker pool is an incomplete type here.
    ~EvaluationEngine();

    /// Evaluates `alphas` against the current state of `model`.
    ///
    /// Batch size 1 runs in place on `model` with `rng` (serial-identical);
    /// larger batches clone one replica per distinct candidate and evaluate
    /// them in parallel.  With `adopt_winner`, the best candidate's trained
    /// replica replaces `model`'s network (batch 1 already trained in
    /// place).  `rng` is never advanced by the q > 1 path.
    BatchOutcome evaluate_batch(models::ModelHandle& model,
                                const std::vector<Alpha>& alphas,
                                const CandidateEvaluator& evaluator, Rng& rng,
                                const EvalContext& context, bool adopt_winner);

    /// Evaluates self-contained candidates identified only by their encoded
    /// search-space points (no shared base model): every candidate — even in
    /// a batch of one — runs on the deterministic candidate_seed(context,
    /// point) stream, so the outcome is a pure function of (context, points)
    /// for every batch size and thread count, and the memo cache serves
    /// duplicate proposals across the whole run while the caller holds
    /// (context.key, context.stamp) fixed.  Used by arch_search, where each
    /// candidate builds and trains its own model from a ParamPoint.
    BatchOutcome evaluate_points(const std::vector<Alpha>& points,
                                 const PointEvaluator& evaluator,
                                 const EvalContext& context);

    /// Memoized (point -> utility) entries of the active (context, stamp),
    /// sorted by point for a deterministic order, so a self-contained
    /// search (constant stamp, see evaluate_points) can persist its memo
    /// cache across process restarts.  Empty when no context is active.
    std::vector<std::pair<Alpha, double>> export_cache() const;
    /// Seeds the memo cache with entries for `context`, replacing whatever
    /// was cached before.  Entries are only ever served back while the
    /// caller evaluates under the same (context.key, context.stamp).
    void import_cache(const EvalContext& context,
                      const std::vector<std::pair<Alpha, double>>& entries);

    /// Lifetime total of evaluations served without running the evaluator
    /// (within-batch duplicates + cross-call map hits).
    std::size_t cache_hits() const { return total_hits_; }
    /// Currently memoized (context, stamp, alpha) -> utility entries.
    std::size_t cache_entries() const { return cache_.size(); }
    /// Drops all memoized utilities (e.g. after mutating model weights
    /// outside the engine).
    void clear_cache() { cache_.clear(); }

    /// True once the worker pool behind `resilience.isolate` / `workers`
    /// tripped its spawn watchdog: repeated worker-spawn failures
    /// permanently degraded this engine back to in-process evaluation.
    /// Results are unchanged either way.
    bool pool_degraded() const;

private:
    /// The evaluation width: `threads`, else the thread-pool width.
    std::size_t evaluation_width() const;
    /// Runs `evaluate(j)` for every j in `live` (non-empty), at most
    /// evaluation_width() at a time on the thread pool.
    void for_each_live(const std::vector<std::size_t>& live,
                       const std::function<void(std::size_t)>& evaluate)
        const;
    /// The pass evaluate_batch (q > 1) and evaluate_points share: resets
    /// the memo on a context switch, maps each within-batch duplicate to
    /// its first occurrence (`owner`), serves memo hits, hands the rest to
    /// `run` (which fills their utilities and statuses), then copies
    /// results to the duplicates, memoizes the successes, and picks the
    /// argmax.
    BatchOutcome evaluate_distinct(
        const std::vector<Alpha>& points, const EvalContext& context,
        std::vector<std::size_t>& owner,
        const std::function<void(const std::vector<std::size_t>& live,
                                 BatchOutcome& outcome)>& run);
    /// True when evaluate_points should go to the worker pool (isolating
    /// or distributing, and the pool not degraded); creates the pool on
    /// first use.
    bool use_pool();

    struct CacheKey {
        std::uint64_t context = 0;
        std::uint64_t stamp = 0;
        Alpha alpha;
        bool operator==(const CacheKey& other) const {
            return context == other.context && stamp == other.stamp &&
                   alpha == other.alpha;
        }
    };
    struct CacheKeyHash {
        std::size_t operator()(const CacheKey& key) const;
    };

    EngineConfig config_;
    std::unordered_map<CacheKey, double, CacheKeyHash> cache_;
    std::size_t total_hits_ = 0;
    // Entries from a superseded (context, stamp) can never hit again (the
    // stamp only moves forward when weights change), so the cache is
    // dropped on context change to stay O(q) instead of growing per batch.
    std::uint64_t active_context_ = 0;
    std::uint64_t active_stamp_ = 0;
    bool has_active_context_ = false;
    // Out-of-process evaluation (docs/distributed.md): the worker pool,
    // created lazily on the first isolated or distributed evaluate_points
    // call and kept for the engine's lifetime.
    std::unique_ptr<WorkerPool> pool_;
};

}  // namespace bayesft::core
