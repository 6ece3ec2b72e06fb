#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/attempt.hpp"
#include "core/distrib.hpp"
#include "core/persist.hpp"
#include "utils/parallel.hpp"

namespace bayesft::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv1a_bytes(std::uint64_t seed, const unsigned char* bytes,
                          std::size_t count) {
    std::uint64_t h = seed == 0 ? kFnvOffset : seed;
    for (std::size_t i = 0; i < count; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

// --- fault-tolerant trial execution (docs/robustness.md) -------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

// --- shared attempt/retry policy (core/attempt.hpp) ------------------------
// Used by both evaluation paths: in-process here and the out-of-process
// worker pool behind --isolate and --workers (core/distrib.cpp).

std::chrono::microseconds backoff_duration(const ResilienceConfig& resilience,
                                           std::uint64_t candidate_seed,
                                           std::uint64_t attempt) {
    const std::uint64_t h =
        mix_key(mix_key(candidate_seed, std::string_view("retry-backoff")),
                attempt);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double seconds = resilience.backoff_seconds *
                           static_cast<double>(attempt + 1) * (0.5 + unit);
    return std::chrono::microseconds(
        static_cast<std::chrono::microseconds::rep>(seconds * 1e6));
}

void backoff_sleep(const ResilienceConfig& resilience,
                   std::uint64_t candidate_seed, std::uint64_t attempt) {
    const auto delay = backoff_duration(resilience, candidate_seed, attempt);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

AttemptResult guarded_attempt(const fault::ChaosSpec& chaos,
                              const ResilienceConfig& resilience,
                              std::uint64_t candidate_seed,
                              std::uint64_t attempt,
                              const std::function<double()>& run) {
    const fault::ChaosAction action =
        fault::chaos_decide(chaos, candidate_seed, attempt);
    if (action == fault::ChaosAction::kCrash) {
        return {kNaN, TrialStatus::kFailedCrash};
    }
    if (action == fault::ChaosAction::kHang &&
        resilience.timeout_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            resilience.timeout_seconds * 1.1));
        return {kNaN, TrialStatus::kFailedTimeout};
    }
    // An injected hang with no deadline configured degenerates to a normal
    // evaluation: blocking forever would turn a test knob into a deadlock.
    const auto start = std::chrono::steady_clock::now();
    double utility = kNaN;
    try {
        utility = run();
    } catch (const std::exception&) {
        return {kNaN, TrialStatus::kFailedCrash};
    }
    if (action == fault::ChaosAction::kNaN) utility = kNaN;
    if (!std::isfinite(utility)) {
        return {utility, TrialStatus::kFailedNaN};
    }
    if (resilience.timeout_seconds > 0.0 &&
        elapsed_seconds(start) > resilience.timeout_seconds) {
        return {kNaN, TrialStatus::kFailedTimeout};
    }
    return {utility, TrialStatus::kOk};
}

AttemptResult evaluate_with_retries(const fault::ChaosSpec& chaos,
                                    const ResilienceConfig& resilience,
                                    std::uint64_t candidate_seed,
                                    std::uint64_t first_attempt,
                                    const std::function<double()>& run) {
    AttemptResult result;
    for (std::uint64_t attempt = first_attempt;; ++attempt) {
        result = guarded_attempt(chaos, resilience, candidate_seed, attempt,
                                 run);
        if (result.status == TrialStatus::kOk ||
            attempt >= resilience.max_retries) {
            break;
        }
        backoff_sleep(resilience, candidate_seed, attempt);
    }
    return result;
}

std::uint64_t candidate_seed(const EvalContext& context, const Alpha& point) {
    std::uint64_t h = mix_key(context.key, context.stamp);
    return mix_key(h, point.data(), point.size());
}

std::uint64_t mix_key(std::uint64_t seed, const double* values,
                      std::size_t count) {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    unsigned char bytes[sizeof(double)];
    std::uint64_t h = seed == 0 ? kFnvOffset : seed;
    for (std::size_t i = 0; i < count; ++i) {
        std::memcpy(bytes, &values[i], sizeof(double));
        h = fnv1a_bytes(h, bytes, sizeof(double));
    }
    return h;
}

std::uint64_t mix_key(std::uint64_t seed, std::uint64_t value) {
    unsigned char bytes[sizeof(std::uint64_t)];
    std::memcpy(bytes, &value, sizeof(std::uint64_t));
    return fnv1a_bytes(seed == 0 ? kFnvOffset : seed, bytes,
                       sizeof(std::uint64_t));
}

std::uint64_t mix_key(std::uint64_t seed, std::string_view text) {
    // Length-prefixed so {"ab","c"} and {"a","bc"} digest differently.
    std::uint64_t h = mix_key(seed, static_cast<std::uint64_t>(text.size()));
    return fnv1a_bytes(h, reinterpret_cast<const unsigned char*>(text.data()),
                       text.size());
}

std::size_t EvaluationEngine::CacheKeyHash::operator()(
    const CacheKey& key) const {
    std::uint64_t h = mix_key(key.context, key.stamp);
    return static_cast<std::size_t>(
        mix_key(h, key.alpha.data(), key.alpha.size()));
}

EvaluationEngine::EvaluationEngine(EngineConfig config) : config_(config) {}

EvaluationEngine::~EvaluationEngine() = default;

std::size_t EvaluationEngine::evaluation_width() const {
    const std::size_t threads =
        config_.threads == 0 ? parallel_thread_count() : config_.threads;
    return std::max<std::size_t>(threads, 1);
}

void EvaluationEngine::for_each_live(
    const std::vector<std::size_t>& live,
    const std::function<void(std::size_t)>& evaluate) const {
    const std::size_t threads = std::min(evaluation_width(), live.size());
    const std::size_t grain = (live.size() + threads - 1) / threads;
    parallel_for(0, live.size(), grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) evaluate(live[i]);
    });
}

BatchOutcome EvaluationEngine::evaluate_distinct(
    const std::vector<Alpha>& points, const EvalContext& context,
    std::vector<std::size_t>& owner,
    const std::function<void(const std::vector<std::size_t>&,
                             BatchOutcome&)>& run) {
    const std::size_t q = points.size();
    if (config_.cache &&
        (!has_active_context_ || active_context_ != context.key ||
         active_stamp_ != context.stamp)) {
        cache_.clear();
        active_context_ = context.key;
        active_stamp_ = context.stamp;
        has_active_context_ = true;
    }
    BatchOutcome outcome;
    outcome.utilities.assign(q, 0.0);
    outcome.statuses.assign(q, TrialStatus::kOk);

    // Within-batch dedup: candidate j with an identical earlier point
    // reuses that candidate's result (identical RNG stream => identical
    // utility); the first occurrence is served from the memo or runs live.
    owner.resize(q);
    std::vector<std::size_t> live;
    live.reserve(q);
    for (std::size_t j = 0; j < q; ++j) {
        owner[j] = static_cast<std::size_t>(
            std::find(points.begin(), points.begin() + j, points[j]) -
            points.begin());
        if (owner[j] != j) continue;
        if (config_.cache) {
            const auto it =
                cache_.find(CacheKey{context.key, context.stamp, points[j]});
            if (it != cache_.end()) {
                outcome.utilities[j] = it->second;
                ++outcome.cache_hits;
                continue;
            }
        }
        live.push_back(j);
    }
    if (!live.empty()) run(live, outcome);

    for (std::size_t j = 0; j < q; ++j) {
        if (owner[j] == j) continue;
        outcome.utilities[j] = outcome.utilities[owner[j]];
        outcome.statuses[j] = outcome.statuses[owner[j]];
        ++outcome.cache_hits;  // duplicate proposals are free
    }
    if (config_.cache) {
        // Failures are never memoized: a crash or an injected fault is a
        // property of one attempt, not of the candidate point.
        for (const std::size_t j : live) {
            if (outcome.statuses[j] != TrialStatus::kOk) continue;
            cache_.emplace(CacheKey{context.key, context.stamp, points[j]},
                           outcome.utilities[j]);
        }
    }
    total_hits_ += outcome.cache_hits;

    outcome.best_index = 0;
    bool found_ok = false;
    for (std::size_t j = 0; j < q; ++j) {
        if (outcome.statuses[j] != TrialStatus::kOk) continue;
        if (!found_ok ||
            outcome.utilities[j] > outcome.utilities[outcome.best_index]) {
            outcome.best_index = j;
            found_ok = true;
        }
    }
    return outcome;
}

BatchOutcome EvaluationEngine::evaluate_batch(
    models::ModelHandle& model, const std::vector<Alpha>& alphas,
    const CandidateEvaluator& evaluator, Rng& rng, const EvalContext& context,
    bool adopt_winner) {
    if (alphas.empty()) {
        throw std::invalid_argument(
            "EvaluationEngine::evaluate_batch: empty batch");
    }
    if (!evaluator) {
        throw std::invalid_argument(
            "EvaluationEngine::evaluate_batch: no evaluator");
    }

    if (alphas.size() == 1) {
        // Serial-identical path: in-place training on the caller's model
        // with the caller's RNG.  Never cached — a hit would skip the
        // training step the serial loop performs.  The evaluator may have
        // mutated the weights, so drop any memoized utilities (same
        // defensive invariant as the adoption path).
        //
        // Fault tolerance here needs a rollback: a failed attempt may have
        // half-trained the shared model and advanced the caller's RNG, so
        // the pre-attempt state (weights, dropout mask generators, caller
        // generator) is snapshotted and restored before every retry — and
        // after a final failure, so a quarantined candidate leaves theta
        // and the RNG stream exactly as if it was never proposed.
        model.set_dropout_rates(alphas[0]);
        const ResilienceConfig& resilience = config_.resilience;
        const bool guard = model.net != nullptr &&
                           (resilience.max_retries > 0 ||
                            resilience.timeout_seconds > 0.0 ||
                            config_.chaos.any());
        std::vector<std::uint32_t> saved_bits;
        std::vector<RngState> saved_rngs;
        RngState saved_caller;
        if (guard) {
            saved_bits = snapshot_model(*model.net);
            saved_rngs = snapshot_model_rngs(*model.net);
            saved_caller = rng.state();
        }
        const std::uint64_t cseed = candidate_seed(context, alphas[0]);
        AttemptResult result;
        for (std::uint64_t attempt = 0;; ++attempt) {
            result = guarded_attempt(
                config_.chaos, resilience, cseed, attempt,
                [&] { return evaluator(model, alphas[0], rng); });
            if (result.status == TrialStatus::kOk) break;
            if (!guard) break;  // no snapshot, nothing to roll back to
            restore_model(*model.net, saved_bits);
            restore_model_rngs(*model.net, saved_rngs);
            rng.set_state(saved_caller);
            if (attempt >= resilience.max_retries) break;
            backoff_sleep(resilience, cseed, attempt);
        }
        cache_.clear();
        has_active_context_ = false;
        BatchOutcome outcome;
        outcome.utilities = {result.utility};
        outcome.statuses = {result.status};
        return outcome;
    }

    // Each attempt clones a fresh replica off the (unchanged) base model
    // and replays the identical candidate stream, so a retried success is
    // bit-identical to a first-try success.
    std::vector<models::ModelHandle> replicas(alphas.size());
    auto train_replica = [&](std::size_t j) {
        const std::uint64_t cseed = candidate_seed(context, alphas[j]);
        models::ModelHandle trained;
        const AttemptResult result = evaluate_with_retries(
            config_.chaos, config_.resilience, cseed, 0, [&] {
                models::ModelHandle replica = model.clone();
                replica.set_dropout_rates(alphas[j]);
                Rng candidate_rng(cseed);
                const double utility =
                    evaluator(replica, alphas[j], candidate_rng);
                trained = std::move(replica);
                return utility;
            });
        if (result.status == TrialStatus::kOk) {
            replicas[j] = std::move(trained);
        }
        return result;
    };
    std::vector<std::size_t> owner;
    BatchOutcome outcome = evaluate_distinct(
        alphas, context, owner,
        [&](const std::vector<std::size_t>& live, BatchOutcome& out) {
            for_each_live(live, [&](std::size_t j) {
                const AttemptResult result = train_replica(j);
                out.utilities[j] = result.utility;
                out.statuses[j] = result.status;
            });
        });

    // A fully failed batch adopts nothing: the model is exactly the state
    // before the batch, so the quarantined group leaves no trace in theta.
    if (adopt_winner &&
        outcome.statuses[outcome.best_index] == TrialStatus::kOk) {
        const std::size_t source = owner[outcome.best_index];
        // A memo hit won without a live replica: re-run it to materialize
        // the trained weights (same stream => same result).
        if (!replicas[source].net) train_replica(source);
        if (replicas[source].net) {
            model.net = std::move(replicas[source].net);
            model.dropout_sites = std::move(replicas[source].dropout_sites);
        }
        // The weights just changed: cached utilities are stale regardless
        // of whether the caller remembers to bump context.stamp.
        cache_.clear();
        has_active_context_ = false;
    }
    return outcome;  // q > 1 never advances the caller's generator
}

std::vector<std::pair<Alpha, double>> EvaluationEngine::export_cache() const {
    std::vector<std::pair<Alpha, double>> entries;
    if (!has_active_context_) return entries;
    entries.reserve(cache_.size());
    for (const auto& [key, utility] : cache_) {
        entries.emplace_back(key.alpha, utility);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return entries;
}

void EvaluationEngine::import_cache(
    const EvalContext& context,
    const std::vector<std::pair<Alpha, double>>& entries) {
    cache_.clear();
    active_context_ = context.key;
    active_stamp_ = context.stamp;
    has_active_context_ = true;
    if (!config_.cache) return;
    for (const auto& [alpha, utility] : entries) {
        cache_.emplace(CacheKey{context.key, context.stamp, alpha}, utility);
    }
}

bool EvaluationEngine::use_pool() {
    if (!config_.resilience.isolate && config_.workers == 0) return false;
    if (!pool_) {
        WorkerPool::Config pool_config;
        // One-shot workers run as wide as the in-process path would.
        pool_config.workers = config_.resilience.isolate ? evaluation_width()
                                                         : config_.workers;
        pool_config.resilience = config_.resilience;
        pool_config.chaos = config_.chaos;
        pool_ = std::make_unique<WorkerPool>(pool_config);
    }
    return !pool_->degraded();
}

bool EvaluationEngine::pool_degraded() const {
    return pool_ != nullptr && pool_->degraded();
}

BatchOutcome EvaluationEngine::evaluate_points(
    const std::vector<Alpha>& points, const PointEvaluator& evaluator,
    const EvalContext& context) {
    if (points.empty()) {
        throw std::invalid_argument(
            "EvaluationEngine::evaluate_points: empty batch");
    }
    if (!evaluator) {
        throw std::invalid_argument(
            "EvaluationEngine::evaluate_points: no evaluator");
    }
    // Unlike the model path there is no q == 1 special case: every
    // candidate runs on its own derived RNG stream regardless of batch size.
    std::vector<std::size_t> owner;
    return evaluate_distinct(
        points, context, owner,
        [&](const std::vector<std::size_t>& live, BatchOutcome& outcome) {
            // Out of process (docs/distributed.md): one-shot or persistent
            // workers.  A pool whose watchdog tripped still completed the
            // batch it tripped in; later batches run in-process.
            if (use_pool()) {
                pool_->evaluate(points, live, evaluator, context, outcome);
                return;
            }
            for_each_live(live, [&](std::size_t j) {
                const std::uint64_t cseed = candidate_seed(context, points[j]);
                const AttemptResult result = evaluate_with_retries(
                    config_.chaos, config_.resilience, cseed, 0, [&] {
                        Rng rng(cseed);
                        return evaluator(points[j], rng);
                    });
                outcome.utilities[j] = result.utility;
                outcome.statuses[j] = result.status;
            });
        });
}

}  // namespace bayesft::core
