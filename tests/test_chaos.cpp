// Chaos torture suite for the fault-tolerant trial execution paths
// (docs/robustness.md): determinism of the seeded chaos hook itself,
// bit-identical recovery of in-process and crash-isolated evaluation under
// injected crashes / worker aborts / hangs / NaNs, timeout quarantine, the
// spawn watchdog,
// full bayesft_search / arch_search determinism under chaos at 1 and 4
// threads, quarantine of always-failing candidates, and graceful GP
// degradation when a refit is impossible.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "core/archsearch.hpp"
#include "core/bayesft.hpp"
#include "core/engine.hpp"
#include "data/toy.hpp"
#include "fault/chaos.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

using fault::ChaosAction;
using fault::ChaosSpec;
using fault::chaos_decide;
using fault::chaos_spawn_failure;

#if defined(__unix__) || defined(__APPLE__)
#define BAYESFT_TEST_POSIX 1

/// Scoped BAYESFT_CHAOS / BAYESFT_CHAOS_SEED: the full-search entry points
/// read the chaos spec from the environment when they build their engine,
/// so these tests inject through the same door the CI chaos-smoke job uses.
class ChaosEnv {
public:
    explicit ChaosEnv(const std::string& spec, const std::string& seed = "") {
        ::setenv("BAYESFT_CHAOS", spec.c_str(), 1);
        if (!seed.empty()) {
            ::setenv("BAYESFT_CHAOS_SEED", seed.c_str(), 1);
        }
    }
    ~ChaosEnv() {
        ::unsetenv("BAYESFT_CHAOS");
        ::unsetenv("BAYESFT_CHAOS_SEED");
    }
    ChaosEnv(const ChaosEnv&) = delete;
    ChaosEnv& operator=(const ChaosEnv&) = delete;
};
#endif

TEST(ChaosSpecTest, DecisionsArePureSeededAndAttemptIndexed) {
    const ChaosSpec off;
    EXPECT_FALSE(off.any());
    for (std::uint64_t c = 0; c < 32; ++c) {
        EXPECT_EQ(chaos_decide(off, c, 0), ChaosAction::kNone);
        EXPECT_FALSE(chaos_spawn_failure(off, c, 0));
    }

    ChaosSpec certain;
    certain.crash = 1.0;
    for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
        EXPECT_EQ(chaos_decide(certain, 12345, attempt), ChaosAction::kCrash);
    }

    // The cumulative bands partition [0, 1): probabilities summing to one
    // leave no room for kNone, whatever the draw.
    ChaosSpec full;
    full.crash = 0.25;
    full.hang = 0.25;
    full.nan = 0.5;
    for (std::uint64_t c = 0; c < 256; ++c) {
        EXPECT_NE(chaos_decide(full, c, 0), ChaosAction::kNone);
    }

    // Pure: identical inputs always decide identically.
    ChaosSpec half;
    half.crash = 0.5;
    half.seed = 9;
    for (std::uint64_t c = 0; c < 64; ++c) {
        EXPECT_EQ(chaos_decide(half, c, 3), chaos_decide(half, c, 3));
    }

    // The seed selects the stream and the attempt index rolls fresh dice:
    // both must change at least one decision across a modest sample.
    ChaosSpec other = half;
    other.seed = 10;
    bool seed_differs = false;
    bool attempt_differs = false;
    for (std::uint64_t c = 0; c < 256; ++c) {
        seed_differs |= chaos_decide(half, c, 0) != chaos_decide(other, c, 0);
        attempt_differs |=
            chaos_decide(half, c, 0) != chaos_decide(half, c, 1);
    }
    EXPECT_TRUE(seed_differs);
    EXPECT_TRUE(attempt_differs);

    // Spawn failures draw on an independent stream: a spawn-only spec never
    // perturbs the evaluation decision.
    ChaosSpec spawn_only;
    spawn_only.spawn = 1.0;
    EXPECT_TRUE(spawn_only.any());
    for (std::uint64_t c = 0; c < 64; ++c) {
        EXPECT_EQ(chaos_decide(spawn_only, c, 0), ChaosAction::kNone);
        EXPECT_TRUE(chaos_spawn_failure(spawn_only, c, 0));
    }
}

#ifdef BAYESFT_TEST_POSIX
TEST(ChaosSpecTest, FromEnvParsesSpecAndSeed) {
    {
        ChaosEnv env("crash:0.25,hang:0.5,nan:0.125,spawn:0.75", "42");
        const ChaosSpec spec = ChaosSpec::from_env();
        EXPECT_DOUBLE_EQ(spec.crash, 0.25);
        EXPECT_DOUBLE_EQ(spec.hang, 0.5);
        EXPECT_DOUBLE_EQ(spec.nan, 0.125);
        EXPECT_DOUBLE_EQ(spec.spawn, 0.75);
        EXPECT_EQ(spec.seed, 42U);
    }
    {
        // Unknown keys and malformed probabilities are ignored; values are
        // clamped into [0, 1].
        ChaosEnv env("bogus,crash:2.5,nan:notanumber,hang:0.1");
        const ChaosSpec spec = ChaosSpec::from_env();
        EXPECT_DOUBLE_EQ(spec.crash, 1.0);
        EXPECT_DOUBLE_EQ(spec.nan, 0.0);
        EXPECT_DOUBLE_EQ(spec.hang, 0.1);
        EXPECT_EQ(spec.seed, 0U);
    }
    const ChaosSpec spec = ChaosSpec::from_env();
    EXPECT_FALSE(spec.any());
}
#endif

// ---------------------------------------------------------------------------
// Engine-level torture: a cheap pure evaluator stands in for train-and-score
// so the fault paths (not the network) dominate the runtime.

std::vector<Alpha> engine_points() {
    std::vector<Alpha> points = {{0.10, 0.90}, {0.25, 0.40}, {0.50, 0.50},
                                 {0.75, 0.20}, {0.90, 0.10}, {0.33, 0.66}};
    points.push_back(points[2]);  // within-batch duplicate
    return points;
}

PointEvaluator pure_evaluator() {
    return [](const Alpha& point, Rng& rng) {
        // Depends on both the point and the candidate RNG stream, so a
        // retry that failed to replay the exact stream would show up as a
        // bitwise mismatch.
        return std::sin(7.0 * point[0]) + 0.25 * point[1] +
               0.01 * rng.uniform();
    };
}

EvalContext engine_context() {
    EvalContext context;
    context.key = mix_key(0x9E3779B97F4A7C15ULL, std::uint64_t{17});
    context.stamp = 0;
    return context;
}

BatchOutcome run_engine(const EngineConfig& config) {
    EvaluationEngine engine(config);
    return engine.evaluate_points(engine_points(), pure_evaluator(),
                                  engine_context());
}

void expect_identical_ok(const BatchOutcome& clean,
                         const BatchOutcome& chaotic) {
    ASSERT_EQ(chaotic.utilities.size(), clean.utilities.size());
    for (std::size_t i = 0; i < clean.utilities.size(); ++i) {
        EXPECT_EQ(chaotic.utilities[i], clean.utilities[i])
            << "candidate " << i << " diverged";
        EXPECT_EQ(chaotic.statuses[i], TrialStatus::kOk)
            << "candidate " << i << " not recovered";
    }
    EXPECT_EQ(chaotic.best_index, clean.best_index);
}

EngineConfig quiet_engine_config() {
    EngineConfig config;
    config.chaos = ChaosSpec{};  // never inherit ambient BAYESFT_CHAOS
    return config;
}

TEST(ChaosEngineTest, InProcessRetriesRecoverBitIdentical) {
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_engine_config());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const char* mode : {"crash", "hang", "nan", "mixed"}) {
            EngineConfig config = quiet_engine_config();
            config.threads = threads;
            config.resilience.max_retries = 12;
            config.resilience.backoff_seconds = 0.0005;
            config.chaos.seed = 11;
            if (std::string(mode) == "crash") config.chaos.crash = 0.45;
            if (std::string(mode) == "hang") config.chaos.hang = 0.45;
            if (std::string(mode) == "nan") config.chaos.nan = 0.45;
            if (std::string(mode) == "mixed") {
                config.chaos.crash = 0.2;
                config.chaos.hang = 0.15;
                config.chaos.nan = 0.2;
            }
            // No deadline: an injected in-process hang with timeout == 0
            // falls through to normal evaluation instead of deadlocking.
            const BatchOutcome chaotic = run_engine(config);
            expect_identical_ok(clean, chaotic);
        }
    }
}

TEST(ChaosEngineTest, HangsAreTimedOutAndQuarantined) {
    set_log_level(LogLevel::Error);
    EngineConfig config = quiet_engine_config();
    config.chaos.hang = 1.0;
    config.resilience.timeout_seconds = 0.02;
    config.resilience.max_retries = 1;
    config.resilience.backoff_seconds = 0.001;
    EvaluationEngine engine(config);
    const std::vector<Alpha> points = {{0.2, 0.3}, {0.7, 0.6}};
    const BatchOutcome outcome =
        engine.evaluate_points(points, pure_evaluator(), engine_context());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(outcome.statuses[i], TrialStatus::kFailedTimeout);
        EXPECT_TRUE(std::isnan(outcome.utilities[i]));
    }
    EXPECT_EQ(outcome.best_index, 0U);
    // Quarantined results must never be memoized.
    EXPECT_EQ(engine.cache_entries(), 0U);
}

TEST(ChaosEngineTest, PermanentCrashIsQuarantinedAndUncached) {
    set_log_level(LogLevel::Error);
    EngineConfig config = quiet_engine_config();
    config.chaos.crash = 1.0;
    config.resilience.max_retries = 2;
    config.resilience.backoff_seconds = 0.0005;
    EvaluationEngine engine(config);
    const BatchOutcome outcome = engine.evaluate_points(
        engine_points(), pure_evaluator(), engine_context());
    for (std::size_t i = 0; i < outcome.statuses.size(); ++i) {
        EXPECT_EQ(outcome.statuses[i], TrialStatus::kFailedCrash);
        EXPECT_TRUE(std::isnan(outcome.utilities[i]));
    }
    EXPECT_EQ(engine.cache_entries(), 0U);
}

#ifdef BAYESFT_TEST_POSIX
TEST(ChaosEngineTest, IsolatedEvaluationMatchesInProcessBitwise) {
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_engine_config());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EngineConfig config = quiet_engine_config();
        config.threads = threads;
        config.resilience.isolate = true;
        EvaluationEngine engine(config);
        const BatchOutcome isolated = engine.evaluate_points(
            engine_points(), pure_evaluator(), engine_context());
        expect_identical_ok(clean, isolated);
        EXPECT_FALSE(engine.pool_degraded());
    }
}

TEST(ChaosEngineTest, IsolatedCrashChaosRecoversBitIdentical) {
    // `crash` is an attempt failure the one-shot worker reports;
    // `worker_crash` is a real abort() of the isolated worker.  Both must
    // recover to the clean bits.
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_engine_config());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const bool worker_crash : {false, true}) {
            EngineConfig config = quiet_engine_config();
            config.threads = threads;
            config.resilience.isolate = true;
            config.resilience.max_retries = 12;
            config.resilience.backoff_seconds = 0.0005;
            if (worker_crash) {
                config.chaos.worker_crash = 0.45;
            } else {
                config.chaos.crash = 0.45;
            }
            config.chaos.seed = 23;
            EvaluationEngine engine(config);
            const BatchOutcome chaotic = engine.evaluate_points(
                engine_points(), pure_evaluator(), engine_context());
            expect_identical_ok(clean, chaotic);
            EXPECT_FALSE(engine.pool_degraded());
        }
    }
}

TEST(ChaosEngineTest, IsolatedHangIsKilledAtTheDeadline) {
    set_log_level(LogLevel::Error);
    EngineConfig config = quiet_engine_config();
    config.resilience.isolate = true;
    config.resilience.timeout_seconds = 0.1;
    config.resilience.max_retries = 0;
    config.chaos.hang = 1.0;
    EvaluationEngine engine(config);
    const std::vector<Alpha> points = {{0.2, 0.3}, {0.7, 0.6}};
    const BatchOutcome outcome =
        engine.evaluate_points(points, pure_evaluator(), engine_context());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(outcome.statuses[i], TrialStatus::kFailedTimeout);
        EXPECT_TRUE(std::isnan(outcome.utilities[i]));
    }
    EXPECT_EQ(engine.cache_entries(), 0U);
}

TEST(ChaosEngineTest, SpawnWatchdogDegradesToInProcess) {
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_engine_config());
    EngineConfig config = quiet_engine_config();
    config.resilience.isolate = true;
    config.chaos.spawn = 1.0;  // every fork "fails"; watchdog must trip
    EvaluationEngine engine(config);
    const BatchOutcome degraded = engine.evaluate_points(
        engine_points(), pure_evaluator(), engine_context());
    expect_identical_ok(clean, degraded);
    EXPECT_TRUE(engine.pool_degraded());
}
#endif

// ---------------------------------------------------------------------------
// Full-search determinism under chaos: the acceptance contract is that a
// chaos run with retries is bitwise indistinguishable from a failure-free
// run — same trial log, same best point, same final weights.

class ChaosSearchFixture : public ::testing::Test {
protected:
    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(1);
        const data::Dataset full = data::make_blobs(240, 3, 4.0, 0.6, rng);
        Rng split_rng(2);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }

    static models::ModelHandle make_model() {
        Rng rng(5);
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 16;
        options.hidden_layers = 2;
        options.classes = 3;
        return models::make_mlp(options, rng);
    }

    static BayesFTConfig small_config() {
        BayesFTConfig config;
        config.iterations = 3;
        config.epochs_per_iteration = 1;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.warmup_epochs = 1;
        config.final_epochs = 1;
        return config;
    }

    static models::ArchFamily tiny_family() {
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        return models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                       /*max_dropout_rate=*/0.5);
    }

    static ArchSearchConfig tiny_arch_config() {
        ArchSearchConfig config;
        config.iterations = 4;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.final_epochs = 1;
        return config;
    }

    static std::vector<float> weights_of(nn::Module& net) {
        std::vector<float> values;
        for (const nn::Parameter* p : net.parameters()) {
            values.insert(values.end(), p->value.data(),
                          p->value.data() + p->value.size());
        }
        return values;
    }

    static void expect_same_search(const BayesFTResult& clean,
                                   const BayesFTResult& chaotic) {
        ASSERT_EQ(chaotic.trials.size(), clean.trials.size());
        for (std::size_t i = 0; i < clean.trials.size(); ++i) {
            EXPECT_EQ(chaotic.trials[i].x, clean.trials[i].x)
                << "trial " << i;
            EXPECT_EQ(chaotic.trials[i].y, clean.trials[i].y)
                << "trial " << i;
            EXPECT_EQ(chaotic.trials[i].status, TrialStatus::kOk)
                << "trial " << i;
        }
        EXPECT_EQ(chaotic.best_alpha, clean.best_alpha);
        EXPECT_EQ(chaotic.best_utility, clean.best_utility);
    }

    data::Dataset train_;
    data::Dataset test_;
};

#ifdef BAYESFT_TEST_POSIX
TEST_F(ChaosSearchFixture, BayesftSerialSearchBitIdenticalUnderChaos) {
    const BayesFTConfig config = small_config();
    models::ModelHandle clean_model = make_model();
    Rng clean_rng(7);
    const BayesFTResult clean =
        bayesft_search(clean_model, train_, test_, config, clean_rng);
    const std::vector<float> clean_weights = weights_of(*clean_model.net);

    for (const char* spec : {"crash:0.4", "nan:0.4", "crash:0.2,nan:0.2"}) {
        ChaosEnv env(spec, "3");
        BayesFTConfig chaos_config = config;
        chaos_config.resilience.max_retries = 12;
        chaos_config.resilience.backoff_seconds = 0.0005;
        models::ModelHandle model = make_model();
        Rng rng(7);
        const BayesFTResult chaotic =
            bayesft_search(model, train_, test_, chaos_config, rng);
        expect_same_search(clean, chaotic);
        // The q == 1 rollback restored theta and every RNG before each
        // retry, so even the trained weights are bit-identical.
        EXPECT_EQ(weights_of(*model.net), clean_weights) << spec;
    }
}

TEST_F(ChaosSearchFixture, BayesftBatchedSearchChaosInvariantToThreads) {
    BayesFTConfig config = small_config();
    config.batch = 2;
    models::ModelHandle clean_model = make_model();
    Rng clean_rng(11);
    const BayesFTResult clean =
        bayesft_search(clean_model, train_, test_, config, clean_rng);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ChaosEnv env("crash:0.3,nan:0.2", "5");
        BayesFTConfig chaos_config = config;
        chaos_config.eval_threads = threads;
        chaos_config.resilience.max_retries = 12;
        chaos_config.resilience.backoff_seconds = 0.0005;
        models::ModelHandle model = make_model();
        Rng rng(11);
        const BayesFTResult chaotic =
            bayesft_search(model, train_, test_, chaos_config, rng);
        expect_same_search(clean, chaotic);
    }
}

TEST_F(ChaosSearchFixture, AlwaysFailingCandidatesAreQuarantined) {
    // nan:1 fails every attempt of every candidate: retries cannot save
    // them, so each trial must be quarantined with its status recorded —
    // and the search must still run to completion.
    ChaosEnv env("nan:1");
    BayesFTConfig config = small_config();
    config.resilience.max_retries = 1;
    models::ModelHandle model = make_model();
    Rng rng(13);
    const BayesFTResult result =
        bayesft_search(model, train_, test_, config, rng);
    EXPECT_TRUE(result.completed);
    ASSERT_EQ(result.trials.size(), config.iterations);
    for (const auto& trial : result.trials) {
        EXPECT_EQ(trial.status, TrialStatus::kFailedNaN);
        EXPECT_TRUE(std::isfinite(trial.y));  // stored at the fail penalty
    }
    // best() falls back to a quarantined point so a winner can still be
    // installed; the model stays usable.
    EXPECT_EQ(result.best_alpha.size(), model.dropout_sites.size());
    ASSERT_NE(model.net, nullptr);
    Rng probe(17);
    const Tensor logits = model.net->forward(Tensor::randn({4, 2}, probe));
    EXPECT_EQ(logits.dim(1), 3U);
}

TEST_F(ChaosSearchFixture, ArchSearchBitIdenticalUnderChaosAndIsolation) {
    const models::ArchFamily family = tiny_family();
    ArchSearchConfig config = tiny_arch_config();
    config.batch = 2;
    Rng clean_rng(19);
    const ArchSearchResult clean =
        arch_search(family, train_, test_, config, clean_rng);

    auto expect_same = [&](const ArchSearchResult& other,
                           const std::string& label) {
        ASSERT_EQ(other.trials.size(), clean.trials.size()) << label;
        for (std::size_t i = 0; i < clean.trials.size(); ++i) {
            EXPECT_EQ(other.trials[i].x, clean.trials[i].x)
                << label << " trial " << i;
            EXPECT_EQ(other.trials[i].y, clean.trials[i].y)
                << label << " trial " << i;
            EXPECT_EQ(other.trials[i].status, TrialStatus::kOk)
                << label << " trial " << i;
        }
        EXPECT_EQ(other.best_utility, clean.best_utility) << label;
    };

    // In-process chaos, 1 and 4 evaluation threads.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ChaosEnv env("crash:0.35,nan:0.15", "29");
        ArchSearchConfig chaos_config = config;
        chaos_config.eval_threads = threads;
        chaos_config.resilience.max_retries = 12;
        chaos_config.resilience.backoff_seconds = 0.0005;
        Rng rng(19);
        expect_same(arch_search(family, train_, test_, chaos_config, rng),
                    "in-process threads=" + std::to_string(threads));
    }

    // Crash isolation, clean, under reported attempt crashes, and under
    // real aborts of the one-shot workers (candidates are self-contained
    // here, so forked workers really carry the trial).
    for (const char* spec : {"", "crash:0.35", "worker_crash:0.35"}) {
        ArchSearchConfig isolated_config = config;
        isolated_config.resilience.isolate = true;
        isolated_config.resilience.max_retries = 12;
        isolated_config.resilience.backoff_seconds = 0.0005;
        ChaosEnv env(spec, "31");
        Rng rng(19);
        expect_same(arch_search(family, train_, test_, isolated_config, rng),
                    std::string("isolated ") + spec);
    }

    // Spawn chaos: every fork fails, the watchdog degrades the run back to
    // in-process evaluation, and the results still match bit for bit.
    {
        ChaosEnv env("spawn:1");
        ArchSearchConfig spawn_config = config;
        spawn_config.resilience.isolate = true;
        Rng rng(19);
        expect_same(arch_search(family, train_, test_, spawn_config, rng),
                    "spawn watchdog");
    }
}
#endif

// ---------------------------------------------------------------------------
// Surrogate degradation: a refit the Cholesky jitter cannot rescue must not
// kill the search — the last-good posterior is kept and proposals fall back
// to the random pool until a refit succeeds (docs/robustness.md).

TEST(ChaosSurrogateTest, ImpossibleRefitDegradesGracefully) {
    set_log_level(LogLevel::Error);
    const double nan_value = std::numeric_limits<double>::quiet_NaN();
    bayesopt::BayesOptConfig config;
    config.initial_random_trials = 1;
    bayesopt::BayesOpt bo(
        bayesopt::BoxBounds::uniform(2, 0.0, 1.0),
        std::make_shared<bayesopt::ArdSquaredExponential>(2, 4.0),
        std::make_unique<bayesopt::PosteriorMean>(), config, Rng(37));
    // A NaN coordinate poisons the Gram matrix beyond any jitter level.
    // Under kPenalize the poisoned row reaches the fit, so the refit fails
    // — but observe() must absorb that, flag the surrogate, and keep
    // suggesting feasible points from the random pool.
    EXPECT_NO_THROW(bo.observe({nan_value, 0.5}, 0.5));
    EXPECT_TRUE(bo.surrogate_degraded());
    for (int i = 0; i < 4; ++i) {
        const bayesopt::Point p = bo.suggest();
        ASSERT_EQ(p.size(), 2U);
        for (double v : p) {
            EXPECT_TRUE(v >= 0.0 && v <= 1.0);
        }
        EXPECT_NO_THROW(bo.observe(p, 0.1 * i));
    }
    // The poisoned row stays in the history, so the surrogate remains
    // degraded — yet every observe/suggest above succeeded.
    EXPECT_TRUE(bo.surrogate_degraded());

    // kExclude keeps quarantined rows out of the fit entirely: the same
    // poisoned point, reported as a failed trial, leaves the GP healthy.
    bayesopt::BayesOptConfig exclude_config;
    exclude_config.initial_random_trials = 1;
    exclude_config.fail_policy = FailPolicy::kExclude;
    bayesopt::BayesOpt healthy(
        bayesopt::BoxBounds::uniform(2, 0.0, 1.0),
        std::make_shared<bayesopt::ArdSquaredExponential>(2, 4.0),
        std::make_unique<bayesopt::PosteriorMean>(), exclude_config, Rng(41));
    healthy.observe({nan_value, 0.5}, nan_value);
    EXPECT_EQ(healthy.trials().back().status, TrialStatus::kFailedNaN);
    EXPECT_FALSE(healthy.surrogate_degraded());
    healthy.observe({0.25, 0.75}, -0.5);
    healthy.observe({0.75, 0.25}, -1.5);
    EXPECT_FALSE(healthy.surrogate_degraded());
    EXPECT_TRUE(healthy.surrogate().fitted());
    ASSERT_TRUE(healthy.best().has_value());
    EXPECT_EQ(healthy.best()->status, TrialStatus::kOk);
    EXPECT_EQ(healthy.best()->y, -0.5);
}

}  // namespace
}  // namespace bayesft::core
