// Scalable-surrogate pins (docs/optimizer-scaling.md): the incremental
// GP operations (rank-1 Cholesky append, target update, truncation) and
// the pooled posterior path (on the arch search's mixed space and on
// Matern52, at 1 and 4 threads) are bit-identical to the canonical full
// fit() / per-point posterior(); the trust-region regime adapts and
// restarts as specified; and a 1000-trial synthetic search produces
// byte-identical trial logs across thread counts (child processes under
// BAYESFT_NUM_THREADS) and across a mid-run kill/resume (export_state /
// import_state into a fresh optimizer).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/bayesopt.hpp"
#include "bayesopt/gp.hpp"
#include "bayesopt/kernel.hpp"
#include "core/param_space.hpp"
#include "models/zoo.hpp"
#include "utils/parallel.hpp"
#include "utils/rng.hpp"

namespace bayesft::bayesopt {
namespace {

std::shared_ptr<const Kernel> test_kernel() {
    return std::make_shared<ArdSquaredExponential>(3, 4.0);
}

void make_data(std::size_t n, std::vector<Point>& xs,
               std::vector<double>& ys, std::uint64_t seed = 5) {
    Rng rng(seed);
    xs.clear();
    ys.clear();
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(rng.normal());
    }
}

// ------------------------------------------------------------------ //
// Incremental ops vs the canonical fit(), pinned bitwise.             //
// ------------------------------------------------------------------ //

TEST(GpIncremental, ObserveMatchesFullFitBitwise) {
    // Growing the GP one observation at a time must land on exactly the
    // posterior a from-scratch fit of the same data produces — alpha,
    // mean, and variance bits included.
    std::vector<Point> xs;
    std::vector<double> ys;
    make_data(24, xs, ys);
    const Point probe = {0.3, 0.6, 0.9};

    GaussianProcess grown(test_kernel(), 1e-4);
    grown.fit({xs[0], xs[1]}, {ys[0], ys[1]});
    for (std::size_t n = 2; n < xs.size(); ++n) {
        ASSERT_TRUE(grown.observe(xs[n], ys[n])) << "append at n=" << n;
        GaussianProcess direct(test_kernel(), 1e-4);
        direct.fit(std::vector<Point>(xs.begin(), xs.begin() + n + 1),
                   std::vector<double>(ys.begin(), ys.begin() + n + 1));
        const Posterior a = grown.posterior(probe);
        const Posterior b = direct.posterior(probe);
        ASSERT_EQ(a.mean, b.mean) << "n=" << n;
        ASSERT_EQ(a.variance, b.variance) << "n=" << n;
        ASSERT_EQ(grown.log_marginal_likelihood(),
                  direct.log_marginal_likelihood())
            << "n=" << n;
    }
}

TEST(GpIncremental, UpdateTargetMatchesFullFitBitwise) {
    std::vector<Point> xs;
    std::vector<double> ys;
    make_data(12, xs, ys);
    GaussianProcess incremental(test_kernel(), 1e-4);
    incremental.fit(xs, ys);
    incremental.update_target(7, 2.5);

    std::vector<double> updated = ys;
    updated[7] = 2.5;
    GaussianProcess direct(test_kernel(), 1e-4);
    direct.fit(xs, updated);

    const Point probe = {0.1, 0.2, 0.3};
    EXPECT_EQ(incremental.posterior(probe).mean,
              direct.posterior(probe).mean);
    EXPECT_EQ(incremental.posterior(probe).variance,
              direct.posterior(probe).variance);
}

TEST(GpIncremental, TruncateMatchesFitOnPrefixBitwise) {
    std::vector<Point> xs;
    std::vector<double> ys;
    make_data(16, xs, ys);
    GaussianProcess truncated(test_kernel(), 1e-4);
    truncated.fit(xs, ys);
    ASSERT_EQ(truncated.jitter(), 0.0);
    truncated.truncate(9);

    GaussianProcess direct(test_kernel(), 1e-4);
    direct.fit(std::vector<Point>(xs.begin(), xs.begin() + 9),
               std::vector<double>(ys.begin(), ys.begin() + 9));
    const Point probe = {0.8, 0.4, 0.2};
    EXPECT_EQ(truncated.observation_count(), 9U);
    EXPECT_EQ(truncated.posterior(probe).mean, direct.posterior(probe).mean);
    EXPECT_EQ(truncated.posterior(probe).variance,
              direct.posterior(probe).variance);
}

TEST(GpIncremental, ObserveRejectsWhenFactorCarriesJitter) {
    // Two identical points make the unjittered Gram singular, so fit()
    // needs jitter — and the incremental path must refuse rather than
    // silently diverge from the canonical factorization.
    const std::vector<Point> xs = {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}};
    GaussianProcess gp(test_kernel(), 0.0);
    gp.fit(xs, {1.0, 1.0});
    ASSERT_GT(gp.jitter(), 0.0);
    EXPECT_FALSE(gp.observe({0.1, 0.2, 0.3}, 0.5));
    EXPECT_EQ(gp.observation_count(), 2U);
    EXPECT_THROW(gp.truncate(1), std::logic_error);
}

TEST(GpBatched, PosteriorBatchMatchesPerPointBitwise) {
    std::vector<Point> xs;
    std::vector<double> ys;
    make_data(40, xs, ys);
    GaussianProcess gp(test_kernel(), 1e-4);
    gp.fit(xs, ys);

    std::vector<Point> queries;
    Rng rng(9);
    for (std::size_t i = 0; i < 33; ++i) {
        queries.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    }
    const std::vector<Posterior> batched = gp.posterior_batch(queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const Posterior one = gp.posterior(queries[i]);
        EXPECT_EQ(batched[i].mean, one.mean) << "query " << i;
        EXPECT_EQ(batched[i].variance, one.variance) << "query " << i;
    }
}

// ------------------------------------------------------------------ //
// Batch fantasies: rollback restores the surrogate bit-for-bit.       //
// ------------------------------------------------------------------ //

BayesOptConfig small_config() {
    BayesOptConfig config;
    config.initial_random_trials = 4;
    config.candidates = 16;
    config.local_candidates = 8;
    config.noise_variance = 1e-4;
    return config;
}

TEST(BatchFantasies, RollbackRestoresSurrogateBitwise) {
    BayesOpt bo(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                std::make_unique<PosteriorMean>(), small_config(), Rng(3));
    Rng obj(4);
    for (std::size_t i = 0; i < 10; ++i) {
        Point x = bo.suggest();
        const double y = std::sin(3.0 * x[0]) - 0.5 * x[1] + 0.25 * x[2];
        bo.observe(std::move(x), y);
    }
    const Point probe = {0.4, 0.4, 0.4};
    const Posterior before = bo.surrogate().posterior(probe);
    const std::size_t count_before = bo.surrogate().observation_count();

    const std::vector<Point> batch = bo.suggest_batch(4);
    EXPECT_EQ(batch.size(), 4U);

    const Posterior after = bo.surrogate().posterior(probe);
    EXPECT_EQ(bo.surrogate().observation_count(), count_before);
    EXPECT_EQ(bo.trials().size(), 10U);
    EXPECT_EQ(before.mean, after.mean);
    EXPECT_EQ(before.variance, after.variance);
}

// ------------------------------------------------------------------ //
// Trust-region adaptation.                                            //
// ------------------------------------------------------------------ //

BayesOptConfig tr_config(std::size_t activate_after) {
    BayesOptConfig config = small_config();
    config.trust_region.enabled = true;
    config.trust_region.activate_after = activate_after;
    config.trust_region.initial_length = 0.4;
    config.trust_region.min_length = 0.05;
    config.trust_region.max_length = 1.0;
    config.trust_region.success_tolerance = 2;
    config.trust_region.failure_tolerance = 3;
    return config;
}

TEST(TrustRegion, MalformedConfigRejected) {
    BayesOptConfig config = tr_config(1);
    config.trust_region.min_length = 0.8;  // > initial_length
    EXPECT_THROW(BayesOpt(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                          std::make_unique<PosteriorMean>(), config, Rng(1)),
                 std::invalid_argument);
}

TEST(TrustRegion, ExpandsOnSuccessesShrinksOnFailuresAndRestarts) {
    // Drive the counters directly through observe(): improvements double
    // the edge at success_tolerance = 2, non-improvements halve it at
    // failure_tolerance = 3, and collapsing below min_length restarts.
    BayesOpt bo(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                std::make_unique<PosteriorMean>(), tr_config(0), Rng(7));
    Rng point_rng(8);
    auto fresh_point = [&] {
        return Point{point_rng.uniform(), point_rng.uniform(),
                     point_rng.uniform()};
    };
    ASSERT_DOUBLE_EQ(bo.trust_region().length, 0.4);

    // Two consecutive improvements: 0.4 -> 0.8.
    bo.observe(fresh_point(), 1.0);
    bo.observe(fresh_point(), 2.0);
    EXPECT_DOUBLE_EQ(bo.trust_region().length, 0.8);
    EXPECT_EQ(bo.trust_region().successes, 0U);

    // Two more: 0.8 -> 1.6 capped at max_length 1.0.
    bo.observe(fresh_point(), 3.0);
    bo.observe(fresh_point(), 4.0);
    EXPECT_DOUBLE_EQ(bo.trust_region().length, 1.0);

    // Nine non-improvements: three halvings, 1.0 -> 0.125.
    for (int i = 0; i < 9; ++i) bo.observe(fresh_point(), -1.0);
    EXPECT_DOUBLE_EQ(bo.trust_region().length, 0.125);
    EXPECT_EQ(bo.trust_region().restarts, 0U);

    // Three more: 0.125 -> 0.0625 < min_length 0.05? No — 0.0625 >= 0.05,
    // so one more round is needed for the restart.
    for (int i = 0; i < 3; ++i) bo.observe(fresh_point(), -1.0);
    EXPECT_DOUBLE_EQ(bo.trust_region().length, 0.0625);
    for (int i = 0; i < 3; ++i) bo.observe(fresh_point(), -1.0);
    EXPECT_DOUBLE_EQ(bo.trust_region().length, 0.4);
    EXPECT_EQ(bo.trust_region().restarts, 1U);

    // A failed trial never counts as an improvement, whatever its stored y.
    bo.observe(fresh_point(), 100.0, TrialStatus::kFailedNaN);
    EXPECT_EQ(bo.trust_region().failures, 1U);
}

TEST(TrustRegion, InactiveBeforeThresholdMatchesDisabledBitwise) {
    // With activation past the horizon, an enabled trust region must not
    // perturb a single proposal or RNG draw: the streams stay identical
    // to the plain optimizer (the "existing digests stay valid" half of
    // the contract).
    BayesOpt plain(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                   std::make_unique<PosteriorMean>(), small_config(),
                   Rng(11));
    BayesOpt gated(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                   std::make_unique<PosteriorMean>(), tr_config(1000000),
                   Rng(11));
    for (std::size_t i = 0; i < 12; ++i) {
        const Point a = plain.suggest();
        const Point b = gated.suggest();
        ASSERT_EQ(a, b) << "trial " << i;
        const double y = std::cos(4.0 * a[0]) + a[1] * a[2];
        plain.observe(a, y);
        gated.observe(b, y);
    }
}

// ------------------------------------------------------------------ //
// Thousand-trial determinism: threads and kill/resume.                //
// ------------------------------------------------------------------ //

constexpr std::size_t kLongRunTrials = 1000;

/// Cheap deterministic objective for the long synthetic searches.
double synthetic_objective(const Point& x) {
    return std::sin(5.0 * x[0]) + 0.5 * std::cos(9.0 * x[1]) -
           0.25 * (x[2] - 0.3) * (x[2] - 0.3);
}

/// Small pools + a trust region keep a 1000-trial search at test speed
/// while still exercising every new code path (incremental observe,
/// pooled scoring, local model, radius adaptation).
BayesOptConfig long_run_config() {
    BayesOptConfig config;
    config.initial_random_trials = 8;
    config.candidates = 8;
    config.local_candidates = 4;
    // Generous noise keeps the n=1000 Gram unjittered, so the run stays on
    // the O(n^2) incremental path instead of n full refits.
    config.noise_variance = 1e-2;
    config.trust_region.enabled = true;
    config.trust_region.activate_after = 400;
    config.trust_region.max_local_trials = 96;
    return config;
}

BayesOpt make_long_run_bo() {
    return BayesOpt(BoxBounds::uniform(3, 0.0, 1.0), test_kernel(),
                    std::make_unique<PosteriorMean>(), long_run_config(),
                    Rng(17));
}

std::string hex_bits(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(double));
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buffer;
}

/// One trial-log line: index plus the raw IEEE-754 bits of every
/// coordinate and the objective, so "byte-identical" is literal.
std::string trial_line(std::size_t index, const Trial& t) {
    std::ostringstream os;
    os << index;
    for (double v : t.x) os << ' ' << hex_bits(v);
    os << ' ' << hex_bits(t.y);
    return os.str();
}

std::vector<std::string> run_trials(BayesOpt& bo, std::size_t count) {
    std::vector<std::string> lines;
    lines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Point x = bo.suggest();
        const double y = synthetic_objective(x);
        bo.observe(std::move(x), y);
        lines.push_back(trial_line(bo.trials().size() - 1,
                                   bo.trials().back()));
    }
    return lines;
}

TEST(ThousandTrials, KillResumeLogIsByteIdentical) {
    // Uninterrupted reference run.
    BayesOpt reference = make_long_run_bo();
    const std::vector<std::string> full =
        run_trials(reference, kLongRunTrials);
    ASSERT_EQ(full.size(), kLongRunTrials);

    // Kill at trial 500 (export the canonical state, drop the optimizer),
    // resume into a freshly constructed instance, finish the budget.
    const std::size_t kill_at = 500;
    std::vector<std::string> stitched;
    BayesOptState snapshot;
    {
        BayesOpt first = make_long_run_bo();
        stitched = run_trials(first, kill_at);
        snapshot = first.export_state();
    }
    BayesOpt resumed = make_long_run_bo();
    resumed.import_state(snapshot);
    const std::vector<std::string> tail =
        run_trials(resumed, kLongRunTrials - kill_at);
    stitched.insert(stitched.end(), tail.begin(), tail.end());

    ASSERT_EQ(stitched.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        ASSERT_EQ(stitched[i], full[i]) << "trial " << i;
    }
    // The resumed optimizer also carries the adapted trust region.
    EXPECT_EQ(resumed.trust_region().length,
              reference.trust_region().length);
    EXPECT_EQ(resumed.trust_region().restarts,
              reference.trust_region().restarts);
}

#ifdef __linux__
/// The search_long surrogate at test size: the 14-dim mlp_arch_family
/// encoding (two categorical blocks) and Matern52 over the same points,
/// 150 GP rows and 313 candidates (ten 32-column solve blocks, the last
/// one ragged), every other candidate nudged off its one-hot encoding.
/// Checks the pooled posterior against per-point posterior() bitwise and
/// returns one hex line per candidate.
std::vector<std::string> pooled_posterior_lines() {
    models::MlpOptions base;
    base.input_features = 256;
    base.hidden = 64;
    const models::ArchFamily family = models::mlp_arch_family(
        base, /*max_hidden_layers=*/4, /*max_dropout_rate=*/0.5);
    const core::ParamSpace& space = family.space;
    Rng rng(23);
    std::vector<Point> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < 150; ++i) {
        xs.push_back(space.encode(space.sample(rng)));
        ys.push_back(rng.normal());
    }
    std::vector<Point> queries;
    for (std::size_t r = 0; r < 313; ++r) {
        Point q = space.encode(space.sample(rng));
        if (r % 2 == 1) {
            for (double& v : q) v += rng.uniform(-0.2, 0.2);
        }
        queries.push_back(std::move(q));
    }
    const std::shared_ptr<const Kernel> kernels[] = {
        space.kernel(4.0, 1.0), std::make_shared<Matern52>(0.8)};
    std::vector<std::string> lines;
    for (const auto& kernel : kernels) {
        GaussianProcess gp(kernel, 1e-2);
        gp.fit(xs, ys);
        const std::vector<Posterior> batched = gp.posterior_batch(queries);
        for (std::size_t r = 0; r < queries.size(); ++r) {
            const Posterior one = gp.posterior(queries[r]);
            EXPECT_EQ(batched[r].mean, one.mean)
                << kernel->describe() << " query " << r;
            EXPECT_EQ(batched[r].variance, one.variance)
                << kernel->describe() << " query " << r;
            lines.push_back(kernel->describe() + ' ' +
                            hex_bits(batched[r].mean) + ' ' +
                            hex_bits(batched[r].variance));
        }
    }
    return lines;
}

/// Child mode: when BAYESFT_GP_SCALING_OUT names a file, the child tests
/// below run in *this* process (whose pool width came from
/// BAYESFT_NUM_THREADS at startup) and write their lines there.  The
/// parent tests launch them at different thread counts.
void write_child_lines(const std::vector<std::string>& lines,
                       const char* out) {
    std::ofstream file(out);
    ASSERT_TRUE(file) << out;
    for (const std::string& line : lines) file << line << '\n';
}

TEST(ThousandTrialsChild, WriteTrialLog) {
    const char* out = std::getenv("BAYESFT_GP_SCALING_OUT");
    if (out == nullptr) {
        GTEST_SKIP() << "parent-driven child mode only";
    }
    BayesOpt bo = make_long_run_bo();
    write_child_lines(run_trials(bo, kLongRunTrials), out);
}

TEST(PooledPosteriorChild, WriteLines) {
    const char* out = std::getenv("BAYESFT_GP_SCALING_OUT");
    if (out == nullptr) {
        GTEST_SKIP() << "parent-driven child mode only";
    }
    write_child_lines(pooled_posterior_lines(), out);
}

/// The pool width is fixed per process (BAYESFT_NUM_THREADS is read
/// once), so genuine 1-vs-4-thread coverage needs child processes: re-run
/// this binary filtered down to one child test at 1 and at 4 threads and
/// return both outputs.  A child exits nonzero if any of its checks fail.
std::pair<std::string, std::string> child_outputs_1_and_4(
    const std::string& child_test) {
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    const std::string dir = ::testing::TempDir();
    std::string outputs[2];
    const std::size_t widths[2] = {1, 4};
    for (std::size_t c = 0; c < 2; ++c) {
        const std::string log = dir + "gp_scaling_" + child_test + "_t" +
                                std::to_string(widths[c]) + ".log";
        const std::string command =
            "BAYESFT_NUM_THREADS=" + std::to_string(widths[c]) +
            " BAYESFT_GP_SCALING_OUT='" + log + "' '" + self +
            "' --gtest_filter=" + child_test + " >/dev/null 2>&1";
        EXPECT_EQ(std::system(command.c_str()), 0) << child_test;
        std::ifstream file(log, std::ios::binary);
        EXPECT_TRUE(file) << log;
        outputs[c].assign(std::istreambuf_iterator<char>(file),
                          std::istreambuf_iterator<char>());
    }
    return {outputs[0], outputs[1]};
}

TEST(ThousandTrials, LogIsByteIdenticalAcrossThreadCounts) {
    const auto [bytes_a, bytes_b] =
        child_outputs_1_and_4("ThousandTrialsChild.WriteTrialLog");
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b)
        << "trial logs diverge between 1 and 4 threads";
    // Sanity: the log covers the whole budget.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(bytes_a.begin(), bytes_a.end(), '\n')),
              kLongRunTrials);
}

TEST(GpBatched, ArchSpaceAndMaternPoolsMatchPerPointAtOneAndFourThreads) {
    const auto [bytes_a, bytes_b] =
        child_outputs_1_and_4("PooledPosteriorChild.WriteLines");
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b)
        << "pooled posteriors diverge between 1 and 4 threads";
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(bytes_a.begin(), bytes_a.end(), '\n')),
              2U * 313U);
}
#endif  // __linux__

}  // namespace
}  // namespace bayesft::bayesopt
