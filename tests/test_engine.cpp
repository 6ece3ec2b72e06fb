// EvaluationEngine + experiment registry: serial bit-identity of the q = 1
// path (classifier and fig3j's detector search), memoization-cache
// behaviour, batch diversity, thread invariance of batched search, and
// the registry table: lookup, row shape, and every cheap row run quick.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "core/bayesft.hpp"
#include "core/engine.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/toy.hpp"
#include "detector_fixture.hpp"
#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

class EngineFixture : public ::testing::Test {
protected:
    static models::ModelHandle make_model(Rng& rng) {
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 16;
        options.hidden_layers = 2;
        options.classes = 3;
        return models::make_mlp(options, rng);
    }

    static BayesFTConfig small_config() {
        BayesFTConfig config;
        config.iterations = 4;
        config.epochs_per_iteration = 1;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.warmup_epochs = 1;
        config.final_epochs = 1;
        return config;
    }

    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(1);
        const data::Dataset full = data::make_blobs(300, 3, 4.0, 0.6, rng);
        Rng split_rng(2);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
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

/// The pre-engine serial loop, reproduced verbatim: suggest -> install ->
/// train E epochs -> drift utility -> observe.  The engine's q = 1 path
/// must match it bit for bit.  Deliberately built on the raw
/// BoxBounds::uniform + ArdSquaredExponential machinery (the pre-ParamSpace
/// code path), so this comparison also pins the typed-space refactor:
/// bayesft_search now routes through ParamSpace::dropout, whose encoded
/// bounds, kernel values, projection, and RNG streams must reproduce the
/// historical path exactly (weights and utility trace compared below).
BayesFTResult reference_serial_search(models::ModelHandle& model,
                                      const data::Dataset& train_set,
                                      const data::Dataset& validation_set,
                                      const BayesFTConfig& config, Rng& rng) {
    const std::size_t dims = model.dropout_sites.size();
    auto bounds =
        bayesopt::BoxBounds::uniform(dims, 0.0, config.max_dropout_rate);
    auto kernel = std::make_shared<bayesopt::ArdSquaredExponential>(
        dims, config.kernel_inverse_scale);
    bayesopt::BayesOpt bo(bounds, kernel,
                          bayesopt::make_acquisition(config.acquisition),
                          config.bo, rng.split());
    nn::TrainConfig epoch_config = config.train;
    epoch_config.epochs = config.epochs_per_iteration;
    if (config.warmup_epochs > 0) {
        model.set_dropout_rates(std::vector<double>(dims, 0.0));
        nn::TrainConfig warmup = config.train;
        warmup.epochs = config.warmup_epochs;
        nn::train_classifier(*model.net, train_set.images, train_set.labels,
                             warmup, rng);
    }
    for (std::size_t t = 0; t < config.iterations; ++t) {
        const bayesopt::Point alpha = bo.suggest();
        model.set_dropout_rates(alpha);
        nn::train_classifier(*model.net, train_set.images, train_set.labels,
                             epoch_config, rng);
        const double utility =
            fault_utility(*model.net, validation_set.images,
                          validation_set.labels, config.objective, rng);
        bo.observe(alpha, utility);
    }
    BayesFTResult result;
    const auto best = bo.best();
    result.best_alpha = best->x;
    result.best_utility = best->y;
    result.trials = bo.trials();
    model.set_dropout_rates(result.best_alpha);
    if (config.final_epochs > 0) {
        nn::TrainConfig final_config = config.train;
        final_config.epochs = config.final_epochs;
        nn::train_classifier(*model.net, train_set.images, train_set.labels,
                             final_config, rng);
    }
    return result;
}

TEST_F(EngineFixture, Q1BatchedSearchBitIdenticalToSerialLoop) {
    const BayesFTConfig config = small_config();

    Rng ref_model_rng(10);
    models::ModelHandle reference_model = make_model(ref_model_rng);
    Rng ref_rng(11);
    const BayesFTResult reference = reference_serial_search(
        reference_model, train_, test_, config, ref_rng);

    Rng engine_model_rng(10);
    models::ModelHandle engine_model = make_model(engine_model_rng);
    Rng engine_rng(11);
    BayesFTConfig engine_config = config;
    engine_config.batch = 1;
    const BayesFTResult batched =
        bayesft_search(engine_model, train_, test_, engine_config,
                       engine_rng);

    ASSERT_EQ(batched.trials.size(), reference.trials.size());
    for (std::size_t t = 0; t < reference.trials.size(); ++t) {
        EXPECT_EQ(batched.trials[t].x, reference.trials[t].x) << "trial " << t;
        EXPECT_EQ(batched.trials[t].y, reference.trials[t].y) << "trial " << t;
    }
    EXPECT_EQ(batched.best_alpha, reference.best_alpha);
    EXPECT_EQ(batched.best_utility, reference.best_utility);
    // Final weights must agree bit for bit as well.
    EXPECT_EQ(weights_of(*engine_model.net), weights_of(*reference_model.net));
}

/// fig3j's hand-rolled search before it moved onto the shared driver,
/// reproduced verbatim bar the scale knobs: suggest -> install -> train
/// `epochs` -> drift-averaged mAP at sigma 0.2 and 0.4 -> observe, then
/// install the best rates and train once more.  The driver path
/// (bayesft_search's detector overload) must match it bit for bit.
std::vector<bayesopt::Trial> reference_detector_search(
    detect::GridDetector& detector, const data::DetectionDataset& train,
    const data::DetectionDataset& val, std::size_t iterations,
    std::size_t epochs, std::size_t mc_samples, Rng& rng) {
    const std::size_t dims = detector.dropout_sites().size();
    bayesopt::BayesOptConfig bo_config;
    bo_config.initial_random_trials = 3;
    bayesopt::BayesOpt bo(
        bayesopt::BoxBounds::uniform(dims, 0.0, 0.6),
        std::make_shared<bayesopt::ArdSquaredExponential>(dims, 4.0),
        std::make_unique<bayesopt::PosteriorMean>(), bo_config, rng.split());

    detect::DetectorTrainConfig step;
    step.epochs = epochs;
    const auto map_under_drift = [&](double sigma) {
        return fault::evaluate_metric_under_faults(
                   detector.network(), fault::LogNormalDrift(sigma),
                   mc_samples, rng,
                   [&](nn::Module& m) {
                       return detector.evaluate_map_with(m, val.images,
                                                         val.boxes);
                   },
                   0)
            .mean_accuracy;
    };
    for (std::size_t t = 0; t < iterations; ++t) {
        const bayesopt::Point alpha = bo.suggest();
        for (std::size_t i = 0; i < dims; ++i) {
            detector.dropout_sites()[i]->set_rate(alpha[i]);
        }
        detector.train(train.images, train.boxes, step, rng);
        double utility = 0.0;
        for (double sigma : {0.2, 0.4}) utility += map_under_drift(sigma);
        bo.observe(alpha, utility / 2.0);
    }
    const auto best = bo.best();
    for (std::size_t i = 0; i < dims; ++i) {
        detector.dropout_sites()[i]->set_rate(best->x[i]);
    }
    detector.train(train.images, train.boxes, step, rng);
    return bo.trials();
}

TEST_F(EngineFixture, DetectorSearchOnDriverBitIdenticalToHandRolledLoop) {
    const testing::DetectorScenes scenes = testing::small_detector_scenes();
    const BayesFTConfig config =
        testing::detector_search_config(/*batch=*/1, /*threads=*/1);
    const detect::GridDetectorConfig detector_config;

    Rng reference_rng(112);
    detect::GridDetector reference(detector_config, reference_rng);
    const std::vector<bayesopt::Trial> reference_trials =
        reference_detector_search(reference, scenes.train, scenes.val,
                                  config.iterations,
                                  config.epochs_per_iteration,
                                  config.objective.mc_samples, reference_rng);

    Rng rng(112);
    detect::GridDetector detector(detector_config, rng);
    models::ModelHandle model = testing::searched_network(detector);
    const BayesFTResult driven = bayesft_search(
        model, detector, scenes.train, scenes.val, config, rng);

    ASSERT_EQ(driven.trials.size(), reference_trials.size());
    for (std::size_t t = 0; t < reference_trials.size(); ++t) {
        EXPECT_EQ(driven.trials[t].x, reference_trials[t].x) << "trial " << t;
        EXPECT_EQ(driven.trials[t].y, reference_trials[t].y) << "trial " << t;
    }
    std::vector<double> reference_rates;
    for (const nn::Dropout* site : reference.dropout_sites()) {
        reference_rates.push_back(site->rate());
    }
    EXPECT_EQ(driven.best_alpha, reference_rates);
    EXPECT_EQ(model.dropout_rates(), reference_rates);
    EXPECT_EQ(weights_of(*model.net), weights_of(reference.network()));
}

TEST_F(EngineFixture, BatchedSearchInvariantToEngineThreadCount) {
    BayesFTConfig config = small_config();
    config.iterations = 6;
    config.batch = 3;

    std::vector<BayesFTResult> results;
    std::vector<std::vector<float>> weights;
    for (const std::size_t threads : {1UL, 2UL, 5UL}) {
        Rng model_rng(20);
        models::ModelHandle model = make_model(model_rng);
        Rng rng(21);
        BayesFTConfig run = config;
        run.eval_threads = threads;
        results.push_back(bayesft_search(model, train_, test_, run, rng));
        weights.push_back(weights_of(*model.net));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[i].trials.size(), results[0].trials.size());
        for (std::size_t t = 0; t < results[0].trials.size(); ++t) {
            EXPECT_EQ(results[i].trials[t].x, results[0].trials[t].x);
            EXPECT_EQ(results[i].trials[t].y, results[0].trials[t].y);
        }
        EXPECT_EQ(results[i].best_alpha, results[0].best_alpha);
        EXPECT_EQ(weights[i], weights[0]);
    }
}

TEST_F(EngineFixture, DuplicateCandidatesInBatchAreCacheHits) {
    Rng model_rng(30);
    models::ModelHandle model = make_model(model_rng);
    ObjectiveConfig objective;
    objective.sigmas = {0.4};
    objective.mc_samples = 2;
    const CandidateEvaluator evaluator =
        [&](models::ModelHandle& m, const Alpha&, Rng& r) {
            return fault_utility(*m.net, test_.images, test_.labels,
                                 objective, r);
        };

    EvaluationEngine engine;
    EvalContext context;
    Rng rng(31);
    const Alpha a{0.1, 0.2};
    const Alpha b{0.3, 0.05};
    const BatchOutcome first = engine.evaluate_batch(
        model, {a, b, a, a}, evaluator, rng, context, /*adopt_winner=*/false);
    EXPECT_EQ(first.cache_hits, 2U);  // two duplicates of `a`
    EXPECT_EQ(first.utilities[0], first.utilities[2]);
    EXPECT_EQ(first.utilities[0], first.utilities[3]);

    // Same context and stamp (weights unchanged): everything is memoized.
    const BatchOutcome second = engine.evaluate_batch(
        model, {a, b}, evaluator, rng, context, /*adopt_winner=*/false);
    EXPECT_EQ(second.cache_hits, 2U);
    EXPECT_EQ(second.utilities[0], first.utilities[0]);
    EXPECT_EQ(second.utilities[1], first.utilities[1]);
    EXPECT_EQ(engine.cache_hits(), 4U);

    // Bumping the stamp (weights changed) invalidates the memo.
    ++context.stamp;
    const BatchOutcome third = engine.evaluate_batch(
        model, {a, b}, evaluator, rng, context, /*adopt_winner=*/false);
    EXPECT_EQ(third.cache_hits, 0U);
}

TEST_F(EngineFixture, AdoptWinnerInstallsBestCandidate) {
    Rng model_rng(40);
    models::ModelHandle model = make_model(model_rng);
    // Utility is a deterministic function of alpha: highest at alpha[0].
    const CandidateEvaluator evaluator =
        [](models::ModelHandle& m, const Alpha&, Rng&) {
            return m.dropout_rates()[0];
        };
    EvaluationEngine engine;
    EvalContext context;
    Rng rng(41);
    const std::vector<Alpha> alphas{{0.1, 0.3}, {0.4, 0.1}, {0.2, 0.2}};
    const BatchOutcome outcome = engine.evaluate_batch(
        model, alphas, evaluator, rng, context, /*adopt_winner=*/true);
    EXPECT_EQ(outcome.best_index, 1U);
    EXPECT_EQ(model.dropout_rates(), alphas[1]);
}

TEST_F(EngineFixture, ModelHandleCloneRelocatesSites) {
    Rng rng(50);
    models::ModelHandle model = make_model(rng);
    model.set_dropout_rates({0.25, 0.4});
    const models::ModelHandle replica = model.clone();
    ASSERT_EQ(replica.dropout_sites.size(), model.dropout_sites.size());
    EXPECT_EQ(replica.dropout_rates(), model.dropout_rates());
    for (std::size_t i = 0; i < replica.dropout_sites.size(); ++i) {
        EXPECT_NE(replica.dropout_sites[i], model.dropout_sites[i]);
    }
    // Replica sites are independent of the original's.
    models::ModelHandle mutable_replica = model.clone();
    mutable_replica.set_dropout_rates({0.0, 0.0});
    EXPECT_EQ(model.dropout_rates(), (std::vector<double>{0.25, 0.4}));
}

TEST_F(EngineFixture, ClonedResnetAndStnRelocateSitesToo) {
    // The composite architectures exercise collect_children on Residual
    // and SpatialTransformer.
    Rng rng(51);
    models::ModelHandle resnet = models::make_resnet18_s(4, rng);
    const models::ModelHandle resnet_copy = resnet.clone();
    EXPECT_EQ(resnet_copy.dropout_sites.size(), resnet.dropout_sites.size());

    models::ModelHandle stn = models::make_stn_classifier(5, rng);
    const models::ModelHandle stn_copy = stn.clone();
    EXPECT_EQ(stn_copy.dropout_sites.size(), stn.dropout_sites.size());
}

TEST_F(EngineFixture, BatchedSearchReportsEngineStatistics) {
    BayesFTConfig config = small_config();
    config.iterations = 6;
    config.batch = 2;
    Rng model_rng(60);
    models::ModelHandle model = make_model(model_rng);
    Rng rng(61);
    const BayesFTResult result =
        bayesft_search(model, train_, test_, config, rng);
    EXPECT_EQ(result.trials.size(), 6U);
    EXPECT_EQ(model.dropout_rates(), result.best_alpha);
}

TEST(Registry, ListsAndFindsBuiltinExperiments) {
    const ExperimentRegistry& registry = ExperimentRegistry::instance();
    std::set<std::string> name_set;
    for (const ExperimentSpec& spec : registry.list()) {
        name_set.insert(spec.name);
    }
    EXPECT_GE(name_set.size(), 17U);
    for (const char* expected :
         {"fig2a_dropout", "fig2b_normalization", "fig2c_depth",
          "fig2d_activation", "fig3a_mlp_mnist", "fig3b_lenet_mnist",
          "fig3c_alexnet_cifar", "fig3d_resnet_cifar", "fig3e_vgg_cifar",
          "fig3f_preact18", "fig3g_preact50", "fig3h_preact152",
          "fig3i_gtsrb", "fig3j_detection", "ablation_bo_vs_random",
          "ablation_mc_samples", "toy_mlp_blobs"}) {
        EXPECT_TRUE(name_set.count(expected)) << expected;
    }
    EXPECT_NE(registry.find("fig3a_mlp_mnist"), nullptr);
    EXPECT_EQ(registry.find("no_such_experiment"), nullptr);
    EXPECT_THROW(registry.run("no_such_experiment", {}),
                 std::invalid_argument);
}

TEST(Registry, TableHasUniqueNamesAndNonEmptyFamilies) {
    const std::vector<ExperimentSpec>& specs =
        ExperimentRegistry::instance().list();
    EXPECT_EQ(specs.size(), 31U);
    std::set<std::string> names;
    std::map<std::string, std::size_t> families;
    std::size_t checkpointable = 0;
    std::size_t distributable = 0;
    for (const ExperimentSpec& spec : specs) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate scenario " << spec.name;
        EXPECT_FALSE(spec.family.empty()) << spec.name;
        EXPECT_FALSE(spec.description.empty()) << spec.name;
        EXPECT_TRUE(spec.run) << spec.name;
        ++families[spec.family];
        checkpointable += spec.checkpointable ? 1 : 0;
        distributable += spec.distributable ? 1 : 0;
        // Only a checkpointable search can farm candidates to workers.
        EXPECT_TRUE(spec.checkpointable || !spec.distributable) << spec.name;
    }
    for (const char* family :
         {"fig2", "fig3", "faults", "archsearch", "ablation", "toy"}) {
        EXPECT_GT(families[family], 0U) << family;
    }
    EXPECT_EQ(families.size(), 6U);
    EXPECT_EQ(checkpointable, 17U);
    EXPECT_EQ(distributable, 4U);
}

/// Every row cheap at --quick: each curve spans the sweep axis, and a row
/// logs trials 0..n-1 exactly when it runs a resumable search.
TEST(Registry, CheapRowsRunQuickWithAlignedCurvesAndTrialLogs) {
    set_log_level(LogLevel::Error);
    const ExperimentRegistry& registry = ExperimentRegistry::instance();
    RunOptions options;
    options.quick = true;
    std::size_t ran = 0;
    std::size_t faults = 0;
    for (const ExperimentSpec& spec : registry.list()) {
        const bool cheap = spec.family == "fig2" || spec.family == "faults" ||
                           spec.family == "toy" ||
                           spec.family == "ablation" ||
                           spec.name == "fig3a_mlp_mnist" ||
                           spec.name == "archsearch_fig2_mlp";
        if (!cheap) continue;
        ++ran;
        faults += spec.family == "faults" ? 1 : 0;
        const RegistryResult result = registry.run(spec.name, options);
        EXPECT_EQ(result.experiment, spec.name);
        EXPECT_TRUE(result.search_completed) << spec.name;
        EXPECT_FALSE(result.xs.empty()) << spec.name;
        ASSERT_FALSE(result.curves.empty()) << spec.name;
        for (const NamedCurve& curve : result.curves) {
            EXPECT_EQ(curve.values.size(), result.xs.size())
                << spec.name << " curve " << curve.label;
            if (spec.family == "ablation") continue;  // utilities, seconds
            for (double v : curve.values) {
                EXPECT_GE(v, 0.0) << spec.name << " " << curve.label;
                EXPECT_LE(v, 1.0) << spec.name << " " << curve.label;
            }
        }
        EXPECT_EQ(!result.trials.empty(), spec.checkpointable) << spec.name;
        for (std::size_t i = 0; i < result.trials.size(); ++i) {
            EXPECT_EQ(result.trials[i].index, i) << spec.name;
        }
    }
    EXPECT_EQ(ran, 20U);
    EXPECT_EQ(faults, 10U);  // the registered fault-family scenarios
}

/// ablation_bo_vs_random honours the search flags: a trust region from
/// the first trial moves the GP-guided strategies but not random search.
TEST(Registry, BoVsRandomAblationTakesTheSearchFlags) {
    set_log_level(LogLevel::Error);
    const ExperimentRegistry& registry = ExperimentRegistry::instance();
    RunOptions options;
    const RegistryResult plain = registry.run("ablation_bo_vs_random", options);
    options.trust_region = true;
    options.tr_after = 1;
    const RegistryResult local = registry.run("ablation_bo_vs_random", options);
    ASSERT_EQ(plain.curves.size(), 4U);
    ASSERT_EQ(local.curves.size(), 4U);
    bool moved = false;
    for (std::size_t c = 0; c + 1 < plain.curves.size(); ++c) {
        EXPECT_EQ(plain.curves[c].label, local.curves[c].label);
        moved = moved || plain.curves[c].values != local.curves[c].values;
    }
    EXPECT_TRUE(moved) << "--trust-region left every BO curve unchanged";
    EXPECT_EQ(plain.curves[3].label, "RandomSearch");
    EXPECT_EQ(plain.curves[3].values, local.curves[3].values);
}

TEST(Registry, RunsToyExperimentQuick) {
    set_log_level(LogLevel::Error);
    RunOptions options;
    options.quick = true;
    const RegistryResult result =
        ExperimentRegistry::instance().run("toy_mlp_blobs", options);
    EXPECT_EQ(result.experiment, "toy_mlp_blobs");
    EXPECT_EQ(result.x_label, "sigma");
    ASSERT_EQ(result.curves.size(), 2U);
    EXPECT_EQ(result.curves[0].label, "ERM");
    EXPECT_EQ(result.curves[1].label, "BayesFT");
    for (const NamedCurve& curve : result.curves) {
        ASSERT_EQ(curve.values.size(), result.xs.size());
        for (double v : curve.values) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
    EXPECT_FALSE(result.bayesft_alpha.empty());
    const ResultTable table = result.to_table("toy", 100.0);
    EXPECT_EQ(table.columns().size(), 3U);
    EXPECT_EQ(table.row_count(), result.xs.size());
}

TEST(Registry, DetectionScenarioIsCheckpointableAndLogsEveryTrial) {
    set_log_level(LogLevel::Error);
    const ExperimentSpec* spec =
        ExperimentRegistry::instance().find("fig3j_detection");
    ASSERT_NE(spec, nullptr);
    EXPECT_TRUE(spec->checkpointable);
    RunOptions options;
    options.quick = true;
    const RegistryResult result = spec->run(options);
    ASSERT_EQ(result.trials.size(), 3U);  // the quick run's iterations
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
        EXPECT_EQ(result.trials[i].index, i);
        EXPECT_EQ(result.trials[i].status, "ok");
        EXPECT_FALSE(result.trials[i].point.empty());
    }
    EXPECT_EQ(result.bayesft_alpha.size(), 3U);
    ASSERT_EQ(result.curves.size(), 2U);
    EXPECT_EQ(result.curves[1].label, "BayesFT mAP");
}

TEST(Registry, BatchOptionReachesBayesFTSearch) {
    set_log_level(LogLevel::Error);
    RunOptions options;
    options.quick = true;
    options.batch = 2;
    const RegistryResult result =
        ExperimentRegistry::instance().run("toy_mlp_blobs", options);
    ASSERT_EQ(result.curves.size(), 2U);
    EXPECT_FALSE(result.bayesft_alpha.empty());
}

}  // namespace
}  // namespace bayesft::core
