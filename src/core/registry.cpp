#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "bayesopt/bayesopt.hpp"
#include "core/archsearch.hpp"
#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "core/experiment.hpp"
#include "core/objective.hpp"
#include "data/digits.hpp"
#include "data/objects.hpp"
#include "data/pedestrians.hpp"
#include "data/toy.hpp"
#include "data/traffic_signs.hpp"
#include "detect/detector.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "fault/zoo.hpp"
#include "models/zoo.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"
#include "utils/stopwatch.hpp"

namespace bayesft::core {

ResultTable RegistryResult::to_table(const std::string& title,
                                     double scale) const {
    std::vector<std::string> columns{x_label};
    for (const NamedCurve& curve : curves) columns.push_back(curve.label);
    ResultTable table(title, columns);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        std::vector<double> row{xs[i]};
        for (const NamedCurve& curve : curves) {
            row.push_back(curve.values[i] * scale);
        }
        table.add_row(row);
    }
    return table;
}

namespace {

std::size_t scaled(std::size_t full, bool quick) {
    return quick ? full / 4 : full;
}

/// 16x16 synthetic digits drawn from `seed` (plus the run's seed offset).
data::Dataset digits_task(std::size_t samples, std::uint64_t seed,
                          const RunOptions& options) {
    Rng data_rng(seed + options.seed);
    data::DigitConfig config;
    config.samples = scaled(samples, options.quick);
    config.image_size = 16;
    return data::synthetic_digits(config, data_rng);
}

/// digits_task split 75/25 on the stream `seed + 1`.
data::TrainTestSplit digits_split(std::size_t samples, std::uint64_t seed,
                                  const RunOptions& options) {
    Rng split_rng(seed + 1 + options.seed);
    return data::split(digits_task(samples, seed, options), 0.25, split_rng);
}

/// RunOptions -> a search config's engine, checkpoint and proposal knobs:
/// the one place the CLI's search settings reach BayesFTConfig and
/// ArchSearchConfig (the archsearch scenarios add `workers`).  The CLI
/// validates --fail-policy; anything unrecognized here means "penalize".
template <typename SearchConfig>
void apply_search_options(SearchConfig& config, const RunOptions& options) {
    config.batch = std::max<std::size_t>(1, options.batch);
    config.eval_threads = options.threads;
    config.checkpoint.path = options.checkpoint;
    config.checkpoint.stop_after = options.stop_after;
    config.resilience.isolate = options.isolate;
    config.resilience.timeout_seconds = options.trial_timeout;
    config.resilience.max_retries = options.max_retries;
    config.bo.fail_policy = options.fail_policy == "exclude"
                                ? FailPolicy::kExclude
                                : FailPolicy::kPenalize;
    config.bo.trust_region.enabled = options.trust_region;
    config.bo.trust_region.activate_after = options.tr_after;
}

/// Zips a BO trial history with its search-produced decoded-point strings
/// into run-store TrialRecords (the searches describe their own points via
/// ParamSpace::describe, so every store consumer formats them one way).
std::vector<TrialRecord> to_trial_records(
    const std::vector<bayesopt::Trial>& trials,
    const std::vector<std::string>& points) {
    std::vector<TrialRecord> records;
    records.reserve(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        records.push_back(
            {i, i < points.size() ? points[i] : std::string(),
             trials[i].y, trial_status_name(trials[i].status)});
    }
    return records;
}

/// The archsearch variant: describe the typed trial points on the fly.
std::vector<TrialRecord> arch_trial_records(
    const models::ArchFamily& family, const ArchSearchResult& search) {
    std::vector<std::string> points;
    points.reserve(search.trial_points.size());
    for (const ParamPoint& point : search.trial_points) {
        points.push_back(family.space.describe(point));
    }
    return to_trial_records(search.trials, points);
}

/// The Fig. 3 defaults the benches share (bench_common's
/// default_experiment_config, parameterized on quick mode), with the
/// engine knobs wired from RunOptions.
ExperimentConfig default_config(const RunOptions& options) {
    ExperimentConfig config;
    config.sigmas = {0.0, 0.3, 0.6, 0.9, 1.2, 1.5};
    config.eval_samples = options.quick ? 2 : 4;

    config.train.epochs = options.quick ? 2 : 8;
    config.train.batch_size = 32;
    config.train.learning_rate = 0.05;

    config.bayesft.iterations = options.quick ? 2 : 8;
    config.bayesft.epochs_per_iteration = options.quick ? 1 : 2;
    config.bayesft.train = config.train;
    config.bayesft.objective.sigmas = {0.3, 0.6, 0.9};
    config.bayesft.objective.mc_samples = options.quick ? 1 : 3;
    config.bayesft.warmup_epochs = options.quick ? 1 : 3;
    config.bayesft.final_epochs = options.quick ? 1 : 4;
    config.bayesft.max_dropout_rate = 0.5;
    apply_search_options(config.bayesft, options);

    config.reram_v.adapt_epochs = 2;
    config.reram_v.device_sigma = 0.3;
    config.awp.gamma = 0.02;
    config.ftna_code_bits = 16;
    if (options.seed != 0) config.seed = options.seed;
    return config;
}

RegistryResult from_experiment(const std::string& name,
                               const ExperimentResult& experiment) {
    RegistryResult result;
    result.experiment = name;
    result.x_label = "sigma";
    result.xs = experiment.sigmas;
    for (const MethodCurve& curve : experiment.curves) {
        result.curves.push_back({curve.method, curve.accuracy});
    }
    result.bayesft_alpha = experiment.bayesft_alpha;
    result.trials = to_trial_records(experiment.bayesft_trials,
                                     experiment.bayesft_trial_points);
    result.resumed_trials = experiment.bayesft_resumed;
    result.search_completed = experiment.bayesft_completed;
    return result;
}

// ------------------------------------------------ Fig. 2 ablations ----

struct Variant {
    std::string label;
    std::function<models::ModelHandle(Rng&)> make;
};

/// fig2_common's protocol: train every variant identically on synthetic
/// digits (ERM) and sweep the drift sigma.
RegistryResult run_variant_ablation(const std::string& name,
                                    const std::vector<Variant>& variants,
                                    const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    const data::TrainTestSplit parts = digits_split(1200, 11, options);

    RegistryResult result;
    result.experiment = name;
    result.x_label = "sigma";
    result.xs = {0.0, 0.3, 0.6, 0.9, 1.2, 1.5};
    const std::size_t mc_samples = options.quick ? 2 : 5;

    for (std::size_t i = 0; i < variants.size(); ++i) {
        Rng rng(1000 + i + seed);
        models::ModelHandle model = variants[i].make(rng);
        nn::TrainConfig train_config;
        train_config.epochs = options.quick ? 3 : 10;
        nn::train_classifier(*model.net, parts.train.images,
                             parts.train.labels, train_config, rng);
        Rng eval_rng(2000 + i + seed);
        result.curves.push_back(
            {variants[i].label,
             fault::sigma_sweep(*model.net, parts.test.images,
                                parts.test.labels, result.xs, mc_samples,
                                eval_rng)});
    }
    result.seconds = watch.seconds();
    return result;
}

models::MlpOptions base_mlp_options() {
    models::MlpOptions options;
    options.input_features = 256;
    options.hidden = 64;
    options.hidden_layers = 2;
    return options;
}

RegistryResult run_fig2a(const RunOptions& options) {
    const models::MlpOptions base = base_mlp_options();
    std::vector<Variant> variants;
    variants.push_back({"Original", [base](Rng& rng) {
                            models::MlpOptions o = base;
                            o.dropout = models::DropoutKind::kNone;
                            return models::make_mlp(o, rng);
                        }});
    variants.push_back({"DropOut", [base](Rng& rng) {
                            models::MlpOptions o = base;
                            o.dropout = models::DropoutKind::kStandard;
                            o.initial_dropout_rate = 0.3;
                            return models::make_mlp(o, rng);
                        }});
    variants.push_back({"AlphaDropOut", [base](Rng& rng) {
                            models::MlpOptions o = base;
                            o.dropout = models::DropoutKind::kAlpha;
                            o.initial_dropout_rate = 0.3;
                            return models::make_mlp(o, rng);
                        }});
    return run_variant_ablation("fig2a_dropout", variants, options);
}

RegistryResult run_fig2b(const RunOptions& options) {
    auto norm_variant = [](const std::string& label, models::NormKind norm) {
        return Variant{label, [norm](Rng& rng) {
                           models::MlpOptions o = base_mlp_options();
                           o.dropout = models::DropoutKind::kNone;
                           o.norm = norm;
                           return models::make_mlp(o, rng);
                       }};
    };
    return run_variant_ablation(
        "fig2b_normalization",
        {norm_variant("WithoutNorm", models::NormKind::kNone),
         norm_variant("InstanceNorm", models::NormKind::kInstance),
         norm_variant("BatchNorm", models::NormKind::kBatch),
         norm_variant("GroupNorm", models::NormKind::kGroup),
         norm_variant("LayerNorm", models::NormKind::kLayer)},
        options);
}

RegistryResult run_fig2c(const RunOptions& options) {
    auto depth_variant = [](const std::string& label, std::size_t layers) {
        return Variant{label, [layers](Rng& rng) {
                           models::MlpOptions o = base_mlp_options();
                           o.hidden_layers = layers;
                           o.dropout = models::DropoutKind::kNone;
                           return models::make_mlp(o, rng);
                       }};
    };
    return run_variant_ablation("fig2c_depth",
                                {depth_variant("3-Layer", 2),
                                 depth_variant("6-Layer", 5),
                                 depth_variant("9-Layer", 8)},
                                options);
}

RegistryResult run_fig2d(const RunOptions& options) {
    auto act_variant = [](const std::string& label,
                          const std::string& activation) {
        return Variant{label, [activation](Rng& rng) {
                           models::MlpOptions o = base_mlp_options();
                           o.dropout = models::DropoutKind::kNone;
                           o.activation = activation;
                           return models::make_mlp(o, rng);
                       }};
    };
    return run_variant_ablation("fig2d_activation",
                                {act_variant("ReLU", "relu"),
                                 act_variant("ELU", "elu"),
                                 act_variant("GELU", "gelu"),
                                 act_variant("LeakyReLU", "leaky_relu")},
                                options);
}

// ------------------------------------------------- Fig. 3 panels ----

/// Shared body of the classification panels: synthesize the task with the
/// panel's historical seeds, run every enabled method, time it.
RegistryResult run_classification_panel(
    const std::string& name, const data::Dataset& full,
    std::uint64_t split_seed, const ModelFactory& factory,
    std::size_t num_classes, ExperimentConfig config) {
    Stopwatch watch;
    Rng split_rng(split_seed);
    const data::TrainTestSplit parts = data::split(full, 0.25, split_rng);
    RegistryResult result =
        from_experiment(name, run_classification_experiment(
                                  factory, parts.train, parts.test,
                                  num_classes, config));
    result.seconds = watch.seconds();
    return result;
}

data::Dataset objects_task(std::size_t samples, std::uint64_t seed,
                           const RunOptions& options) {
    Rng data_rng(seed + options.seed);
    data::ObjectConfig config;
    config.samples = scaled(samples, options.quick);
    return data::synthetic_objects(config, data_rng);
}

RegistryResult run_fig3a(const RunOptions& options) {
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        models::MlpOptions o = base_mlp_options();
        o.classes = outputs;
        return models::make_mlp(o, rng);
    };
    return run_classification_panel(
        "fig3a_mlp_mnist", digits_task(1200, 31, options), 32 + options.seed,
        factory, 10, default_config(options));
}

RegistryResult run_fig3b(const RunOptions& options) {
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        return models::make_lenet5(1, 16, outputs, rng);
    };
    ExperimentConfig config = default_config(options);
    config.train.epochs = options.quick ? 3 : 12;
    config.train.learning_rate = 0.03;
    config.bayesft.train = config.train;
    return run_classification_panel("fig3b_lenet_mnist",
                                    digits_task(1000, 41, options),
                                    42 + options.seed, factory, 10, config);
}

ExperimentConfig conv_config(const RunOptions& options) {
    ExperimentConfig config = default_config(options);
    config.train.learning_rate = 0.02;
    config.bayesft.train = config.train;
    return config;
}

RegistryResult run_fig3c(const RunOptions& options) {
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        return models::make_alexnet_s(outputs, rng);
    };
    return run_classification_panel(
        "fig3c_alexnet_cifar", objects_task(1000, 51, options),
        52 + options.seed, factory, 10, conv_config(options));
}

RegistryResult run_fig3d(const RunOptions& options) {
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        return models::make_resnet18_s(outputs, rng);
    };
    return run_classification_panel(
        "fig3d_resnet_cifar", objects_task(800, 61, options),
        62 + options.seed, factory, 10, conv_config(options));
}

RegistryResult run_fig3e(const RunOptions& options) {
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        return models::make_vgg11_s(outputs, rng);
    };
    return run_classification_panel(
        "fig3e_vgg_cifar", objects_task(800, 71, options),
        72 + options.seed, factory, 10, conv_config(options));
}

/// Depth sweep panels run ERM + BayesFT per depth (the panel's message is
/// the depth/robustness interaction, not the full baseline zoo).
RegistryResult run_preact_depth(const std::string& name, std::size_t blocks,
                                const RunOptions& options) {
    const ModelFactory factory = [blocks](std::size_t outputs, Rng& rng) {
        return models::make_preact_resnet_s(blocks, outputs, rng);
    };
    ExperimentConfig config = conv_config(options);
    config.methods.ftna = false;
    config.methods.reram_v = false;
    config.methods.awp = false;
    return run_classification_panel(name, objects_task(800, 81, options),
                                    82 + options.seed, factory, 10, config);
}

RegistryResult run_fig3i(const RunOptions& options) {
    Rng data_rng(91 + options.seed);
    data::TrafficSignConfig sign_config;
    sign_config.samples = scaled(2150, options.quick);
    const data::Dataset full =
        data::synthetic_traffic_signs(sign_config, data_rng);
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        return models::make_stn_classifier(outputs, rng);
    };
    ExperimentConfig config = conv_config(options);
    config.methods.ftna = false;  // per the paper
    return run_classification_panel("fig3i_gtsrb", full, 92 + options.seed,
                                    factory, 43, config);
}

/// CI-sized toy scenario: 3-class blobs, tiny MLP, ERM vs BayesFT only.
RegistryResult run_toy(const RunOptions& options) {
    Rng data_rng(1 + options.seed);
    const data::Dataset full = data::make_blobs(
        options.quick ? 300 : 600, 3, 4.0, 0.6, data_rng);
    const ModelFactory factory = [](std::size_t outputs, Rng& rng) {
        models::MlpOptions o;
        o.input_features = 2;
        o.hidden = 24;
        o.hidden_layers = 2;
        o.classes = outputs;
        return models::make_mlp(o, rng);
    };
    ExperimentConfig config = default_config(options);
    config.sigmas = {0.0, 0.6, 1.2};
    config.train.epochs = options.quick ? 4 : 8;
    // 4 iterations even in quick mode so a --batch 4 smoke run (CI) forms
    // one genuinely 4-wide candidate batch.
    config.bayesft.iterations = 4;
    config.bayesft.train = config.train;
    config.methods.ftna = false;
    config.methods.reram_v = false;
    config.methods.awp = false;
    return run_classification_panel("toy_mlp_blobs", full, 2 + options.seed,
                                    factory, 3, config);
}

// -------------------------------------------- Fig. 3(j) detection ----

/// Scenes [lo, hi) of `scenes` as a set of their own.
data::DetectionDataset slice_scenes(const data::DetectionDataset& scenes,
                                    std::size_t lo, std::size_t hi) {
    const std::size_t row = scenes.images.size() / scenes.size();
    std::vector<std::size_t> shape = scenes.images.shape();
    shape[0] = hi - lo;
    data::DetectionDataset slice;
    slice.images = Tensor(shape);
    std::copy_n(scenes.images.data() + lo * row, (hi - lo) * row,
                slice.images.data());
    slice.boxes.assign(
        scenes.boxes.begin() + static_cast<std::ptrdiff_t>(lo),
        scenes.boxes.begin() + static_cast<std::ptrdiff_t>(hi));
    return slice;
}

/// mAP of `net`, decoded by `detector`, averaged over fault draws.
double map_under_fault(const detect::GridDetector& detector, nn::Module& net,
                       const data::DetectionDataset& scenes,
                       const fault::FaultModel& fault, std::size_t samples,
                       Rng& rng) {
    return fault::evaluate_metric_under_faults(
               net, fault, samples, rng,
               [&](nn::Module& m) {
                   return detector.evaluate_map_with(m, scenes.images,
                                                     scenes.boxes);
               },
               0)
        .mean_accuracy;
}

RegistryResult run_fig3j(const RunOptions& options) {
    Stopwatch watch;
    Rng data_rng(101 + options.seed);
    data::PedestrianConfig scene_config;
    scene_config.samples = options.quick ? 120 : 360;
    const data::DetectionDataset scenes =
        data::synthetic_pedestrians(scene_config, data_rng);
    const std::size_t n = scenes.size();
    const std::size_t train_n = n * 6 / 10;
    const std::size_t val_n = n * 2 / 10;
    const data::DetectionDataset train = slice_scenes(scenes, 0, train_n);
    const data::DetectionDataset val =
        slice_scenes(scenes, train_n, train_n + val_n);
    const data::DetectionDataset test =
        slice_scenes(scenes, train_n + val_n, n);
    const std::vector<double> sigmas{0.0, 0.2, 0.4, 0.6, 0.8};
    const std::size_t eval_samples = options.quick ? 2 : 4;

    Rng erm_rng(111 + options.seed);
    detect::GridDetectorConfig detector_config;
    detect::GridDetector erm(detector_config, erm_rng);
    detect::DetectorTrainConfig train_config;
    train_config.epochs = options.quick ? 15 : 60;
    erm.train(train.images, train.boxes, train_config, erm_rng);

    // Algorithm 1 on the detector: short training runs alternate with BO
    // updates of the per-stage dropout rates; the utility is the mAP
    // averaged over drift sigmas 0.2 and 0.4.  The searched network is a
    // clone of the fresh detector's, which stays the decoder.
    Rng bft_rng(112 + options.seed);
    detect::GridDetector bft(detector_config, bft_rng);
    models::ModelHandle model{bft.network().clone(), {}, "grid_detector"};
    model.dropout_sites = nn::collect_dropout_layers(*model.net);
    const detect::DetectorTrainConfig step;
    BayesFTConfig config;
    config.iterations = options.quick ? 3 : 7;
    config.epochs_per_iteration = options.quick ? 4 : 10;
    config.warmup_epochs = 0;
    config.final_epochs = config.epochs_per_iteration;
    config.train.batch_size = step.batch_size;
    config.train.learning_rate = step.learning_rate;
    config.objective.sigmas = {0.2, 0.4};
    config.objective.mc_samples = options.quick ? 1 : 2;
    config.bo.initial_random_trials = 3;
    apply_search_options(config, options);
    const BayesFTResult search =
        bayesft_search(model, bft, train, val, config, bft_rng);

    RegistryResult result;
    result.experiment = "fig3j_detection";
    result.x_label = "sigma";
    result.trials = to_trial_records(search.trials, search.trial_points);
    result.resumed_trials = search.resumed_trials;
    result.search_completed = search.completed;
    if (!search.completed) {
        // Checkpointed out at stop_after: the trial log is the result.
        result.seconds = watch.seconds();
        return result;
    }
    result.xs = sigmas;
    result.bayesft_alpha = search.best_alpha;
    NamedCurve erm_curve{"ERM mAP", {}};
    NamedCurve bft_curve{"BayesFT mAP", {}};
    Rng eval_rng(113 + options.seed);
    for (double sigma : sigmas) {
        const fault::LogNormalDrift drift(sigma);
        erm_curve.values.push_back(map_under_fault(
            erm, erm.network(), test, drift, eval_samples, eval_rng));
        bft_curve.values.push_back(map_under_fault(
            bft, *model.net, test, drift, eval_samples, eval_rng));
    }
    result.curves.push_back(std::move(erm_curve));
    result.curves.push_back(std::move(bft_curve));
    result.seconds = watch.seconds();
    return result;
}

// ---------------------------------------------- fault-model zoo ----
// Variants of the paper's panels under the non-drift members of the
// FaultModel zoo (stuck-at, bit-flip, variation, quantization, composed
// deployment chains).  Family "faults"; documented in docs/fault-models.md
// and docs/experiments.md.

/// Builds one fault scenario at sweep level `level` (the meaning of the
/// level — fraction, flip probability, sigma, bits — is the factory's).
using FaultFactory =
    std::function<std::unique_ptr<fault::FaultModel>(double level)>;

/// fig2a-style protocol under an arbitrary fault family: train the
/// no-dropout and dropout MLP variants once on synthetic digits, then
/// sweep the fault level instead of the drift sigma.
RegistryResult run_fault_sweep(const std::string& name,
                               const std::string& x_label,
                               std::vector<double> levels,
                               const FaultFactory& make_fault,
                               const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    const data::TrainTestSplit parts = digits_split(1200, 151, options);

    const models::MlpOptions base = base_mlp_options();
    std::vector<Variant> variants;
    variants.push_back({"Original", [base](Rng& rng) {
                            models::MlpOptions o = base;
                            o.dropout = models::DropoutKind::kNone;
                            return models::make_mlp(o, rng);
                        }});
    variants.push_back({"DropOut", [base](Rng& rng) {
                            models::MlpOptions o = base;
                            o.dropout = models::DropoutKind::kStandard;
                            o.initial_dropout_rate = 0.3;
                            return models::make_mlp(o, rng);
                        }});

    RegistryResult result;
    result.experiment = name;
    result.x_label = x_label;
    result.xs = std::move(levels);
    const std::size_t mc_samples = options.quick ? 2 : 5;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        Rng rng(3000 + i + seed);
        models::ModelHandle model = variants[i].make(rng);
        nn::TrainConfig train_config;
        train_config.epochs = options.quick ? 3 : 10;
        nn::train_classifier(*model.net, parts.train.images,
                             parts.train.labels, train_config, rng);
        NamedCurve curve{variants[i].label, {}};
        Rng eval_rng(4000 + i + seed);
        for (double level : result.xs) {
            const std::unique_ptr<fault::FaultModel> fault =
                make_fault(level);
            curve.values.push_back(
                fault::evaluate_under_faults(*model.net, parts.test.images,
                                             parts.test.labels, *fault,
                                             mc_samples, eval_rng)
                    .mean_accuracy);
        }
        result.curves.push_back(std::move(curve));
    }
    result.seconds = watch.seconds();
    return result;
}

/// fig3a-style protocol under an arbitrary fault family: ERM vs BayesFT
/// where the search's utility marginalizes over `search_levels` of the
/// same family (ObjectiveConfig::faults), then both models sweep `levels`.
RegistryResult run_fault_search(const std::string& name,
                                const std::string& x_label,
                                std::vector<double> levels,
                                const std::vector<double>& search_levels,
                                const FaultFactory& make_fault,
                                const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    const data::TrainTestSplit parts = digits_split(800, 161, options);

    Rng erm_rng(163 + seed);
    models::ModelHandle erm = models::make_mlp(base_mlp_options(), erm_rng);
    nn::TrainConfig train_config;
    train_config.epochs = options.quick ? 3 : 8;
    nn::train_classifier(*erm.net, parts.train.images, parts.train.labels,
                         train_config, erm_rng);

    Rng bft_rng(164 + seed);
    models::ModelHandle bft = models::make_mlp(base_mlp_options(), bft_rng);
    BayesFTConfig config;
    config.iterations = options.quick ? 2 : 6;
    config.epochs_per_iteration = 1;
    config.objective.mc_samples = options.quick ? 1 : 2;
    for (double level : search_levels) {
        config.objective.faults.push_back(make_fault(level));
    }
    config.warmup_epochs = options.quick ? 1 : 2;
    config.final_epochs = options.quick ? 1 : 2;
    config.max_dropout_rate = 0.5;
    apply_search_options(config, options);
    const BayesFTResult search =
        bayesft_search(bft, parts.train, parts.test, config, bft_rng);

    RegistryResult result;
    result.experiment = name;
    result.x_label = x_label;
    result.trials = to_trial_records(search.trials, search.trial_points);
    result.resumed_trials = search.resumed_trials;
    result.search_completed = search.completed;
    if (!search.completed) {
        // Checkpointed out at stop_after: the trial log is the result.
        result.seconds = watch.seconds();
        return result;
    }
    result.xs = std::move(levels);
    result.bayesft_alpha = search.best_alpha;
    NamedCurve erm_curve{"ERM", {}};
    NamedCurve bft_curve{"BayesFT", {}};
    const std::size_t mc_samples = options.quick ? 2 : 4;
    Rng eval_rng(165 + seed);
    for (double level : result.xs) {
        const std::unique_ptr<fault::FaultModel> fault = make_fault(level);
        erm_curve.values.push_back(
            fault::evaluate_under_faults(*erm.net, parts.test.images,
                                         parts.test.labels, *fault,
                                         mc_samples, eval_rng)
                .mean_accuracy);
        bft_curve.values.push_back(
            fault::evaluate_under_faults(*bft.net, parts.test.images,
                                         parts.test.labels, *fault,
                                         mc_samples, eval_rng)
                .mean_accuracy);
    }
    result.curves.push_back(std::move(erm_curve));
    result.curves.push_back(std::move(bft_curve));
    result.seconds = watch.seconds();
    return result;
}

/// fig3j-style detection variant: grid-detector mAP vs device-variation
/// level, plain training vs a fixed-dropout detector (no search — the
/// panel's message is that the fault layer generalizes to detection).
RegistryResult run_fault_detection(const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    Rng rng(171 + seed);
    data::PedestrianConfig config;
    config.samples = options.quick ? 64 : 240;
    const data::DetectionDataset scenes =
        data::synthetic_pedestrians(config, rng);

    const std::size_t train_n = scenes.size() * 7 / 10;
    const data::DetectionDataset train = slice_scenes(scenes, 0, train_n);
    const data::DetectionDataset test =
        slice_scenes(scenes, train_n, scenes.size());

    detect::DetectorTrainConfig train_config;
    train_config.epochs = options.quick ? 10 : 40;

    Rng erm_rng(172 + seed);
    detect::GridDetectorConfig detector_config;
    detect::GridDetector erm(detector_config, erm_rng);
    erm.train(train.images, train.boxes, train_config, erm_rng);

    Rng drop_rng(173 + seed);
    detect::GridDetector dropped(detector_config, drop_rng);
    for (auto* site : dropped.dropout_sites()) site->set_rate(0.15);
    dropped.train(train.images, train.boxes, train_config, drop_rng);

    RegistryResult result;
    result.experiment = "faults_fig3j_variation";
    result.x_label = "sigma";
    result.xs = {0.0, 0.2, 0.4, 0.6};
    NamedCurve erm_curve{"ERM mAP", {}};
    NamedCurve drop_curve{"DropOut-0.15 mAP", {}};
    const std::size_t mc_samples = options.quick ? 2 : 4;
    Rng eval_rng(174 + seed);
    for (double sigma : result.xs) {
        const fault::GaussianVariationFault variation(sigma);
        erm_curve.values.push_back(map_under_fault(
            erm, erm.network(), test, variation, mc_samples, eval_rng));
        drop_curve.values.push_back(
            map_under_fault(dropped, dropped.network(), test, variation,
                            mc_samples, eval_rng));
    }
    result.curves.push_back(std::move(erm_curve));
    result.curves.push_back(std::move(drop_curve));
    result.seconds = watch.seconds();
    return result;
}

/// Composed deployment chain: quantize(8b) -> device variation -> drift,
/// matching a real memristor deployment, against drift alone on the same
/// trained dropout MLP.
RegistryResult run_composed_deploy(const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    const data::TrainTestSplit parts = digits_split(1000, 181, options);

    Rng rng(183 + seed);
    models::MlpOptions model_options = base_mlp_options();
    model_options.dropout = models::DropoutKind::kStandard;
    model_options.initial_dropout_rate = 0.3;
    models::ModelHandle model = models::make_mlp(model_options, rng);
    nn::TrainConfig train_config;
    train_config.epochs = options.quick ? 3 : 10;
    nn::train_classifier(*model.net, parts.train.images, parts.train.labels,
                         train_config, rng);

    RegistryResult result;
    result.experiment = "faults_composed_deploy";
    result.x_label = "sigma";
    result.xs = {0.0, 0.3, 0.6, 0.9};
    NamedCurve drift_curve{"Drift", {}};
    NamedCurve deploy_curve{"Quant8+Var+Drift", {}};
    const std::size_t mc_samples = options.quick ? 2 : 5;
    Rng eval_rng(184 + seed);
    for (double sigma : result.xs) {
        drift_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels,
                                         fault::LogNormalDrift(sigma),
                                         mc_samples, eval_rng)
                .mean_accuracy);
        std::vector<std::unique_ptr<fault::FaultModel>> stages;
        stages.push_back(std::make_unique<fault::QuantizationFault>(8));
        stages.push_back(
            std::make_unique<fault::GaussianVariationFault>(0.2));
        stages.push_back(std::make_unique<fault::LogNormalDrift>(sigma));
        const fault::ComposedFault deploy(std::move(stages));
        deploy_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels, deploy,
                                         mc_samples, eval_rng)
                .mean_accuracy);
    }
    result.curves.push_back(std::move(drift_curve));
    result.curves.push_back(std::move(deploy_curve));
    result.seconds = watch.seconds();
    return result;
}

/// Fixed-point inference mode (nn/quant.hpp): the same trained dropout MLP
/// swept across drift levels with the float32 forward and with the int8
/// (default; --inference int12 switches the width) integer forward.  The
/// gap between the curves is the cost of deploying the network through
/// b-bit DAC words on top of drift.
RegistryResult run_fixed_point_inference(const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    nn::InferenceMode mode = nn::parse_inference_mode(options.inference);
    if (mode == nn::InferenceMode::kFloat32) {
        mode = nn::InferenceMode::kInt8;  // the scenario's default width
    }

    const data::TrainTestSplit parts = digits_split(1000, 191, options);

    Rng rng(193 + seed);
    models::MlpOptions model_options = base_mlp_options();
    model_options.dropout = models::DropoutKind::kStandard;
    model_options.initial_dropout_rate = 0.3;
    models::ModelHandle model = models::make_mlp(model_options, rng);
    nn::TrainConfig train_config;
    train_config.epochs = options.quick ? 3 : 10;
    nn::train_classifier(*model.net, parts.train.images, parts.train.labels,
                         train_config, rng);

    RegistryResult result;
    result.experiment = "faults_int8_inference";
    result.x_label = "sigma";
    result.xs = {0.0, 0.3, 0.6, 0.9};
    result.annotation =
        std::string("fixed-point mode: ") + nn::inference_mode_name(mode);
    NamedCurve float_curve{"Float32 fwd", {}};
    NamedCurve fixed_curve{
        std::string(nn::inference_mode_name(mode)) + " fwd", {}};
    const std::size_t mc_samples = options.quick ? 2 : 5;
    Rng eval_rng(194 + seed);
    for (double sigma : result.xs) {
        const fault::LogNormalDrift drift(sigma);
        float_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels, drift,
                                         mc_samples, eval_rng)
                .mean_accuracy);
        const nn::ScopedInferenceMode scoped(*model.net, mode);
        fixed_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels, drift,
                                         mc_samples, eval_rng)
                .mean_accuracy);
    }
    result.curves.push_back(std::move(float_curve));
    result.curves.push_back(std::move(fixed_curve));
    result.seconds = watch.seconds();
    return result;
}

/// DAC'12-profile deployment: the fault::dac12_deploy chain (12-bit
/// quantization -> variation -> drift) swept over drift, scored once with
/// the float32 forward and once with the matching int12 fixed-point
/// forward — the self-consistent "weights and arithmetic share the 12-bit
/// grid" deployment view.
RegistryResult run_dac12_deploy(const RunOptions& options) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    const data::TrainTestSplit parts = digits_split(1000, 201, options);

    Rng rng(203 + seed);
    models::MlpOptions model_options = base_mlp_options();
    model_options.dropout = models::DropoutKind::kStandard;
    model_options.initial_dropout_rate = 0.3;
    models::ModelHandle model = models::make_mlp(model_options, rng);
    nn::TrainConfig train_config;
    train_config.epochs = options.quick ? 3 : 10;
    nn::train_classifier(*model.net, parts.train.images, parts.train.labels,
                         train_config, rng);

    RegistryResult result;
    result.experiment = "faults_dac12_deploy";
    result.x_label = "sigma";
    result.xs = {0.0, 0.3, 0.6, 0.9};
    NamedCurve float_curve{"DAC12 chain, float32 fwd", {}};
    NamedCurve fixed_curve{"DAC12 chain, int12 fwd", {}};
    const std::size_t mc_samples = options.quick ? 2 : 5;
    Rng eval_rng(204 + seed);
    for (double sigma : result.xs) {
        const std::unique_ptr<fault::FaultModel> deploy =
            fault::dac12_deploy(sigma);
        float_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels, *deploy,
                                         mc_samples, eval_rng)
                .mean_accuracy);
        const nn::ScopedInferenceMode scoped(*model.net,
                                             nn::InferenceMode::kInt12);
        fixed_curve.values.push_back(
            fault::evaluate_under_faults(*model.net, parts.test.images,
                                         parts.test.labels, *deploy,
                                         mc_samples, eval_rng)
                .mean_accuracy);
    }
    result.curves.push_back(std::move(float_curve));
    result.curves.push_back(std::move(fixed_curve));
    result.seconds = watch.seconds();
    return result;
}

// ------------------------------------------- archsearch scenarios ----
// Typed mixed-space architecture search (core::arch_search): the axes
// Fig. 2 enumerates by hand — normalization, depth, activation — plus
// widths and pooling become searchable dimensions next to the dropout
// rates, under drift or any fault-zoo configuration.  Each scenario
// compares the searched architecture against the family's fixed default
// trained with the same ERM budget.

/// Shared sweep: evaluate `net` across fault levels built by `make_fault`.
std::vector<double> fault_level_sweep(nn::Module& net,
                                      const data::Dataset& test,
                                      const std::vector<double>& levels,
                                      const FaultFactory& make_fault,
                                      std::size_t mc_samples, Rng& rng) {
    std::vector<double> values;
    values.reserve(levels.size());
    for (double level : levels) {
        const std::unique_ptr<fault::FaultModel> fault = make_fault(level);
        values.push_back(fault::evaluate_under_faults(net, test.images,
                                                      test.labels, *fault,
                                                      mc_samples, rng)
                             .mean_accuracy);
    }
    return values;
}

/// Shared body of the archsearch scenarios: search `family` on a dataset,
/// train the fixed `baseline` with a comparable ERM budget, and sweep both
/// final models across `levels` of the `make_fault` family.
RegistryResult run_archsearch(
    const std::string& name, const data::Dataset& full,
    const models::ArchFamily& family,
    const std::function<models::ModelHandle(Rng&)>& baseline,
    const std::string& x_label, std::vector<double> levels,
    const FaultFactory& make_fault, ArchSearchConfig search_config,
    const RunOptions& options, std::uint64_t seed_base) {
    Stopwatch watch;
    const std::uint64_t seed = options.seed;
    Rng split_rng(seed_base + seed);
    const data::TrainTestSplit parts = data::split(full, 0.25, split_rng);

    apply_search_options(search_config, options);
    search_config.workers = options.workers;
    Rng search_rng(seed_base + 1 + seed);
    const ArchSearchResult search = arch_search(
        family, parts.train, parts.test, search_config, search_rng);

    RegistryResult result;
    result.experiment = name;
    result.x_label = x_label;
    result.trials = arch_trial_records(family, search);
    result.resumed_trials = search.resumed_trials;
    result.search_completed = search.completed;
    if (!search.completed) {
        // Checkpointed out at stop_after: the trial log is the result.
        result.seconds = watch.seconds();
        return result;
    }

    Rng baseline_rng(seed_base + 2 + seed);
    models::ModelHandle erm = baseline(baseline_rng);
    nn::TrainConfig erm_train = search_config.train;
    // Same total budget as one candidate plus the winner's fine-tuning.
    erm_train.epochs =
        search_config.train.epochs + search_config.final_epochs;
    nn::train_classifier(*erm.net, parts.train.images, parts.train.labels,
                         erm_train, baseline_rng);

    result.xs = std::move(levels);
    // The decoded point is the result of record; bayesft_alpha stays empty
    // (it means per-site dropout rates, not encoded mixed coordinates).
    result.annotation = family.space.describe(search.best_point);
    const std::size_t mc_samples = options.quick ? 2 : 4;
    Rng eval_rng(seed_base + 3 + seed);
    result.curves.push_back(
        {"ERM-default",
         fault_level_sweep(*erm.net, parts.test, result.xs, make_fault,
                           mc_samples, eval_rng)});
    result.curves.push_back(
        {"ArchSearch",
         fault_level_sweep(*search.best_model.net, parts.test, result.xs,
                           make_fault, mc_samples, eval_rng)});
    result.seconds = watch.seconds();
    return result;
}

ArchSearchConfig default_archsearch_config(const RunOptions& options) {
    ArchSearchConfig config;
    config.iterations = options.quick ? 4 : 12;
    config.train.epochs = options.quick ? 2 : 5;
    config.train.batch_size = 32;
    config.train.learning_rate = 0.05;
    config.objective.sigmas = {0.3, 0.6, 0.9};
    config.objective.mc_samples = options.quick ? 1 : 2;
    config.bo.initial_random_trials = options.quick ? 2 : 5;
    config.final_epochs = options.quick ? 1 : 3;
    return config;
}

/// fig2b/c/d axes searched jointly: MLP norm x activation x depth x
/// per-layer dropout under drift, on synthetic digits.
RegistryResult run_archsearch_mlp(const RunOptions& options) {
    const data::Dataset full = digits_task(1000, 191, options);

    const models::ArchFamily family =
        models::mlp_arch_family(base_mlp_options(), /*max_hidden_layers=*/4,
                                /*max_dropout_rate=*/0.5);
    const auto baseline = [](Rng& rng) {
        models::MlpOptions o = base_mlp_options();
        o.dropout = models::DropoutKind::kNone;
        return models::make_mlp(o, rng);
    };
    return run_archsearch(
        "archsearch_fig2_mlp", full, family, baseline, "sigma",
        {0.0, 0.3, 0.6, 0.9, 1.2, 1.5},
        [](double level) {
            return std::make_unique<fault::LogNormalDrift>(level);
        },
        default_archsearch_config(options), options, 192);
}

/// Residual family under the stuck-at zoo: depth x norm x dropout searched
/// with ObjectiveConfig::faults, swept over the stuck fraction.
RegistryResult run_archsearch_preact(const RunOptions& options) {
    Rng data_rng(201 + options.seed);
    data::ObjectConfig object_config;
    object_config.samples = scaled(600, options.quick);
    const data::Dataset full =
        data::synthetic_objects(object_config, data_rng);

    const models::ArchFamily family =
        models::preact_arch_family(10, /*max_dropout_rate=*/0.5);
    const auto baseline = [](Rng& rng) {
        return models::make_preact_resnet_s(1, 10, rng);
    };
    ArchSearchConfig config = default_archsearch_config(options);
    config.iterations = options.quick ? 3 : 10;
    config.train.epochs = options.quick ? 1 : 3;
    config.train.learning_rate = 0.02;
    for (double level : {0.05, 0.1}) {
        config.objective.faults.push_back(
            std::make_shared<fault::StuckAtFault>(level, 0.25));
    }
    return run_archsearch(
        "archsearch_preact_stuckat", full, family, baseline,
        "stuck_fraction", {0.0, 0.02, 0.05, 0.1, 0.2},
        [](double level) {
            return std::make_unique<fault::StuckAtFault>(level, 0.25);
        },
        config, options, 202);
}

/// STN family under drift: head width x pooling x per-site dropout on
/// synthetic traffic signs.
RegistryResult run_archsearch_stn(const RunOptions& options) {
    Rng data_rng(211 + options.seed);
    data::TrafficSignConfig sign_config;
    sign_config.samples = scaled(860, options.quick);
    const data::Dataset full =
        data::synthetic_traffic_signs(sign_config, data_rng);

    const models::ArchFamily family =
        models::stn_arch_family(43, /*max_dropout_rate=*/0.5);
    const auto baseline = [](Rng& rng) {
        return models::make_stn_classifier(43, rng);
    };
    ArchSearchConfig config = default_archsearch_config(options);
    config.iterations = options.quick ? 3 : 8;
    config.train.epochs = options.quick ? 1 : 3;
    config.train.learning_rate = 0.02;
    return run_archsearch(
        "archsearch_stn_drift", full, family, baseline, "sigma",
        {0.0, 0.3, 0.6, 0.9},
        [](double level) {
            return std::make_unique<fault::LogNormalDrift>(level);
        },
        config, options, 212);
}

/// CI-sized self-contained search: a tiny MLP family on synthetic blobs,
/// swept over drift.  Seconds-fast even unquick, so the worker-matrix and
/// chaos smokes (docs/distributed.md) can afford byte-diffing full runs
/// at several worker counts.
RegistryResult run_toy_arch(const RunOptions& options) {
    Rng data_rng(221 + options.seed);
    const data::Dataset full = data::make_blobs(
        options.quick ? 180 : 300, 3, 4.0, 0.6, data_rng);

    models::MlpOptions base;
    base.input_features = 2;
    base.hidden = 12;
    base.classes = 3;
    const models::ArchFamily family =
        models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                /*max_dropout_rate=*/0.5);
    const auto baseline = [base](Rng& rng) {
        return models::make_mlp(base, rng);
    };
    ArchSearchConfig config;
    config.iterations = options.quick ? 3 : 6;
    config.train.epochs = 1;
    config.train.batch_size = 32;
    config.train.learning_rate = 0.05;
    config.objective.sigmas = {0.5};
    config.objective.mc_samples = 1;
    config.bo.initial_random_trials = 2;
    config.final_epochs = 1;
    return run_archsearch(
        "toy_arch_blobs", full, family, baseline, "sigma", {0.0, 0.4, 0.8},
        [](double level) {
            return std::make_unique<fault::LogNormalDrift>(level);
        },
        config, options, 222);
}

// ------------------------------------------------------ Ablations ----

/// GP-guided vs random search under the same trial budget, plus EI/UCB.
RegistryResult run_bo_vs_random(const RunOptions& options) {
    Stopwatch watch;
    const data::TrainTestSplit parts = digits_split(1000, 131, options);

    BayesFTConfig config;
    config.iterations = options.quick ? 3 : 10;
    config.epochs_per_iteration = 1;
    config.objective.sigmas = {0.3, 0.6, 0.9};
    config.objective.mc_samples = options.quick ? 1 : 3;
    config.final_epochs = 2;
    config.batch = std::max<std::size_t>(1, options.batch);
    config.eval_threads = options.threads;

    const struct {
        const char* label;
        const char* acquisition;  // nullptr = random search
    } strategies[] = {
        {"BO-PosteriorMean", "posterior_mean"},
        {"BO-EI", "ei"},
        {"BO-UCB", "ucb"},
        {"RandomSearch", nullptr},
    };

    RegistryResult result;
    result.experiment = "ablation_bo_vs_random";
    result.x_label = "trial_budget";
    result.xs = {static_cast<double>(config.iterations)};
    for (const auto& strategy : strategies) {
        Rng rng(777 + options.seed);  // identical stream per strategy
        models::MlpOptions model_options = base_mlp_options();
        model_options.hidden_layers = 3;  // 3 searchable dropout sites
        models::ModelHandle model = models::make_mlp(model_options, rng);
        BayesFTConfig run_config = config;
        BayesFTResult search;
        if (strategy.acquisition != nullptr) {
            run_config.acquisition = strategy.acquisition;
            search = bayesft_search(model, parts.train, parts.test,
                                    run_config, rng);
        } else {
            search = random_search(model, parts.train, parts.test,
                                   run_config, rng);
        }
        result.curves.push_back({strategy.label, {search.best_utility}});
    }
    result.seconds = watch.seconds();
    return result;
}

/// Noise of the Monte-Carlo utility estimate (Eq. 4) vs sample count T.
RegistryResult run_mc_samples(const RunOptions& options) {
    Stopwatch watch;
    const data::TrainTestSplit parts = digits_split(800, 141, options);

    Rng rng(143 + options.seed);
    models::ModelHandle model = models::make_mlp(base_mlp_options(), rng);
    nn::TrainConfig train_config;
    train_config.epochs = options.quick ? 3 : 8;
    train_erm(model, parts.train, train_config, rng);

    RegistryResult result;
    result.experiment = "ablation_mc_samples";
    result.x_label = "mc_samples";
    NamedCurve mean_curve{"mean_utility", {}};
    NamedCurve std_curve{"utility_std", {}};
    NamedCurve cost_curve{"seconds_per_estimate", {}};
    const std::size_t repeats = options.quick ? 4 : 10;
    for (std::size_t t : {1, 2, 4, 8, 16}) {
        result.xs.push_back(static_cast<double>(t));
        ObjectiveConfig objective;
        objective.sigmas = {0.6};
        objective.mc_samples = t;
        std::vector<double> estimates;
        Stopwatch estimate_watch;
        for (std::size_t r = 0; r < repeats; ++r) {
            Rng eval_rng(1000 + r + options.seed);
            estimates.push_back(drift_utility(*model.net, parts.test.images,
                                              parts.test.labels, objective,
                                              eval_rng));
        }
        const double elapsed =
            estimate_watch.seconds() / static_cast<double>(repeats);
        double mean = 0.0;
        for (double e : estimates) mean += e;
        mean /= static_cast<double>(estimates.size());
        double var = 0.0;
        for (double e : estimates) var += (e - mean) * (e - mean);
        var /= static_cast<double>(estimates.size());
        mean_curve.values.push_back(mean);
        std_curve.values.push_back(std::sqrt(var));
        cost_curve.values.push_back(elapsed);
    }
    result.curves.push_back(std::move(mean_curve));
    result.curves.push_back(std::move(std_curve));
    result.curves.push_back(std::move(cost_curve));
    result.seconds = watch.seconds();
    return result;
}

// ---------------------------------------------------- registration ----

ExperimentRegistry make_builtin_registry() {
    ExperimentRegistry registry;
    registry.add({"fig2a_dropout", "fig2",
                  "dropout ablation (MLP, synthetic digits)", run_fig2a});
    registry.add({"fig2b_normalization", "fig2",
                  "normalization ablation (MLP, synthetic digits)",
                  run_fig2b});
    registry.add({"fig2c_depth", "fig2",
                  "model-complexity ablation (MLP depth sweep)", run_fig2c});
    registry.add({"fig2d_activation", "fig2",
                  "activation-function ablation (MLP)", run_fig2d});
    registry.add({"fig3a_mlp_mnist", "fig3",
                  "MLP on synthetic digits, all methods", run_fig3a,
                  /*checkpointable=*/true});
    registry.add({"fig3b_lenet_mnist", "fig3",
                  "LeNet on synthetic digits, all methods", run_fig3b,
                  /*checkpointable=*/true});
    registry.add({"fig3c_alexnet_cifar", "fig3",
                  "AlexNet-S on synthetic objects, all methods", run_fig3c,
                  /*checkpointable=*/true});
    registry.add({"fig3d_resnet_cifar", "fig3",
                  "ResNet18-S on synthetic objects, all methods", run_fig3d,
                  /*checkpointable=*/true});
    registry.add({"fig3e_vgg_cifar", "fig3",
                  "VGG11-S on synthetic objects, all methods", run_fig3e,
                  /*checkpointable=*/true});
    registry.add({"fig3f_preact18", "fig3",
                  "PreAct-S depth 1 block/stage, ERM vs BayesFT",
                  [](const RunOptions& options) {
                      return run_preact_depth("fig3f_preact18", 1, options);
                  },
                  /*checkpointable=*/true});
    registry.add({"fig3g_preact50", "fig3",
                  "PreAct-S depth 2 blocks/stage, ERM vs BayesFT",
                  [](const RunOptions& options) {
                      return run_preact_depth("fig3g_preact50", 2, options);
                  },
                  /*checkpointable=*/true});
    registry.add({"fig3h_preact152", "fig3",
                  "PreAct-S depth 4 blocks/stage, ERM vs BayesFT",
                  [](const RunOptions& options) {
                      return run_preact_depth("fig3h_preact152", 4, options);
                  },
                  /*checkpointable=*/true});
    registry.add({"fig3i_gtsrb", "fig3",
                  "STN-lite on synthetic traffic signs (43 classes)",
                  run_fig3i, /*checkpointable=*/true});
    registry.add({"fig3j_detection", "fig3",
                  "grid detector mAP vs drift (synthetic pedestrians)",
                  run_fig3j, /*checkpointable=*/true});
    registry.add({"faults_fig2a_stuckat", "faults",
                  "dropout ablation under SA0/SA1 stuck-at faults",
                  [](const RunOptions& options) {
                      return run_fault_sweep(
                          "faults_fig2a_stuckat", "stuck_fraction",
                          {0.0, 0.02, 0.05, 0.1, 0.2},
                          [](double level) {
                              return std::make_unique<fault::StuckAtFault>(
                                  level, 0.25);
                          },
                          options);
                  }});
    registry.add({"faults_fig2a_bitflip", "faults",
                  "dropout ablation under 8-bit SEU bit flips",
                  [](const RunOptions& options) {
                      return run_fault_sweep(
                          "faults_fig2a_bitflip", "flip_probability",
                          {0.0, 1e-4, 5e-4, 2e-3, 1e-2},
                          [](double level) {
                              return std::make_unique<fault::BitFlipFault>(
                                  level, 8);
                          },
                          options);
                  }});
    registry.add({"faults_fig2a_variation", "faults",
                  "dropout ablation under lognormal device variation",
                  [](const RunOptions& options) {
                      return run_fault_sweep(
                          "faults_fig2a_variation", "sigma",
                          {0.0, 0.2, 0.4, 0.6, 0.8},
                          [](double level) {
                              return std::make_unique<
                                  fault::GaussianVariationFault>(level);
                          },
                          options);
                  }});
    registry.add({"faults_fig2a_quant", "faults",
                  "dropout ablation vs quantization word width",
                  [](const RunOptions& options) {
                      return run_fault_sweep(
                          "faults_fig2a_quant", "bits",
                          {8.0, 6.0, 5.0, 4.0, 3.0, 2.0},
                          [](double level) {
                              return std::make_unique<
                                  fault::QuantizationFault>(
                                  static_cast<int>(level));
                          },
                          options);
                  }});
    registry.add({"faults_fig3a_stuckat", "faults",
                  "ERM vs BayesFT searched under stuck-at faults",
                  [](const RunOptions& options) {
                      return run_fault_search(
                          "faults_fig3a_stuckat", "stuck_fraction",
                          {0.0, 0.02, 0.05, 0.1, 0.2}, {0.05, 0.1},
                          [](double level) {
                              return std::make_unique<fault::StuckAtFault>(
                                  level, 0.25);
                          },
                          options);
                  },
                  /*checkpointable=*/true});
    registry.add({"faults_fig3a_bitflip", "faults",
                  "ERM vs BayesFT searched under SEU bit flips",
                  [](const RunOptions& options) {
                      return run_fault_search(
                          "faults_fig3a_bitflip", "flip_probability",
                          {0.0, 1e-4, 5e-4, 2e-3, 1e-2}, {5e-4, 2e-3},
                          [](double level) {
                              return std::make_unique<fault::BitFlipFault>(
                                  level, 8);
                          },
                          options);
                  },
                  /*checkpointable=*/true});
    registry.add({"faults_fig3j_variation", "faults",
                  "grid detector mAP vs device variation",
                  run_fault_detection});
    registry.add({"faults_composed_deploy", "faults",
                  "quantize->variation->drift deployment chain vs drift",
                  run_composed_deploy});
    registry.add({"faults_int8_inference", "faults",
                  "float32 vs int8/int12 fixed-point forward under drift",
                  run_fixed_point_inference});
    registry.add({"faults_dac12_deploy", "faults",
                  "DAC12 12-bit deployment chain, float32 vs int12 forward",
                  run_dac12_deploy});
    registry.add({"archsearch_fig2_mlp", "archsearch",
                  "joint norm/activation/depth/dropout MLP search vs drift",
                  run_archsearch_mlp, /*checkpointable=*/true,
                  /*distributable=*/true});
    registry.add({"archsearch_preact_stuckat", "archsearch",
                  "PreAct depth/norm/dropout search under stuck-at faults",
                  run_archsearch_preact, /*checkpointable=*/true,
                  /*distributable=*/true});
    registry.add({"archsearch_stn_drift", "archsearch",
                  "STN head-width/pool/dropout search under drift",
                  run_archsearch_stn, /*checkpointable=*/true,
                  /*distributable=*/true});
    registry.add({"ablation_bo_vs_random", "ablation",
                  "GP-guided vs random alpha search, same budget",
                  run_bo_vs_random});
    registry.add({"ablation_mc_samples", "ablation",
                  "MC utility-estimate noise vs sample count T",
                  run_mc_samples});
    registry.add({"toy_mlp_blobs", "toy",
                  "CI-sized blobs task, ERM vs BayesFT", run_toy,
                  /*checkpointable=*/true});
    registry.add({"toy_arch_blobs", "toy",
                  "CI-sized self-contained arch search on blobs vs drift",
                  run_toy_arch, /*checkpointable=*/true,
                  /*distributable=*/true});
    return registry;
}

}  // namespace

const ExperimentRegistry& ExperimentRegistry::instance() {
    static const ExperimentRegistry registry = make_builtin_registry();
    return registry;
}

void ExperimentRegistry::add(ExperimentSpec spec) {
    if (spec.name.empty() || !spec.run) {
        throw std::invalid_argument(
            "ExperimentRegistry::add: spec needs a name and a runner");
    }
    if (find(spec.name) != nullptr) {
        throw std::invalid_argument("ExperimentRegistry::add: duplicate '" +
                                    spec.name + "'");
    }
    specs_.push_back(std::move(spec));
}

std::vector<std::string> ExperimentRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const ExperimentSpec& spec : specs_) out.push_back(spec.name);
    return out;
}

const ExperimentSpec* ExperimentRegistry::find(
    const std::string& name) const {
    for (const ExperimentSpec& spec : specs_) {
        if (spec.name == name) return &spec;
    }
    return nullptr;
}

RegistryResult ExperimentRegistry::run(const std::string& name,
                                       const RunOptions& options) const {
    const ExperimentSpec* spec = find(name);
    if (spec == nullptr) {
        throw std::invalid_argument(
            "ExperimentRegistry::run: unknown experiment '" + name +
            "' (use --list)");
    }
    return spec->run(options);
}

}  // namespace bayesft::core
