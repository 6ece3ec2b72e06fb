#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/archsearch.hpp"
#include "core/bayesft.hpp"
#include "core/experiment.hpp"
#include "core/objective.hpp"
#include "data/digits.hpp"
#include "data/objects.hpp"
#include "data/pedestrians.hpp"
#include "data/toy.hpp"
#include "data/traffic_signs.hpp"
#include "detect/detector.hpp"
#include "fault/zoo.hpp"
#include "models/zoo.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"
#include "utils/stopwatch.hpp"

namespace bayesft::core {

namespace {

/// A count that shrinks under --quick.
struct Scaled {
    std::size_t full = 0, quick = 0;
    std::size_t at(const RunOptions& o) const { return o.quick ? quick : full; }
};

enum class Data { kDigits, kObjects, kSigns, kBlobs, kPedestrians };

/// `samples` of `data` drawn from stream `seed` (plus the run's seed;
/// labeled data splits 75/25 on `seed + 1`); `streams` seeds the models.
struct Task {
    Data data = Data::kDigits;
    Scaled samples{};
    std::uint64_t seed = 0, streams = 0;
};

/// One separately trained MLP of a variant sweep.
struct Variant {
    std::string label;
    models::MlpOptions mlp;
};

/// One deployment of a model: `fault` scored with the `mode` forward.  No
/// `mode` means the run's --inference (int8 for float32), named in `label`.
struct DeployCurve {
    std::string label;
    FaultFamily fault = lognormal_drift;
    std::optional<nn::InferenceMode> mode = nn::InferenceMode::kFloat32;
};

struct Scenario;

/// The function that runs a row, and which CLI search flags it honours.
struct Protocol {
    RegistryResult (*run)(const Scenario&, const RunOptions&) = nullptr;
    bool checkpointable = false;
    bool distributable = false;
};

/// One registered scenario.  Its protocol reads the fields it needs; the
/// rest keep their defaults, the paper's Fig. 3 settings.
struct Scenario {
    const char* name = "";
    const char* family = "";
    const char* description = "";
    Protocol protocol{};
    Task task{};
    // Models: a Fig. 3 panel's factory and methods, the variant sweep's
    // MLPs, an arch search's family and fixed baseline, the deployments of
    // one model, and the MLP of the other digits protocols.
    models::ModelHandle (*factory)(std::size_t outputs, Rng& rng) = nullptr;
    MethodSet methods{};
    std::vector<Variant> variants{};
    models::ArchFamily arch{};
    std::function<models::ModelHandle(Rng& rng)> baseline{};
    std::vector<DeployCurve> deploy{};
    models::MlpOptions mlp{};
    // The swept fault axis, and the search utility: drift at
    // `search_sigmas`, or `fault` at `search_faults` when that is set.
    FaultFamily fault = lognormal_drift;
    const char* x_label = "sigma";
    std::vector<double> levels{0.0, 0.3, 0.6, 0.9, 1.2, 1.5};
    std::vector<double> search_sigmas{0.3, 0.6, 0.9};
    std::vector<double> search_faults{};
    // Budgets of the panel and arch protocols (the others have one each).
    Scaled epochs{8, 2};
    Scaled iterations{8, 2};
    double learning_rate = 0.05;
    Scaled search_mc{2, 1};
    Scaled initial_trials{5, 2};
    Scaled final_epochs{3, 1};
};

std::unique_ptr<fault::FaultModel> stuck_at(double fraction) {
    return std::make_unique<fault::StuckAtFault>(fraction, 0.25);
}
std::unique_ptr<fault::FaultModel> bit_flip(double probability) {
    return std::make_unique<fault::BitFlipFault>(probability, 8);
}
std::unique_ptr<fault::FaultModel> variation(double sigma) {
    return std::make_unique<fault::GaussianVariationFault>(sigma);
}
std::unique_ptr<fault::FaultModel> quantization(double bits) {
    return std::make_unique<fault::QuantizationFault>(static_cast<int>(bits));
}
std::unique_ptr<fault::FaultModel> dac12(double sigma) {
    return fault::dac12_deploy(sigma);
}
/// quantize(8b) -> device variation -> drift, a real memristor deployment.
std::unique_ptr<fault::FaultModel> quant8_variation_drift(double sigma) {
    std::vector<std::unique_ptr<fault::FaultModel>> stages;
    stages.push_back(std::make_unique<fault::QuantizationFault>(8));
    stages.push_back(std::make_unique<fault::GaussianVariationFault>(0.2));
    stages.push_back(std::make_unique<fault::LogNormalDrift>(sigma));
    return std::make_unique<fault::ComposedFault>(std::move(stages));
}

data::TrainTestSplit split_task(const Task& task, const RunOptions& options) {
    Rng rng(task.seed + options.seed);
    const std::size_t n = task.samples.at(options);
    const data::Dataset full =
        task.data == Data::kDigits ? data::synthetic_digits({.samples = n}, rng)
        : task.data == Data::kObjects
            ? data::synthetic_objects({.samples = n}, rng)
        : task.data == Data::kSigns
            ? data::synthetic_traffic_signs({.samples = n}, rng)
        : task.data == Data::kBlobs
            ? data::make_blobs(n, 3, 4.0, 0.6, rng)
            : throw std::logic_error("split_task: scenes carry no labels");
    Rng split_rng(task.seed + 1 + options.seed);
    return data::split(full, 0.25, split_rng);
}

/// The task's pedestrian scenes cut into consecutive parts, each but the
/// last `tenths[i]` tenths of them.
std::vector<data::DetectionDataset> scene_parts(
    const Task& task, const RunOptions& options,
    const std::vector<std::size_t>& tenths) {
    Rng rng(task.seed + options.seed);
    const data::DetectionDataset scenes = data::synthetic_pedestrians(
        {.samples = task.samples.at(options)}, rng);
    const std::size_t n = scenes.size();
    const std::size_t row = scenes.images.size() / n;
    std::vector<data::DetectionDataset> parts(tenths.size() + 1);
    std::size_t lo = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        const std::size_t hi = i < tenths.size() ? lo + n * tenths[i] / 10 : n;
        std::vector<std::size_t> shape = scenes.images.shape();
        shape[0] = hi - lo;
        parts[i].images = Tensor(shape);
        std::copy_n(scenes.images.data() + lo * row, (hi - lo) * row,
                    parts[i].images.data());
        parts[i].boxes.assign(
            scenes.boxes.begin() + static_cast<std::ptrdiff_t>(lo),
            scenes.boxes.begin() + static_cast<std::ptrdiff_t>(hi));
        lo = hi;
    }
    return parts;
}

/// A fresh grid detector from `rng`, trained on `scenes` for `epochs`
/// with every dropout site at `rate`.
std::unique_ptr<detect::GridDetector> trained_detector(
    const data::DetectionDataset& scenes, std::size_t epochs, double rate,
    Rng& rng) {
    auto detector = std::make_unique<detect::GridDetector>(
        detect::GridDetectorConfig{}, rng);
    for (auto* site : detector->dropout_sites()) site->set_rate(rate);
    detector->train(scenes.images, scenes.boxes, {.epochs = epochs}, rng);
    return detector;
}

/// mAP of the module it is handed, decoded by `detector`.
std::function<double(nn::Module&)> map_on(const detect::GridDetector& detector,
                                          const data::DetectionDataset& set) {
    return [&detector, &set](nn::Module& m) {
        return detector.evaluate_map_with(m, set.images, set.boxes);
    };
}

/// A fresh MLP from `rng`, trained (ERM, default SGD) for `epochs`.
models::ModelHandle trained_mlp(const models::MlpOptions& mlp,
                                const data::Dataset& set, std::size_t epochs,
                                Rng& rng) {
    models::ModelHandle model = models::make_mlp(mlp, rng);
    nn::train_classifier(*model.net, set.images, set.labels,
                         {.epochs = epochs}, rng);
    return model;
}

/// RunOptions -> a search config's engine, checkpoint and proposal knobs:
/// the one place the CLI's search settings reach BayesFTConfig and
/// ArchSearchConfig (the arch search adds `workers`).  The CLI validates
/// --fail-policy; anything unrecognized here means "penalize".
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

/// The row's search utility, `mc_samples` draws per fault scenario.
ObjectiveConfig search_objective(const Scenario& row, std::size_t mc_samples) {
    ObjectiveConfig objective;
    objective.sigmas = row.search_sigmas;
    objective.mc_samples = mc_samples;
    for (double level : row.search_faults) {
        objective.faults.push_back(row.fault(level));
    }
    return objective;
}

/// The result of a searching row: its trial log, and the sweep axis only
/// once the search completed (a stopped run's result is its trial log).
template <typename SearchResult>
RegistryResult searched(const Scenario& row, const SearchResult& search,
                        const std::vector<std::string>& points) {
    return {.xs = search.completed ? row.levels : std::vector<double>{},
            .trials = to_trial_records(search.trials, points),
            .resumed_trials = search.resumed_trials,
            .search_completed = search.completed};
}

// ------------------------------------------------------- protocols ----

/// Fig. 3 panel: every enabled method trained on the task and swept over
/// drift by run_classification_experiment.
RegistryResult run_panel(const Scenario& row, const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    ExperimentConfig config;
    config.sigmas = row.levels;
    config.eval_samples = options.quick ? 2 : 4;
    config.train = {.epochs = row.epochs.at(options),
                    .learning_rate = row.learning_rate};
    BayesFTConfig& search = config.bayesft;
    search.iterations = row.iterations.at(options);
    search.epochs_per_iteration = options.quick ? 1 : 2;
    search.train = config.train;
    search.objective = search_objective(row, options.quick ? 1 : 3);
    search.warmup_epochs = options.quick ? 1 : 3;
    search.final_epochs = options.quick ? 1 : 4;
    search.max_dropout_rate = 0.5;
    apply_search_options(search, options);
    config.methods = row.methods;
    if (options.seed != 0) config.seed = options.seed;
    return run_classification_experiment(row.factory, parts.train, parts.test,
                                         parts.train.num_classes, config);
}

/// Fig. 2 protocol: each MLP variant trained alike (ERM, 10 epochs) on
/// stream `streams + i`, then swept on its own stream `streams + 1000 + i`.
RegistryResult run_variants(const Scenario& row, const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    RegistryResult result{.xs = row.levels};
    for (std::size_t i = 0; i < row.variants.size(); ++i) {
        Rng rng(row.task.streams + i + options.seed);
        const models::ModelHandle model = trained_mlp(
            row.variants[i].mlp, parts.train, options.quick ? 3 : 10, rng);
        Rng eval_rng(row.task.streams + 1000 + i + options.seed);
        result.curves.push_back(
            sweep_levels({{row.variants[i].label, model.net.get(),
                           accuracy_on(parts.test), row.fault}},
                         row.levels, options.quick ? 2 : 5, eval_rng)
                .front());
    }
    return result;
}

/// One trained MLP, several deployments: every deploy curve scored level
/// by level on one stream.
RegistryResult run_deploy(const Scenario& row, const RunOptions& options) {
    nn::InferenceMode run_mode = nn::parse_inference_mode(options.inference);
    if (run_mode == nn::InferenceMode::kFloat32) {
        run_mode = nn::InferenceMode::kInt8;  // the fixed-point default
    }
    const std::string mode_name = nn::inference_mode_name(run_mode);
    const data::TrainTestSplit parts = split_task(row.task, options);
    Rng rng(row.task.streams + options.seed);
    const models::ModelHandle model =
        trained_mlp(row.mlp, parts.train, options.quick ? 3 : 10, rng);
    RegistryResult result{.xs = row.levels};
    std::vector<SweepCurve> curves;
    for (const DeployCurve& curve : row.deploy) {
        if (!curve.mode) result.annotation = "fixed-point mode: " + mode_name;
        curves.push_back({curve.mode ? curve.label : mode_name + curve.label,
                          model.net.get(), accuracy_on(parts.test),
                          curve.fault, curve.mode.value_or(run_mode)});
    }
    Rng eval_rng(row.task.streams + 1 + options.seed);
    result.curves = sweep_levels(curves, row.levels, options.quick ? 2 : 5,
                                 eval_rng);
    return result;
}

/// Fig. 3(a) under another fault family: ERM against a BayesFT search
/// whose utility marginalizes over the row's `search_faults`, both swept
/// level by level on one stream.
RegistryResult run_fault_search(const Scenario& row,
                                const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    Rng erm_rng(row.task.streams + options.seed);
    const models::ModelHandle erm =
        trained_mlp(row.mlp, parts.train, options.quick ? 3 : 8, erm_rng);
    Rng bft_rng(row.task.streams + 1 + options.seed);
    models::ModelHandle bft = models::make_mlp(row.mlp, bft_rng);
    BayesFTConfig config;
    config.iterations = options.quick ? 2 : 6;
    config.epochs_per_iteration = 1;
    config.objective = search_objective(row, options.quick ? 1 : 2);
    config.warmup_epochs = options.quick ? 1 : 2;
    config.final_epochs = options.quick ? 1 : 2;
    config.max_dropout_rate = 0.5;
    apply_search_options(config, options);
    const BayesFTResult search =
        bayesft_search(bft, parts.train, parts.test, config, bft_rng);
    RegistryResult result = searched(row, search, search.trial_points);
    if (search.completed) {
        result.bayesft_alpha = search.best_alpha;
        Rng eval_rng(row.task.streams + 2 + options.seed);
        result.curves = sweep_levels(
            {{"ERM", erm.net.get(), accuracy_on(parts.test), row.fault},
             {"BayesFT", bft.net.get(), accuracy_on(parts.test), row.fault}},
            row.levels, options.quick ? 2 : 4, eval_rng);
    }
    return result;
}

/// Typed mixed-space architecture search (core::arch_search) against the
/// family's fixed baseline trained with a comparable ERM budget; the two
/// final models are swept one after the other on one stream.
RegistryResult run_arch(const Scenario& row, const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    const models::ArchFamily& family = row.arch;
    ArchSearchConfig config;
    config.iterations = row.iterations.at(options);
    config.train = {.epochs = row.epochs.at(options),
                    .learning_rate = row.learning_rate};
    config.objective = search_objective(row, row.search_mc.at(options));
    config.bo.initial_random_trials = row.initial_trials.at(options);
    config.final_epochs = row.final_epochs.at(options);
    apply_search_options(config, options);
    config.workers = options.workers;
    Rng search_rng(row.task.streams + options.seed);
    const ArchSearchResult search =
        arch_search(family, parts.train, parts.test, config, search_rng);
    std::vector<std::string> points;
    for (const ParamPoint& point : search.trial_points) {
        points.push_back(family.space.describe(point));
    }
    RegistryResult result = searched(row, search, points);
    if (!search.completed) return result;
    Rng baseline_rng(row.task.streams + 1 + options.seed);
    const models::ModelHandle erm = row.baseline(baseline_rng);
    nn::TrainConfig erm_train = config.train;
    // Same total budget as one candidate plus the winner's fine-tuning.
    erm_train.epochs = config.train.epochs + config.final_epochs;
    nn::train_classifier(*erm.net, parts.train.images, parts.train.labels,
                         erm_train, baseline_rng);
    // The decoded point is the result of record; bayesft_alpha stays empty
    // (it means per-site dropout rates, not encoded mixed coordinates).
    result.annotation = family.space.describe(search.best_point);
    Rng eval_rng(row.task.streams + 2 + options.seed);
    for (const auto& [label, net] :
         {std::pair{"ERM-default", erm.net.get()},
          std::pair{"ArchSearch", search.best_model.net.get()}}) {
        result.curves.push_back(
            sweep_levels({{label, net, accuracy_on(parts.test), row.fault}},
                         row.levels, options.quick ? 2 : 4, eval_rng)
                .front());
    }
    return result;
}

/// Fig. 3(j): a plain grid detector against Algorithm 1 run on the
/// detector (per-stage dropout rates, mAP utility on a validation part),
/// both swept level by level on one stream.
RegistryResult run_detector_search(const Scenario& row,
                                   const RunOptions& options) {
    const std::vector<data::DetectionDataset> scenes =
        scene_parts(row.task, options, {6, 2});
    Rng erm_rng(row.task.streams + options.seed);
    const auto erm =
        trained_detector(scenes[0], options.quick ? 15 : 60, 0.0, erm_rng);
    // The searched network is a clone of the fresh detector's, which stays
    // the decoder.
    Rng bft_rng(row.task.streams + 1 + options.seed);
    detect::GridDetector bft(detect::GridDetectorConfig{}, bft_rng);
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
    config.objective = search_objective(row, options.quick ? 1 : 2);
    config.bo.initial_random_trials = 3;
    apply_search_options(config, options);
    const BayesFTResult search =
        bayesft_search(model, bft, scenes[0], scenes[1], config, bft_rng);
    RegistryResult result = searched(row, search, search.trial_points);
    if (search.completed) {
        result.bayesft_alpha = search.best_alpha;
        Rng eval_rng(row.task.streams + 2 + options.seed);
        result.curves = sweep_levels(
            {{"ERM mAP", &erm->network(), map_on(*erm, scenes[2]), row.fault},
             {"BayesFT mAP", model.net.get(), map_on(bft, scenes[2]),
              row.fault}},
            row.levels, options.quick ? 2 : 4, eval_rng);
    }
    return result;
}

/// A plain grid detector against one trained with every dropout site at
/// 0.15 (no search), both swept level by level on one stream.
RegistryResult run_detector_sweep(const Scenario& row,
                                  const RunOptions& options) {
    const std::vector<data::DetectionDataset> scenes =
        scene_parts(row.task, options, {7});
    const std::size_t epochs = options.quick ? 10 : 40;
    Rng erm_rng(row.task.streams + options.seed);
    const auto erm = trained_detector(scenes[0], epochs, 0.0, erm_rng);
    Rng drop_rng(row.task.streams + 1 + options.seed);
    const auto dropped = trained_detector(scenes[0], epochs, 0.15, drop_rng);
    RegistryResult result{.xs = row.levels};
    Rng eval_rng(row.task.streams + 2 + options.seed);
    result.curves = sweep_levels(
        {{"ERM mAP", &erm->network(), map_on(*erm, scenes[1]), row.fault},
         {"DropOut-0.15 mAP", &dropped->network(),
          map_on(*dropped, scenes[1]), row.fault}},
        row.levels, options.quick ? 2 : 4, eval_rng);
    return result;
}

/// GP-guided vs random alpha search under the same trial budget, plus
/// EI/UCB, each strategy on an identical stream.
RegistryResult run_bo_vs_random(const Scenario& row,
                                const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    BayesFTConfig config;
    config.iterations = options.quick ? 3 : 10;
    config.epochs_per_iteration = 1;
    config.objective = search_objective(row, options.quick ? 1 : 3);
    config.final_epochs = 2;
    apply_search_options(config, options);
    RegistryResult result{.xs = {static_cast<double>(config.iterations)}};
    // (label, acquisition); no acquisition means random search.
    const std::pair<const char*, const char*> strategies[] = {
        {"BO-PosteriorMean", "posterior_mean"}, {"BO-EI", "ei"},
        {"BO-UCB", "ucb"}, {"RandomSearch", nullptr}};
    for (const auto& [label, acquisition] : strategies) {
        Rng rng(row.task.streams + options.seed);
        models::ModelHandle model = models::make_mlp(row.mlp, rng);
        BayesFTConfig run_config = config;
        if (acquisition != nullptr) run_config.acquisition = acquisition;
        const BayesFTResult search =
            acquisition == nullptr
                ? random_search(model, parts.train, parts.test, run_config, rng)
                : bayesft_search(model, parts.train, parts.test, run_config,
                                 rng);
        result.curves.push_back({label, {search.best_utility}});
    }
    return result;
}

/// Noise and cost of the Monte-Carlo utility estimate (Eq. 4) at each
/// sample count T in `levels`.
RegistryResult run_mc_samples(const Scenario& row,
                              const RunOptions& options) {
    const data::TrainTestSplit parts = split_task(row.task, options);
    Rng rng(row.task.streams + options.seed);
    const models::ModelHandle model =
        trained_mlp(row.mlp, parts.train, options.quick ? 3 : 8, rng);
    RegistryResult result{.xs = row.levels};
    result.curves = {{"mean_utility", {}}, {"utility_std", {}},
                     {"seconds_per_estimate", {}}};
    const std::size_t repeats = options.quick ? 4 : 10;
    for (double t : row.levels) {
        const ObjectiveConfig objective =
            search_objective(row, static_cast<std::size_t>(t));
        std::vector<double> estimates;
        Stopwatch watch;
        for (std::size_t r = 0; r < repeats; ++r) {
            Rng eval_rng(1000 + r + options.seed);
            estimates.push_back(fault_utility(*model.net, parts.test.images,
                                              parts.test.labels, objective,
                                              eval_rng));
        }
        const double n = static_cast<double>(repeats);
        const double elapsed = watch.seconds() / n;
        const double mean =
            std::accumulate(estimates.begin(), estimates.end(), 0.0) / n;
        double var = 0.0;
        for (double e : estimates) var += (e - mean) * (e - mean);
        result.curves[0].values.push_back(mean);
        result.curves[1].values.push_back(std::sqrt(var / n));
        result.curves[2].values.push_back(elapsed);
    }
    return result;
}

// {run, checkpointable, distributable}: what the CLI's --checkpoint and
// --workers accept follows from the protocol, not from the row.
constexpr Protocol kPanel{run_panel, true}, kVariants{run_variants},
    kDeploy{run_deploy}, kFaultSearch{run_fault_search, true},
    kArch{run_arch, true, true}, kDetectorSearch{run_detector_search, true},
    kDetectorSweep{run_detector_sweep}, kBoVsRandom{run_bo_vs_random},
    kMcSamples{run_mc_samples};

// ----------------------------------------------------------- table ----

std::vector<ExperimentSpec> builtin_specs() {
    using enum Data;
    using D = models::DropoutKind;
    using N = models::NormKind;
    const models::MlpOptions plain{.dropout = D::kNone};
    const models::MlpOptions dropout{.initial_dropout_rate = 0.3};
    const models::MlpOptions toy{.input_features = 2, .hidden = 12,
                                 .classes = 3};
    const std::vector<Variant> with_without{{"Original", plain},
                                            {"DropOut", dropout}};
    const std::vector<double> sigmas4{0.0, 0.3, 0.6, 0.9};
    const std::vector<double> fractions{0.0, 0.02, 0.05, 0.1, 0.2};
    const std::vector<double> flips{0.0, 1e-4, 5e-4, 2e-3, 1e-2};
    const MethodSet erm_bayesft{.ftna = false, .reram_v = false, .awp = false};

    const Scenario table[] = {
        // Fig. 2: one architecture component varied, drift sweep.
        {.name = "fig2a_dropout", .family = "fig2",
         .description = "dropout ablation (MLP, synthetic digits)",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 11, 1000},
         .variants = {{"Original", plain}, {"DropOut", dropout},
                      {"AlphaDropOut", {.dropout = D::kAlpha,
                                        .initial_dropout_rate = 0.3}}}},
        {.name = "fig2b_normalization", .family = "fig2",
         .description = "normalization ablation (MLP, synthetic digits)",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 11, 1000},
         .variants =
             {{"WithoutNorm", {.norm = N::kNone, .dropout = D::kNone}},
              {"InstanceNorm", {.norm = N::kInstance, .dropout = D::kNone}},
              {"BatchNorm", {.norm = N::kBatch, .dropout = D::kNone}},
              {"GroupNorm", {.norm = N::kGroup, .dropout = D::kNone}},
              {"LayerNorm", {.norm = N::kLayer, .dropout = D::kNone}}}},
        {.name = "fig2c_depth", .family = "fig2",
         .description = "model-complexity ablation (MLP depth sweep)",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 11, 1000},
         .variants = {{"3-Layer", {.hidden_layers = 2, .dropout = D::kNone}},
                      {"6-Layer", {.hidden_layers = 5, .dropout = D::kNone}},
                      {"9-Layer", {.hidden_layers = 8, .dropout = D::kNone}}}},
        {.name = "fig2d_activation", .family = "fig2",
         .description = "activation-function ablation (MLP)",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 11, 1000},
         .variants =
             {{"ReLU", {.activation = "relu", .dropout = D::kNone}},
              {"ELU", {.activation = "elu", .dropout = D::kNone}},
              {"GELU", {.activation = "gelu", .dropout = D::kNone}},
              {"LeakyReLU",
               {.activation = "leaky_relu", .dropout = D::kNone}}}},
        // Fig. 3: the method comparison, one panel per model and task.
        {.name = "fig3a_mlp_mnist", .family = "fig3",
         .description = "MLP on synthetic digits, all methods",
         .protocol = kPanel, .task = {kDigits, {1200, 300}, 31},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_mlp({.classes = n}, rng);
         }},
        {.name = "fig3b_lenet_mnist", .family = "fig3",
         .description = "LeNet on synthetic digits, all methods",
         .protocol = kPanel, .task = {kDigits, {1000, 250}, 41},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_lenet5(1, 16, n, rng);
         },
         .epochs = {12, 3}, .learning_rate = 0.03},
        {.name = "fig3c_alexnet_cifar", .family = "fig3",
         .description = "AlexNet-S on synthetic objects, all methods",
         .protocol = kPanel, .task = {kObjects, {1000, 250}, 51},
         .factory = models::make_alexnet_s, .learning_rate = 0.02},
        {.name = "fig3d_resnet_cifar", .family = "fig3",
         .description = "ResNet18-S on synthetic objects, all methods",
         .protocol = kPanel, .task = {kObjects, {800, 200}, 61},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_resnet18_s(n, rng);
         },
         .learning_rate = 0.02},
        {.name = "fig3e_vgg_cifar", .family = "fig3",
         .description = "VGG11-S on synthetic objects, all methods",
         .protocol = kPanel, .task = {kObjects, {800, 200}, 71},
         .factory = models::make_vgg11_s, .learning_rate = 0.02},
        // Depth panels: the depth/robustness interaction, ERM vs BayesFT.
        {.name = "fig3f_preact18", .family = "fig3",
         .description = "PreAct-S depth 1 block/stage, ERM vs BayesFT",
         .protocol = kPanel, .task = {kObjects, {800, 200}, 81},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_preact_resnet_s(1, n, rng);
         },
         .methods = erm_bayesft, .learning_rate = 0.02},
        {.name = "fig3g_preact50", .family = "fig3",
         .description = "PreAct-S depth 2 blocks/stage, ERM vs BayesFT",
         .protocol = kPanel, .task = {kObjects, {800, 200}, 81},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_preact_resnet_s(2, n, rng);
         },
         .methods = erm_bayesft, .learning_rate = 0.02},
        {.name = "fig3h_preact152", .family = "fig3",
         .description = "PreAct-S depth 4 blocks/stage, ERM vs BayesFT",
         .protocol = kPanel, .task = {kObjects, {800, 200}, 81},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_preact_resnet_s(4, n, rng);
         },
         .methods = erm_bayesft, .learning_rate = 0.02},
        // No FTNA, per the paper: its output coding does not transfer.
        {.name = "fig3i_gtsrb", .family = "fig3",
         .description = "STN-lite on synthetic traffic signs (43 classes)",
         .protocol = kPanel, .task = {kSigns, {2150, 537}, 91},
         .factory = models::make_stn_classifier, .methods = {.ftna = false},
         .learning_rate = 0.02},
        {.name = "fig3j_detection", .family = "fig3",
         .description = "grid detector mAP vs drift (synthetic pedestrians)",
         .protocol = kDetectorSearch,
         .task = {kPedestrians, {360, 120}, 101, 111},
         .levels = {0.0, 0.2, 0.4, 0.6, 0.8}, .search_sigmas = {0.2, 0.4}},
        // Fault-model zoo (docs/fault-models.md) and deployment chains.
        {.name = "faults_fig2a_stuckat", .family = "faults",
         .description = "dropout ablation under SA0/SA1 stuck-at faults",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 151, 3000},
         .variants = with_without, .fault = stuck_at,
         .x_label = "stuck_fraction", .levels = fractions},
        {.name = "faults_fig2a_bitflip", .family = "faults",
         .description = "dropout ablation under 8-bit SEU bit flips",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 151, 3000},
         .variants = with_without, .fault = bit_flip,
         .x_label = "flip_probability", .levels = flips},
        {.name = "faults_fig2a_variation", .family = "faults",
         .description = "dropout ablation under lognormal device variation",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 151, 3000},
         .variants = with_without, .fault = variation,
         .levels = {0.0, 0.2, 0.4, 0.6, 0.8}},
        {.name = "faults_fig2a_quant", .family = "faults",
         .description = "dropout ablation vs quantization word width",
         .protocol = kVariants, .task = {kDigits, {1200, 300}, 151, 3000},
         .variants = with_without, .fault = quantization, .x_label = "bits",
         .levels = {8.0, 6.0, 5.0, 4.0, 3.0, 2.0}},
        {.name = "faults_fig3a_stuckat", .family = "faults",
         .description = "ERM vs BayesFT searched under stuck-at faults",
         .protocol = kFaultSearch, .task = {kDigits, {800, 200}, 161, 163},
         .fault = stuck_at, .x_label = "stuck_fraction", .levels = fractions,
         .search_faults = {0.05, 0.1}},
        {.name = "faults_fig3a_bitflip", .family = "faults",
         .description = "ERM vs BayesFT searched under SEU bit flips",
         .protocol = kFaultSearch, .task = {kDigits, {800, 200}, 161, 163},
         .fault = bit_flip, .x_label = "flip_probability", .levels = flips,
         .search_faults = {5e-4, 2e-3}},
        {.name = "faults_fig3j_variation", .family = "faults",
         .description = "grid detector mAP vs device variation",
         .protocol = kDetectorSweep,
         .task = {kPedestrians, {240, 64}, 171, 172}, .fault = variation,
         .levels = {0.0, 0.2, 0.4, 0.6}},
        {.name = "faults_composed_deploy", .family = "faults",
         .description =
             "quantize->variation->drift deployment chain vs drift",
         .protocol = kDeploy, .task = {kDigits, {1000, 250}, 181, 183},
         .deploy = {{"Drift"}, {"Quant8+Var+Drift", quant8_variation_drift}},
         .mlp = dropout, .levels = sigmas4},
        // b-bit DAC words on top of drift; --inference int12 widens them.
        {.name = "faults_int8_inference", .family = "faults",
         .description =
             "float32 vs int8/int12 fixed-point forward under drift",
         .protocol = kDeploy, .task = {kDigits, {1000, 250}, 191, 193},
         .deploy = {{"Float32 fwd"}, {" fwd", lognormal_drift, std::nullopt}},
         .mlp = dropout, .levels = sigmas4},
        // Weights and arithmetic on one 12-bit grid (fault::dac12_deploy).
        {.name = "faults_dac12_deploy", .family = "faults",
         .description =
             "DAC12 12-bit deployment chain, float32 vs int12 forward",
         .protocol = kDeploy, .task = {kDigits, {1000, 250}, 201, 203},
         .deploy = {{"DAC12 chain, float32 fwd", dac12},
                    {"DAC12 chain, int12 fwd", dac12,
                     nn::InferenceMode::kInt12}},
         .mlp = dropout, .levels = sigmas4},
        // Arch search: Fig. 2's axes searched jointly with dropout rates.
        {.name = "archsearch_fig2_mlp", .family = "archsearch",
         .description =
             "joint norm/activation/depth/dropout MLP search vs drift",
         .protocol = kArch, .task = {kDigits, {1000, 250}, 191, 193},
         .arch = models::mlp_arch_family({}, 4, 0.5),
         .baseline = [plain](Rng& rng) { return models::make_mlp(plain, rng); },
         .epochs = {5, 2}, .iterations = {12, 4}},
        {.name = "archsearch_preact_stuckat", .family = "archsearch",
         .description =
             "PreAct depth/norm/dropout search under stuck-at faults",
         .protocol = kArch, .task = {kObjects, {600, 150}, 201, 203},
         .arch = models::preact_arch_family(10, 0.5),
         .baseline = [](Rng& rng) {
             return models::make_preact_resnet_s(1, 10, rng);
         },
         .fault = stuck_at, .x_label = "stuck_fraction", .levels = fractions,
         .search_faults = {0.05, 0.1}, .epochs = {3, 1},
         .iterations = {10, 3}, .learning_rate = 0.02},
        {.name = "archsearch_stn_drift", .family = "archsearch",
         .description = "STN head-width/pool/dropout search under drift",
         .protocol = kArch, .task = {kSigns, {860, 215}, 211, 213},
         .arch = models::stn_arch_family(43, 0.5),
         .baseline = [](Rng& r) { return models::make_stn_classifier(43, r); },
         .levels = sigmas4, .epochs = {3, 1}, .iterations = {8, 3},
         .learning_rate = 0.02},
        // Ablations of the search itself.
        {.name = "ablation_bo_vs_random", .family = "ablation",
         .description = "GP-guided vs random alpha search, same budget",
         .protocol = kBoVsRandom, .task = {kDigits, {1000, 250}, 131, 777},
         .mlp = {.hidden_layers = 3}, .x_label = "trial_budget"},
        {.name = "ablation_mc_samples", .family = "ablation",
         .description = "MC utility-estimate noise vs sample count T",
         .protocol = kMcSamples, .task = {kDigits, {800, 200}, 141, 143},
         .x_label = "mc_samples", .levels = {1.0, 2.0, 4.0, 8.0, 16.0},
         .search_sigmas = {0.6}},
        // CI-sized.  toy_mlp_blobs keeps 4 iterations under --quick so a
        // --batch 4 smoke run forms one genuinely 4-wide candidate batch.
        {.name = "toy_mlp_blobs", .family = "toy",
         .description = "CI-sized blobs task, ERM vs BayesFT",
         .protocol = kPanel, .task = {kBlobs, {600, 300}, 1},
         .factory = [](std::size_t n, Rng& rng) {
             return models::make_mlp(
                 {.input_features = 2, .hidden = 24, .classes = n}, rng);
         },
         .methods = erm_bayesft, .levels = {0.0, 0.6, 1.2},
         .epochs = {8, 4}, .iterations = {4, 4}},
        {.name = "toy_arch_blobs", .family = "toy",
         .description = "CI-sized self-contained arch search on blobs vs drift",
         .protocol = kArch, .task = {kBlobs, {300, 180}, 221, 223},
         .arch = models::mlp_arch_family(toy, 2, 0.5),
         .baseline = [toy](Rng& rng) { return models::make_mlp(toy, rng); },
         .levels = {0.0, 0.4, 0.8}, .search_sigmas = {0.5}, .epochs = {1, 1},
         .iterations = {6, 3}, .search_mc = {1, 1}, .initial_trials = {2, 2},
         .final_epochs = {1, 1}},
    };
    std::vector<ExperimentSpec> specs;
    for (const Scenario& row : table) {
        specs.push_back(
            {row.name, row.family, row.description,
             [row](const RunOptions& options) {
                 Stopwatch watch;
                 RegistryResult result = row.protocol.run(row, options);
                 result.experiment = row.name;
                 result.x_label = row.x_label;
                 result.seconds = watch.seconds();
                 return result;
             },
             row.protocol.checkpointable, row.protocol.distributable});
    }
    return specs;
}

}  // namespace

const ExperimentRegistry& ExperimentRegistry::instance() {
    static const ExperimentRegistry registry(builtin_specs());
    return registry;
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
