#pragma once
// High-level experiment harness: trains every method on one task and sweeps
// the drift level sigma, producing exactly the curves of the paper's
// Fig. 3, plus the fault-level sweep every registry scenario scores its
// curves with (core/registry.cpp).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/bayesft.hpp"
#include "core/registry.hpp"
#include "data/dataset.hpp"
#include "fault/model.hpp"
#include "models/zoo.hpp"
#include "nn/quant.hpp"

namespace bayesft::core {

/// Builds a fresh model with `output_units` outputs (classes for standard
/// methods, code bits for FTNA).
using ModelFactory =
    std::function<models::ModelHandle(std::size_t output_units, Rng& rng)>;

/// Which methods to run (FTNA/ReRAM-V/AWP can be disabled per figure, e.g.
/// Fig. 3(i) has no FTNA because error-correction coding does not transfer).
struct MethodSet {
    bool erm = true;
    bool ftna = true;
    bool reram_v = true;
    bool awp = true;
    bool bayesft = true;
};

/// Full experiment configuration.
struct ExperimentConfig {
    /// Drift sweep of the x-axis (paper: 0 to 1.5 step 0.3).
    std::vector<double> sigmas{0.0, 0.3, 0.6, 0.9, 1.2, 1.5};
    /// Monte-Carlo samples per sigma point at evaluation time.
    std::size_t eval_samples = 5;
    /// Baseline training settings.
    nn::TrainConfig train;
    /// BayesFT search settings.
    BayesFTConfig bayesft;
    /// ReRAM-V / AWP / FTNA settings.
    ReRamVConfig reram_v;
    AwpConfig awp;
    std::size_t ftna_code_bits = 16;
    MethodSet methods;
    std::uint64_t seed = 42;
};

/// A fault family: the fault model at sweep level `level` (a drift sigma,
/// a stuck fraction, a flip probability, a word width, ...).
using FaultFamily = std::unique_ptr<fault::FaultModel> (*)(double level);

/// The paper's family: LogNormalDrift(sigma).
std::unique_ptr<fault::FaultModel> lognormal_drift(double sigma);

/// Accuracy on `test_set` of the module it is handed (replica-safe).
std::function<double(nn::Module&)> accuracy_on(const data::Dataset& test_set);

/// One curve of a fault-level sweep.
struct SweepCurve {
    std::string label;
    nn::Module* net = nullptr;
    /// Scores the perturbed module it is handed.
    std::function<double(nn::Module&)> metric;
    FaultFamily fault = lognormal_drift;
    /// Forward arithmetic while scoring (restored afterwards).
    nn::InferenceMode mode = nn::InferenceMode::kFloat32;
    /// evaluate_metric_under_faults' thread budget: 0 (pool width) only
    /// when `metric` scores the module it is handed; 1 when it closes over
    /// shared state (FTNA decoding).
    std::size_t threads = 0;
};

/// Scores `curves` level by level: at each level, every curve in order
/// takes one Monte-Carlo evaluation of `mc_samples` fault draws from
/// `rng`, so the draw order is fixed by (levels, curves) alone.
std::vector<NamedCurve> sweep_levels(const std::vector<SweepCurve>& curves,
                                     const std::vector<double>& levels,
                                     std::size_t mc_samples, Rng& rng);

/// Zips a BO trial history with its decoded-point strings into run-store
/// TrialRecords.
std::vector<TrialRecord> to_trial_records(
    const std::vector<bayesopt::Trial>& trials,
    const std::vector<std::string>& points);

/// Runs every enabled method on the task defined by (factory, data):
/// one accuracy-vs-sigma curve per method (x_label "sigma", xs =
/// config.sigmas), the BayesFT search's trial log and best alpha.  When
/// the search checkpoints out at stop_after, the result holds the curves
/// of the methods before it and `search_completed` is false.
RegistryResult run_classification_experiment(const ModelFactory& factory,
                                             const data::Dataset& train_set,
                                             const data::Dataset& test_set,
                                             std::size_t num_classes,
                                             const ExperimentConfig& config);

}  // namespace bayesft::core
