#pragma once
// The method zoo behind one interface: each paper method (ERM / FTNA /
// ReRAM-V / AWP / BayesFT) knows how to train itself on a task and hand
// back the module + metric that the drift sweep should score, replacing
// the inline if-chains that used to live in run_classification_experiment.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace bayesft::core {

/// What a trained method exposes to the sigma sweep.
struct TrainedMethod {
    /// Owns whatever the metric closure references (model, FTNA wrapper).
    std::shared_ptr<void> holder;
    /// Network whose weights the sweep perturbs.
    nn::Module* net = nullptr;
    /// Scores the (possibly replicated) module it is handed.
    std::function<double(nn::Module&)> metric;
    /// Thread budget for evaluate_metric_under_faults: 0 (pool width) only
    /// when `metric` scores the module it is handed; 1 when it closes over
    /// shared state (FTNA decoding).
    std::size_t sweep_threads = 0;
    /// Best dropout rates (BayesFT only).
    std::vector<double> best_alpha;
    /// Full BO trial history (BayesFT only) for the run store, with the
    /// decoded point strings aligned to it.
    std::vector<bayesopt::Trial> trials;
    std::vector<std::string> trial_points;
    /// False when the search checkpointed out early (stop_after); the
    /// returned net is mid-search state and must not be swept.
    bool search_completed = true;
    /// Leading trials restored from a checkpoint by the search.
    std::size_t resumed_trials = 0;
};

/// One training method of the paper's comparison.
class Method {
public:
    virtual ~Method() = default;
    Method() = default;
    Method(const Method&) = delete;
    Method& operator=(const Method&) = delete;

    /// Column label in the figures ("ERM", "BayesFT", ...).
    virtual std::string name() const = 0;

    /// Per-method RNG stream offset added to ExperimentConfig::seed
    /// (stable across method subsets, so disabling one method does not
    /// reshuffle the others' streams).
    virtual std::uint64_t seed_offset() const = 0;

    /// Builds and trains the method's model on `train_set`; `rng` is the
    /// method's private stream and continues into the caller's sweep.
    virtual TrainedMethod train(const ModelFactory& factory,
                                const data::Dataset& train_set,
                                const data::Dataset& test_set,
                                std::size_t num_classes,
                                const ExperimentConfig& config,
                                Rng& rng) const = 0;
};

/// The enabled methods, in the paper's column order.
std::vector<std::unique_ptr<Method>> make_methods(const MethodSet& set);

}  // namespace bayesft::core
