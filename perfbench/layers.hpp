#pragma once
// Layer probes shared by the batch workloads: the nn/ training epoch
// mirror and the span-wrapped fault-utility call.

#include <functional>

#include "bench.hpp"
#include "core/objective.hpp"
#include "data/dataset.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"

namespace perfbench {

/// Per-epoch timings of a model's SGD epoch (medians over a few epochs).
struct EpochTimes {
    double untraced_s = 0.0;  ///< mirror epoch with tracing off
    double traced_s = 0.0;    ///< mirror epoch with tracing on
    double fwd_s = 0.0;       ///< forward + loss, per traced epoch
    double bwd_s = 0.0;       ///< backward, per traced epoch
    double step_s = 0.0;      ///< zero_grad + optimizer step, per traced epoch
    double covered_s = 0.0;   ///< traced epoch time inside any span
    double train_s = 0.0;     ///< one-epoch nn::train_classifier call
};

/// Times SGD epochs of the model `make` builds on `train`: a mirror of
/// nn::train_classifier's loop built from Module::forward/backward and the
/// optimizer, run untraced and traced, plus one-epoch calls of the real
/// train_classifier.  Leaves tracing off.
EpochTimes measure_epochs(
    const std::function<bayesft::models::ModelHandle(bayesft::Rng&)>& make,
    const bayesft::data::Dataset& train,
    const bayesft::nn::TrainConfig& config, std::uint64_t seed);

/// core::fault_utility inside a "fault.mc_eval" span.
double traced_fault_utility(bayesft::nn::Module& model,
                            const bayesft::data::Dataset& data,
                            const bayesft::core::ObjectiveConfig& objective,
                            bayesft::Rng& rng);

}  // namespace perfbench
