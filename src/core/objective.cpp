#include "core/objective.hpp"

#include <stdexcept>

#include "core/engine.hpp"
#include "fault/drift.hpp"
#include "nn/trainer.hpp"

namespace bayesft::core {

double fault_utility(nn::Module& model, const Tensor& images,
                     const std::vector<int>& labels,
                     const ObjectiveConfig& config, Rng& rng) {
    return fault_utility(model, config, rng, [&](nn::Module& m) {
        switch (config.metric) {
            case ObjectiveMetric::kAccuracy:
                return nn::evaluate_accuracy(m, images, labels);
            case ObjectiveMetric::kNegLoss:
                return -nn::evaluate_loss(m, images, labels);
        }
        throw std::logic_error("fault_utility: bad metric");
    });
}

double fault_utility(nn::Module& model, const ObjectiveConfig& config,
                     Rng& rng,
                     const std::function<double(nn::Module&)>& metric) {
    if ((config.sigmas.empty() && config.faults.empty()) ||
        config.mc_samples == 0) {
        throw std::invalid_argument("fault_utility: empty configuration");
    }
    // Fixed-point deployment view: switch the capable layers for the
    // duration of the scoring; the per-thread replicas the evaluator
    // clones inherit the mode.  No-op for kFloat32.
    const nn::ScopedInferenceMode scoped_mode(model, config.inference);
    // The metric scores the module it is handed, so the Monte-Carlo loop
    // can fan out over per-thread replicas (num_threads 0 = pool width).
    const auto score = [&](const fault::FaultModel& fault) {
        return fault::evaluate_metric_under_faults(
                   model, fault, config.mc_samples, rng, metric, 0)
            .mean_accuracy;
    };

    double total = 0.0;
    std::size_t scenarios = 0;
    if (!config.faults.empty()) {
        for (const auto& fault : config.faults) {
            if (!fault) {
                throw std::invalid_argument(
                    "fault_utility: null fault scenario");
            }
            total += score(*fault);
            ++scenarios;
        }
    } else {
        for (double sigma : config.sigmas) {
            total += score(fault::LogNormalDrift(sigma));
            ++scenarios;
        }
    }
    return total / static_cast<double>(scenarios);
}

std::uint64_t objective_digest(const ObjectiveConfig& config) {
    std::uint64_t key =
        mix_key(0, static_cast<std::uint64_t>(config.mc_samples));
    key = mix_key(key, static_cast<std::uint64_t>(config.metric));
    // The fixed-point mode changes every scored forward, so it must key
    // the engine's memoization and RNG-derivation context.  Folded only
    // when non-default so every float32 configuration keeps the digest it
    // had before the mode existed (checkpoint / RNG-stream compatibility).
    if (config.inference != nn::InferenceMode::kFloat32) {
        key = mix_key(key, static_cast<std::uint64_t>(config.inference));
    }
    if (config.faults.empty()) {
        key = mix_key(key, config.sigmas.data(), config.sigmas.size());
    } else {
        for (const auto& fault : config.faults) {
            if (!fault) {
                throw std::invalid_argument(
                    "objective_digest: null fault scenario");
            }
            key = mix_key(key, fault->describe());
            const std::vector<double> params = fault->params();
            key = mix_key(key, params.data(), params.size());
        }
    }
    return key;
}

}  // namespace bayesft::core
