#pragma once
// Fig. 3(j)'s detector search at toy size, shared by the driver-equivalence
// test (test_engine.cpp) and the resume torture (test_persist.cpp): a small
// pedestrian-scene split, the searched copy of a detector's network, and the
// search configuration fig3j_detection builds, shrunk.

#include <cstddef>

#include "core/bayesft.hpp"
#include "data/pedestrians.hpp"
#include "detect/detector.hpp"
#include "models/zoo.hpp"
#include "nn/module.hpp"
#include "utils/rng.hpp"

namespace bayesft::testing {

struct DetectorScenes {
    data::DetectionDataset train;
    data::DetectionDataset val;
};

inline DetectorScenes small_detector_scenes() {
    data::PedestrianConfig config;
    config.samples = 24;
    Rng train_rng(101);
    DetectorScenes scenes;
    scenes.train = data::synthetic_pedestrians(config, train_rng);
    config.samples = 12;
    Rng val_rng(102);
    scenes.val = data::synthetic_pedestrians(config, val_rng);
    return scenes;
}

/// The network bayesft_search trains for `detector`: a clone of its own,
/// with the dropout sites relocated into the clone.
inline models::ModelHandle searched_network(detect::GridDetector& detector) {
    models::ModelHandle model;
    model.net = detector.network().clone();
    model.dropout_sites = nn::collect_dropout_layers(*model.net);
    return model;
}

/// fig3j_detection's search configuration at toy size: three initial
/// random trials then GP proposals, one training epoch per trial, the
/// utility marginalized over drift sigmas 0.2 and 0.4.
inline core::BayesFTConfig detector_search_config(std::size_t batch,
                                                  std::size_t threads) {
    const detect::DetectorTrainConfig step;
    core::BayesFTConfig config;
    config.iterations = 5;
    config.epochs_per_iteration = 1;
    config.warmup_epochs = 0;
    config.final_epochs = 1;
    config.train.batch_size = step.batch_size;
    config.train.learning_rate = step.learning_rate;
    config.objective.sigmas = {0.2, 0.4};
    config.objective.mc_samples = 1;
    config.bo.initial_random_trials = 3;
    config.batch = batch;
    config.eval_threads = threads;
    config.resilience.max_retries = 2;  // RunOptions' default
    return config;
}

}  // namespace bayesft::testing
