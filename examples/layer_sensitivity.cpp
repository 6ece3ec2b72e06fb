// Analysis example: which parameters are the drift "Achilles' heel"?
//
// Trains a batch-normalized MLP (the architecture the paper's Fig. 2(b)
// warns about), ranks every parameter tensor by the accuracy it destroys
// when drifted alone, and round-trips the trained model through a model
// file (the train-offline / deploy-on-ReRAM workflow).  Exits 1 when the
// restored model's test accuracy differs from the saved model's.
//
// Build & run:  ./build/example_layer_sensitivity

#include <cstdio>
#include <iostream>

#include "core/persist.hpp"
#include "data/digits.hpp"
#include "fault/drift.hpp"
#include "fault/sensitivity.hpp"
#include "models/zoo.hpp"
#include "nn/trainer.hpp"
#include "utils/logging.hpp"
#include "utils/table.hpp"

int main() {
    using namespace bayesft;
    set_log_level(LogLevel::Warn);

    Rng rng(61);
    data::DigitConfig digit_config;
    digit_config.samples = 800;
    digit_config.image_size = 16;
    const data::Dataset digits = data::synthetic_digits(digit_config, rng);
    Rng split_rng(62);
    const data::TrainTestSplit parts = data::split(digits, 0.25, split_rng);

    // A batch-normalized MLP — deliberately the fragile configuration.
    models::MlpOptions options;
    options.input_features = 256;
    options.hidden = 64;
    options.hidden_layers = 2;
    options.norm = models::NormKind::kBatch;
    models::ModelHandle model = models::make_mlp(options, rng);
    nn::TrainConfig train_config;
    train_config.epochs = 10;
    nn::train_classifier(*model.net, parts.train.images, parts.train.labels,
                         train_config, rng);
    const double accuracy = nn::evaluate_accuracy(
        *model.net, parts.test.images, parts.test.labels);
    std::cout << "clean accuracy: " << format_double(accuracy * 100.0, 1)
              << "%\n\n";

    // Rank parameters by accuracy destroyed when drifted in isolation.
    const fault::LogNormalDrift drift(1.0);
    const auto ranked = fault::rank_by_drop(fault::per_parameter_sensitivity(
        *model.net, parts.test.images, parts.test.labels, drift, 5, rng));

    ResultTable table("Per-parameter drift sensitivity (sigma = 1.0, worst first)",
                      {"rank", "parameter", "#scalars", "drifted %", "drop %"});
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const auto& record = ranked[i];
        table.add_text_row({std::to_string(i + 1),
                            record.name + "[" + std::to_string(record.index) +
                                "]",
                            std::to_string(record.scalar_count),
                            format_double(record.drifted_accuracy * 100.0, 1),
                            format_double(record.accuracy_drop() * 100.0, 1)});
    }
    std::cout << table << '\n';
    std::cout << "Note the norm affine parameters: few scalars, outsized "
                 "damage (paper Fig. 2(b)).\n\n";

    // Model file round trip: train offline, deploy later.
    const std::string path = "bayesft_sensitivity_example.model";
    core::save_model(*model.net, path);
    models::ModelHandle restored = models::make_mlp(options, rng);
    core::load_model(*restored.net, path);
    const double restored_accuracy = nn::evaluate_accuracy(
        *restored.net, parts.test.images, parts.test.labels);
    std::cout << "model file round trip: restored model accuracy "
              << format_double(restored_accuracy * 100.0, 1) << "% (saved to "
              << path << ")\n";
    std::remove(path.c_str());
    if (restored_accuracy != accuracy) {
        std::cerr << "restored accuracy differs from the saved model's\n";
        return 1;
    }
    return 0;
}
