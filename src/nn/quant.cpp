#include "nn/quant.hpp"

#include <stdexcept>

namespace bayesft::nn {

int inference_bits(InferenceMode mode) {
    switch (mode) {
        case InferenceMode::kFloat32: return 0;
        case InferenceMode::kInt8: return 8;
        case InferenceMode::kInt12: return 12;
    }
    throw std::logic_error("inference_bits: bad mode");
}

const char* inference_mode_name(InferenceMode mode) {
    switch (mode) {
        case InferenceMode::kFloat32: return "float32";
        case InferenceMode::kInt8: return "int8";
        case InferenceMode::kInt12: return "int12";
    }
    throw std::logic_error("inference_mode_name: bad mode");
}

InferenceMode parse_inference_mode(const std::string& name) {
    if (name == "float32") return InferenceMode::kFloat32;
    if (name == "int8") return InferenceMode::kInt8;
    if (name == "int12") return InferenceMode::kInt12;
    throw std::invalid_argument(
        "parse_inference_mode: expected float32|int8|int12, got '" + name +
        "'");
}

std::size_t set_inference_mode(Module& root, InferenceMode mode) {
    std::size_t count = 0;
    visit(root, [&](Module& node) {
        if (auto* layer = dynamic_cast<FixedPointCapable*>(&node)) {
            layer->set_inference_mode(mode);
            ++count;
        }
    });
    return count;
}

ScopedInferenceMode::ScopedInferenceMode(Module& root, InferenceMode mode) {
    visit(root, [&](Module& node) {
        if (auto* layer = dynamic_cast<FixedPointCapable*>(&node)) {
            saved_.emplace_back(layer, layer->inference_mode());
            layer->set_inference_mode(mode);
        }
    });
}

ScopedInferenceMode::~ScopedInferenceMode() {
    for (const auto& [layer, mode] : saved_) {
        layer->set_inference_mode(mode);
    }
}

}  // namespace bayesft::nn
