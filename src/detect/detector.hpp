#pragma once
// Single-class grid detector (YOLO-v1 style), the Mask-RCNN stand-in for the
// object-detection experiments (DESIGN.md section 2).
//
// A small convolutional backbone maps [N, 3, S, S] scenes to a [N, 5, G, G]
// grid; per cell the 5 channels are (confidence, cx, cy, w, h), all squashed
// to [0, 1] by a final sigmoid.  Dropout layers sit after every conv stage,
// giving BayesFT the same per-layer search space as the classifiers.

#include <memory>
#include <vector>

#include "detect/box.hpp"
#include "nn/dropout.hpp"
#include "nn/module.hpp"
#include "utils/rng.hpp"

namespace bayesft::detect {

/// Architecture and decoding configuration.
struct GridDetectorConfig {
    std::size_t image_size = 32;
    std::size_t grid = 4;  ///< G x G prediction cells
    std::size_t base_channels = 8;
    double confidence_threshold = 0.25;
    double nms_iou = 0.3;
    /// Loss weights (YOLO-style): coordinates of object cells vs the
    /// confidence of empty cells.
    double lambda_coord = 5.0;
    double lambda_noobj = 0.5;
};

/// Training configuration for the detector.
struct DetectorTrainConfig {
    std::size_t epochs = 30;
    std::size_t batch_size = 16;
    double learning_rate = 1e-3;  ///< Adam
};

/// Owns the network and implements target encoding, loss, decode and mAP.
class GridDetector {
public:
    GridDetector(const GridDetectorConfig& config, Rng& rng);

    nn::Module& network() { return *net_; }
    /// Per-stage dropout handles (the alpha search space for BayesFT).
    const std::vector<nn::Dropout*>& dropout_sites() const {
        return dropout_sites_;
    }
    const GridDetectorConfig& config() const { return config_; }

    /// Builds the [N, 5, G, G] regression target and weight tensors from
    /// ground-truth boxes.
    struct Targets {
        Tensor values;
        Tensor weights;
    };
    Targets encode_targets(
        const std::vector<std::vector<Box>>& boxes_per_image) const;

    /// Trains on (images, boxes) with weighted MSE; returns final mean loss.
    double train(const Tensor& images,
                 const std::vector<std::vector<Box>>& boxes_per_image,
                 const DetectorTrainConfig& train_config, Rng& rng);

    /// train() on an arbitrary network of this architecture, e.g. a
    /// search's per-candidate replica of the owned one.
    double train_with(nn::Module& net, const Tensor& images,
                      const std::vector<std::vector<Box>>& boxes_per_image,
                      const DetectorTrainConfig& train_config,
                      Rng& rng) const;

    /// Runs the network and decodes scored, NMS-filtered detections.
    std::vector<std::vector<Detection>> detect(const Tensor& images);

    /// Decodes detections from an arbitrary network with this detector's
    /// configuration.  Lets drift-robustness metrics score the (replicated)
    /// module they are handed instead of aliasing the owned network, which
    /// makes them safe for parallel Monte-Carlo evaluation.
    std::vector<std::vector<Detection>> detect_with(nn::Module& net,
                                                    const Tensor& images) const;

    /// AP@0.5 on a labeled set (single class, so mAP == AP).
    double evaluate_map(const Tensor& images,
                        const std::vector<std::vector<Box>>& boxes_per_image);

    /// AP@0.5 of an arbitrary network decoded with this configuration.
    double evaluate_map_with(
        nn::Module& net, const Tensor& images,
        const std::vector<std::vector<Box>>& boxes_per_image) const;

private:
    GridDetectorConfig config_;
    std::unique_ptr<nn::Sequential> net_;
    std::vector<nn::Dropout*> dropout_sites_;
};

}  // namespace bayesft::detect
