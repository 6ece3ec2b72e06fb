#include "detect/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace bayesft::detect {

GridDetector::GridDetector(const GridDetectorConfig& config, Rng& rng)
    : config_(config) {
    if (config.grid == 0 || config.image_size != config.grid * 8) {
        throw std::invalid_argument(
            "GridDetector: image_size must equal grid * 8 (three 2x pools)");
    }
    if (config.base_channels == 0) {
        throw std::invalid_argument("GridDetector: zero base_channels");
    }
    const std::size_t c = config.base_channels;
    net_ = std::make_unique<nn::Sequential>();
    net_->emplace<nn::Conv2d>(3, c, 3, 1, 1, rng);
    net_->emplace<nn::ReLU>();
    net_->emplace<nn::MaxPool2d>(2);
    dropout_sites_.push_back(
        net_->emplace<nn::Dropout>(0.0, rng.split()()));
    net_->emplace<nn::Conv2d>(c, 2 * c, 3, 1, 1, rng);
    net_->emplace<nn::ReLU>();
    net_->emplace<nn::MaxPool2d>(2);
    dropout_sites_.push_back(
        net_->emplace<nn::Dropout>(0.0, rng.split()()));
    net_->emplace<nn::Conv2d>(2 * c, 4 * c, 3, 1, 1, rng);
    net_->emplace<nn::ReLU>();
    net_->emplace<nn::MaxPool2d>(2);
    dropout_sites_.push_back(
        net_->emplace<nn::Dropout>(0.0, rng.split()()));
    net_->emplace<nn::Conv2d>(4 * c, 5, 1, 1, 0, rng);
    net_->emplace<nn::Sigmoid>();
}

GridDetector::Targets GridDetector::encode_targets(
    const std::vector<std::vector<Box>>& boxes_per_image) const {
    const std::size_t n = boxes_per_image.size();
    const std::size_t g = config_.grid;
    const double cell =
        static_cast<double>(config_.image_size) / static_cast<double>(g);
    Targets t{Tensor({n, 5, g, g}), Tensor({n, 5, g, g})};
    // Default: empty cells contribute only a down-weighted confidence term.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t gy = 0; gy < g; ++gy) {
            for (std::size_t gx = 0; gx < g; ++gx) {
                t.weights(i, 0, gy, gx) =
                    static_cast<float>(config_.lambda_noobj);
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (const Box& box : boxes_per_image[i]) {
            const double cx = (box.x1 + box.x2) / 2.0;
            const double cy = (box.y1 + box.y2) / 2.0;
            const auto gx = std::min<std::size_t>(
                g - 1, static_cast<std::size_t>(cx / cell));
            const auto gy = std::min<std::size_t>(
                g - 1, static_cast<std::size_t>(cy / cell));
            t.values(i, 0, gy, gx) = 1.0F;
            t.values(i, 1, gy, gx) =
                static_cast<float>(cx / cell - static_cast<double>(gx));
            t.values(i, 2, gy, gx) =
                static_cast<float>(cy / cell - static_cast<double>(gy));
            t.values(i, 3, gy, gx) = static_cast<float>(
                box.width() / static_cast<double>(config_.image_size));
            t.values(i, 4, gy, gx) = static_cast<float>(
                box.height() / static_cast<double>(config_.image_size));
            t.weights(i, 0, gy, gx) = 1.0F;
            for (std::size_t ch = 1; ch < 5; ++ch) {
                t.weights(i, ch, gy, gx) =
                    static_cast<float>(config_.lambda_coord);
            }
        }
    }
    return t;
}

double GridDetector::train(
    const Tensor& images, const std::vector<std::vector<Box>>& boxes_per_image,
    const DetectorTrainConfig& train_config, Rng& rng) {
    return train_with(*net_, images, boxes_per_image, train_config, rng);
}

double GridDetector::train_with(
    nn::Module& net, const Tensor& images,
    const std::vector<std::vector<Box>>& boxes_per_image,
    const DetectorTrainConfig& train_config, Rng& rng) const {
    if (images.dim(0) != boxes_per_image.size()) {
        throw std::invalid_argument("GridDetector::train: size mismatch");
    }
    const Targets targets = encode_targets(boxes_per_image);
    nn::Adam opt(net.parameters(), train_config.learning_rate);
    return nn::train_epochs(
        net, opt, images, train_config.epochs, train_config.batch_size, rng,
        [&](Tensor batch, std::span<const std::size_t> rows) {
            nn::LossResult loss =
                nn::mse(net.forward(std::move(batch)),
                        nn::gather_rows(targets.values, rows),
                        nn::gather_rows(targets.weights, rows));
            net.backward_params(std::move(loss.grad));
            return loss.value;
        });
}

std::vector<std::vector<Detection>> GridDetector::detect(
    const Tensor& images) {
    return detect_with(*net_, images);
}

std::vector<std::vector<Detection>> GridDetector::detect_with(
    nn::Module& net, const Tensor& images) const {
    const bool was_training = net.training();
    net.set_training(false);
    const Tensor out = net.forward(images);
    net.set_training(was_training);

    const std::size_t n = images.dim(0);
    const std::size_t g = config_.grid;
    const double cell =
        static_cast<double>(config_.image_size) / static_cast<double>(g);
    std::vector<std::vector<Detection>> result(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<Detection> raw;
        for (std::size_t gy = 0; gy < g; ++gy) {
            for (std::size_t gx = 0; gx < g; ++gx) {
                const double conf = out(i, 0, gy, gx);
                if (conf < config_.confidence_threshold) continue;
                const double cx =
                    (static_cast<double>(gx) + out(i, 1, gy, gx)) * cell;
                const double cy =
                    (static_cast<double>(gy) + out(i, 2, gy, gx)) * cell;
                const double w = out(i, 3, gy, gx) *
                                 static_cast<double>(config_.image_size);
                const double h = out(i, 4, gy, gx) *
                                 static_cast<double>(config_.image_size);
                Detection det;
                det.score = conf;
                det.box = Box{cx - w / 2.0, cy - h / 2.0, cx + w / 2.0,
                              cy + h / 2.0};
                if (det.box.valid()) raw.push_back(det);
            }
        }
        result[i] = nms(std::move(raw), config_.nms_iou);
    }
    return result;
}

double GridDetector::evaluate_map(
    const Tensor& images,
    const std::vector<std::vector<Box>>& boxes_per_image) {
    return evaluate_map_with(*net_, images, boxes_per_image);
}

double GridDetector::evaluate_map_with(
    nn::Module& net, const Tensor& images,
    const std::vector<std::vector<Box>>& boxes_per_image) const {
    return average_precision(detect_with(net, images), boxes_per_image, 0.5);
}

}  // namespace bayesft::detect
