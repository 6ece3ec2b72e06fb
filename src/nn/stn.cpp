#include "nn/stn.hpp"

#include <cmath>
#include <stdexcept>

namespace bayesft::nn {

namespace {

void require_theta(const Tensor& theta, std::size_t n) {
    if (theta.rank() != 2 || theta.dim(0) != n || theta.dim(1) != 6) {
        throw std::invalid_argument("STN: theta must be [N, 6], got " +
                                    shape_to_string(theta.shape()));
    }
}

struct SamplePoint {
    float ix = 0.0F;  // continuous input x coordinate (pixels)
    float iy = 0.0F;
};

// Normalized output coordinate -> continuous input pixel coordinate under
// theta.  Align-corners convention: -1 maps to pixel 0, +1 to pixel extent-1.
SamplePoint sample_point(const float* theta, std::size_t ox, std::size_t oy,
                         std::size_t w, std::size_t h) {
    const float xn =
        w > 1 ? 2.0F * static_cast<float>(ox) / static_cast<float>(w - 1) -
                    1.0F
              : 0.0F;
    const float yn =
        h > 1 ? 2.0F * static_cast<float>(oy) / static_cast<float>(h - 1) -
                    1.0F
              : 0.0F;
    const float xs = theta[0] * xn + theta[1] * yn + theta[2];
    const float ys = theta[3] * xn + theta[4] * yn + theta[5];
    SamplePoint p;
    p.ix = (xs + 1.0F) * 0.5F * static_cast<float>(w - 1);
    p.iy = (ys + 1.0F) * 0.5F * static_cast<float>(h - 1);
    return p;
}

float pixel_or_zero(const float* plane, std::ptrdiff_t y, std::ptrdiff_t x,
                    std::size_t h, std::size_t w) {
    if (y < 0 || x < 0 || y >= static_cast<std::ptrdiff_t>(h) ||
        x >= static_cast<std::ptrdiff_t>(w)) {
        return 0.0F;
    }
    return plane[static_cast<std::size_t>(y) * w +
                 static_cast<std::size_t>(x)];
}

}  // namespace

Tensor affine_grid_sample(const Tensor& input, const Tensor& theta) {
    if (input.rank() != 4) {
        throw std::invalid_argument("affine_grid_sample: input must be NCHW");
    }
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    require_theta(theta, n);

    Tensor output(input.shape(), for_overwrite);
    for (std::size_t s = 0; s < n; ++s) {
        const float* t = theta.data() + s * 6;
        for (std::size_t oy = 0; oy < h; ++oy) {
            for (std::size_t ox = 0; ox < w; ++ox) {
                const SamplePoint p = sample_point(t, ox, oy, w, h);
                const auto x0 =
                    static_cast<std::ptrdiff_t>(std::floor(p.ix));
                const auto y0 =
                    static_cast<std::ptrdiff_t>(std::floor(p.iy));
                const float wx = p.ix - static_cast<float>(x0);
                const float wy = p.iy - static_cast<float>(y0);
                for (std::size_t ch = 0; ch < c; ++ch) {
                    const float* plane = input.data() + (s * c + ch) * h * w;
                    const float v00 = pixel_or_zero(plane, y0, x0, h, w);
                    const float v01 = pixel_or_zero(plane, y0, x0 + 1, h, w);
                    const float v10 = pixel_or_zero(plane, y0 + 1, x0, h, w);
                    const float v11 =
                        pixel_or_zero(plane, y0 + 1, x0 + 1, h, w);
                    output(s, ch, oy, ox) =
                        (1.0F - wy) * ((1.0F - wx) * v00 + wx * v01) +
                        wy * ((1.0F - wx) * v10 + wx * v11);
                }
            }
        }
    }
    return output;
}

GridSampleGrads affine_grid_sample_backward(const Tensor& input,
                                            const Tensor& theta,
                                            const Tensor& grad_output) {
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    require_theta(theta, n);
    if (grad_output.shape() != input.shape()) {
        throw std::invalid_argument(
            "affine_grid_sample_backward: grad shape mismatch");
    }

    GridSampleGrads grads{Tensor(input.shape()), Tensor({n, 6})};
    auto scatter = [&](std::size_t s, std::size_t ch, std::ptrdiff_t y,
                       std::ptrdiff_t x, float value) {
        if (y < 0 || x < 0 || y >= static_cast<std::ptrdiff_t>(h) ||
            x >= static_cast<std::ptrdiff_t>(w)) {
            return;
        }
        grads.grad_input(s, ch, static_cast<std::size_t>(y),
                         static_cast<std::size_t>(x)) += value;
    };

    for (std::size_t s = 0; s < n; ++s) {
        const float* t = theta.data() + s * 6;
        float* dt = grads.grad_theta.data() + s * 6;
        for (std::size_t oy = 0; oy < h; ++oy) {
            for (std::size_t ox = 0; ox < w; ++ox) {
                const SamplePoint p = sample_point(t, ox, oy, w, h);
                const auto x0 =
                    static_cast<std::ptrdiff_t>(std::floor(p.ix));
                const auto y0 =
                    static_cast<std::ptrdiff_t>(std::floor(p.iy));
                const float wx = p.ix - static_cast<float>(x0);
                const float wy = p.iy - static_cast<float>(y0);
                float d_ix = 0.0F;  // sum over channels of dy * dout/dix
                float d_iy = 0.0F;
                for (std::size_t ch = 0; ch < c; ++ch) {
                    const float g = grad_output(s, ch, oy, ox);
                    // Input gradient: bilinear weights scatter.
                    scatter(s, ch, y0, x0, g * (1.0F - wy) * (1.0F - wx));
                    scatter(s, ch, y0, x0 + 1, g * (1.0F - wy) * wx);
                    scatter(s, ch, y0 + 1, x0, g * wy * (1.0F - wx));
                    scatter(s, ch, y0 + 1, x0 + 1, g * wy * wx);
                    // Coordinate gradient via the bilinear surface slopes.
                    const float* plane = input.data() + (s * c + ch) * h * w;
                    const float v00 = pixel_or_zero(plane, y0, x0, h, w);
                    const float v01 = pixel_or_zero(plane, y0, x0 + 1, h, w);
                    const float v10 = pixel_or_zero(plane, y0 + 1, x0, h, w);
                    const float v11 =
                        pixel_or_zero(plane, y0 + 1, x0 + 1, h, w);
                    d_ix += g * ((1.0F - wy) * (v01 - v00) +
                                 wy * (v11 - v10));
                    d_iy += g * ((1.0F - wx) * (v10 - v00) +
                                 wx * (v11 - v01));
                }
                // Chain through pixel<->normalized coordinate scaling and
                // the affine map xs = t0*xn + t1*yn + t2, ys = t3..t5.
                const float d_xs = d_ix * 0.5F * static_cast<float>(w - 1);
                const float d_ys = d_iy * 0.5F * static_cast<float>(h - 1);
                const float xn =
                    w > 1 ? 2.0F * static_cast<float>(ox) /
                                    static_cast<float>(w - 1) -
                                1.0F
                          : 0.0F;
                const float yn =
                    h > 1 ? 2.0F * static_cast<float>(oy) /
                                    static_cast<float>(h - 1) -
                                1.0F
                          : 0.0F;
                dt[0] += d_xs * xn;
                dt[1] += d_xs * yn;
                dt[2] += d_xs;
                dt[3] += d_ys * xn;
                dt[4] += d_ys * yn;
                dt[5] += d_ys;
            }
        }
    }
    return grads;
}

SpatialTransformer::SpatialTransformer(
    std::unique_ptr<Module> localization_net)
    : loc_net_(std::move(localization_net)) {
    if (!loc_net_) {
        throw std::invalid_argument("SpatialTransformer: null localization net");
    }
}

Tensor SpatialTransformer::forward(Tensor input) {
    cached_input_ = std::move(input);
    cached_theta_ = loc_net_->forward(cached_input_);
    return affine_grid_sample(cached_input_, cached_theta_);
}

Tensor SpatialTransformer::backward(Tensor grad_output) {
    GridSampleGrads grads = affine_grid_sample_backward(
        cached_input_, cached_theta_, grad_output);
    Tensor grad_via_loc = loc_net_->backward(std::move(grads.grad_theta));
    return grads.grad_input.add_(grad_via_loc);
}

void SpatialTransformer::collect_children(std::vector<Module*>& out) {
    out.push_back(loc_net_.get());
}

std::unique_ptr<Module> SpatialTransformer::clone() const {
    std::unique_ptr<Module> loc_copy = loc_net_->clone();
    if (!loc_copy) return nullptr;
    auto copy = std::make_unique<SpatialTransformer>(std::move(loc_copy));
    copy->training_ = training_;
    return copy;
}

}  // namespace bayesft::nn
