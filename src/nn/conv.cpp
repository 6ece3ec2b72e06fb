#include "nn/conv.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "nn/init.hpp"
#include "simd/kernels.hpp"
#include "utils/parallel.hpp"

namespace bayesft::nn {

namespace {

void require_nchw(const Tensor& t, const char* who) {
    if (t.rank() != 4) {
        throw std::invalid_argument(std::string(who) +
                                    ": expected [N, C, H, W], got " +
                                    shape_to_string(t.shape()));
    }
}

/// Samples per batched-GEMM group: bounds each scratch buffer near 32 MiB
/// so deep layers on large eval batches don't balloon resident memory.
std::size_t conv_group_size(std::size_t n, std::size_t patch,
                            std::size_t positions) {
    constexpr std::size_t kMaxScratchFloats = std::size_t{1} << 23;
    const std::size_t per_sample = patch * positions;
    if (per_sample == 0) return n;
    return std::min(n, std::max<std::size_t>(1, kMaxScratchFloats / per_sample));
}

template <typename T>
void ensure_size(std::vector<T>& buffer, std::size_t n) {
    if (buffer.size() < n) buffer.resize(n);
}

/// out[r] += float(sum of row r) for the `rows` rows of a block split
/// into `segments` segments `seg_stride` floats apart, each holding a
/// `len`-float piece of every row (row r's piece in segment s starts at
/// g + s * seg_stride + r * len).  Each sum is a double chain from +0 over
/// the row's pieces in segment order.  N rows at a time run side by side,
/// so their chains overlap; the remainder goes through N - 1.
template <std::size_t N = 4>
void add_row_sums(const float* g, std::size_t len, std::size_t segments,
                  std::size_t seg_stride, std::size_t rows, float* out) {
    for (; rows >= N; rows -= N, g += N * len, out += N) {
        double acc[N] = {};
        for (std::size_t s = 0; s < segments; ++s) {
            const float* seg = g + s * seg_stride;
            for (std::size_t p = 0; p < len; ++p) {
                for (std::size_t i = 0; i < N; ++i) acc[i] += seg[i * len + p];
            }
        }
        for (std::size_t i = 0; i < N; ++i) {
            out[i] += static_cast<float>(acc[i]);
        }
    }
    if constexpr (N > 1) {
        if (rows > 0) {
            add_row_sums<N - 1>(g, len, segments, seg_stride, rows, out);
        }
    }
}

/// An AvgPool2d window: its extents are template arguments when nonzero
/// (the 2x2, stride-2 window every zoo model pools with runs through loops
/// with compile-time bounds) and run-time values otherwise.
template <std::size_t K = 0, std::size_t S = 0>
struct PoolWindow {
    std::size_t kernel_rt = K;
    std::size_t stride_rt = S;
    std::size_t kernel() const { return K != 0 ? K : kernel_rt; }
    std::size_t stride() const { return S != 0 ? S : stride_rt; }
};

/// Averages N adjacent pooling windows (the first at `win`, the next
/// `stride` floats on) into out[0..N).  The N sums run side by side, so
/// their dependency chains overlap, but each keeps its own order: from +0,
/// rows top to bottom, left to right within a row.
template <std::size_t N, class Window>
void average_windows(const float* win, std::size_t w, Window pw, float inv,
                     float* out) {
    double acc[N] = {};
    for (std::size_t ky = 0; ky < pw.kernel(); ++ky) {
        const float* row = win + ky * w;
        for (std::size_t kx = 0; kx < pw.kernel(); ++kx) {
            for (std::size_t i = 0; i < N; ++i) {
                acc[i] += row[i * pw.stride() + kx];
            }
        }
    }
    for (std::size_t i = 0; i < N; ++i) {
        out[i] = static_cast<float>(acc[i]) * inv;
    }
}

/// AvgPool2d forward over `planes` [h, w] planes into [oh, ow] planes.
template <class Window>
void avg_pool_forward(const float* in, std::size_t planes, std::size_t h,
                      std::size_t w, std::size_t oh, std::size_t ow,
                      Window pw, float inv, float* out) {
    for (std::size_t p = 0; p < planes; ++p) {
        const float* plane = in + p * h * w;
        float* oplane = out + p * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            const float* win = plane + oy * pw.stride() * w;
            float* orow = oplane + oy * ow;
            std::size_t ox = 0;
            for (; ox + 4 <= ow; ox += 4) {
                average_windows<4>(win + ox * pw.stride(), w, pw, inv,
                                   orow + ox);
            }
            for (; ox < ow; ++ox) {
                average_windows<1>(win + ox * pw.stride(), w, pw, inv,
                                   orow + ox);
            }
        }
    }
}

/// AvgPool2d backward: adds each window's share of its output gradient to
/// the zero-filled input gradient.  Each input element takes its additions
/// in window (oy, ox) order, starting from +0: oy is the outer loop, and
/// within one output row an element lies in one window row ky and takes
/// the windows ox ascending.
template <class Window>
void avg_pool_backward(const float* gout, std::size_t planes, std::size_t h,
                       std::size_t w, std::size_t oh, std::size_t ow,
                       Window pw, float inv, float* grad) {
    for (std::size_t p = 0; p < planes; ++p) {
        float* plane = grad + p * h * w;
        const float* gplane = gout + p * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ky = 0; ky < pw.kernel(); ++ky) {
                float* row = plane + (oy * pw.stride() + ky) * w;
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const float g = gplane[oy * ow + ox] * inv;
                    float* win = row + ox * pw.stride();
                    for (std::size_t kx = 0; kx < pw.kernel(); ++kx) {
                        win[kx] += g;
                    }
                }
            }
        }
    }
}

/// AvgPool2d backward where windows do not overlap (kernel <= stride):
/// each input element lies in at most one window, so it takes its one
/// addition as 0.0F + g (the bits an addition onto a zero-filled gradient
/// gives) and is written once; elements in no window (the gaps between
/// windows, rows and columns past the last one) are written +0.  The
/// gradient buffer needs no zero fill.
template <class Window>
void avg_pool_backward_disjoint(const float* gout, std::size_t planes,
                                std::size_t h, std::size_t w, std::size_t oh,
                                std::size_t ow, Window pw, float inv,
                                float* grad) {
    const std::size_t k = pw.kernel(), s = pw.stride();
    const std::size_t covered_h = (oh - 1) * s + k;
    const std::size_t covered_w = (ow - 1) * s + k;
    const auto zero_rows = [w](float* rows, std::size_t n) {
        for (std::size_t i = 0; i < n * w; ++i) rows[i] = 0.0F;
    };
    for (std::size_t p = 0; p < planes; ++p) {
        float* plane = grad + p * h * w;
        const float* gplane = gout + p * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            float* top = plane + oy * s * w;
            const float* grow = gplane + oy * ow;
            for (std::size_t ox = 0; ox < ow; ++ox) {
                const float v = 0.0F + grow[ox] * inv;
                for (std::size_t ky = 0; ky < k; ++ky) {
                    float* win = top + ky * w + ox * s;
                    for (std::size_t kx = 0; kx < k; ++kx) win[kx] = v;
                    if (ox + 1 < ow) {
                        for (std::size_t kx = k; kx < s; ++kx) win[kx] = 0.0F;
                    }
                }
            }
            for (std::size_t ky = 0; ky < k; ++ky) {
                float* row = top + ky * w;
                for (std::size_t x = covered_w; x < w; ++x) row[x] = 0.0F;
            }
            if (oy + 1 < oh) zero_rows(top + k * w, s - k);
        }
        zero_rows(plane + covered_h * w, h - covered_h);
    }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("weight",
              he_normal({out_channels, in_channels * kernel * kernel},
                        in_channels * kernel * kernel, rng)),
      bias_("bias", Tensor::zeros({out_channels})) {
    if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
        throw std::invalid_argument("Conv2d: zero extent");
    }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
    ConvGeometry g;
    g.channels = in_channels_;
    g.in_h = input.dim(2);
    g.in_w = input.dim(3);
    g.kernel_h = kernel_;
    g.kernel_w = kernel_;
    g.stride = stride_;
    g.pad = pad_;
    g.validate();
    return g;
}

Tensor Conv2d::forward(Tensor input) {
    require_nchw(input, "Conv2d");
    if (input.dim(1) != in_channels_) {
        throw std::invalid_argument("Conv2d: channel mismatch, got " +
                                    shape_to_string(input.shape()));
    }
    cached_input_ = std::move(input);
    cols_hold_input_ = false;
    const Tensor& x = cached_input_;
    const ConvGeometry g = geometry_for(x);
    const std::size_t n = x.dim(0);
    const std::size_t oh = g.out_h(), ow = g.out_w();
    const std::size_t patch = in_channels_ * kernel_ * kernel_;
    const std::size_t positions = oh * ow;
    Tensor output({n, out_channels_, oh, ow}, for_overwrite);

    // Fixed point: dynamic per-tensor symmetric scales over W and the
    // whole input batch (the weight grid is exactly QuantizationFault's).
    const auto& kt = simd::kernels();
    const int bits = inference_bits(mode_);
    float s_x = 0.0F, scale = 0.0F;
    if (bits != 0) {
        const float qmax =
            static_cast<float>((std::int32_t{1} << (bits - 1)) - 1);
        const float s_w =
            kt.max_abs(weight_.value.data(), weight_.value.size()) / qmax;
        s_x = kt.max_abs(x.data(), x.size()) / qmax;
        if (s_w == 0.0F || s_x == 0.0F) {
            // An all-zero operand quantizes to all-zero codes: y = b.
            for (std::size_t i = 0; i < n * out_channels_; ++i) {
                std::fill_n(output.data() + i * positions, positions,
                            bias_.value[i % out_channels_]);
            }
            return output;
        }
        ensure_size(weight_codes_, weight_.value.size());
        kt.quantize_codes(weight_.value.data(), weight_codes_.data(),
                          weight_.value.size(), bits, s_w);
        scale = s_w * s_x;
    }

    const std::size_t image_stride = in_channels_ * g.in_h * g.in_w;
    const std::size_t group = conv_group_size(n, patch, positions);
    ensure_size(cols_scratch_, patch * group * positions);
    // In fixed point gemm_scratch_ first takes the unfold's transposed
    // copy [gs*positions, patch], dead once quantized, then the product.
    ensure_size(gemm_scratch_,
                (bits != 0 ? std::max(patch, out_channels_) : out_channels_) *
                    group * positions);
    if (bits != 0) ensure_size(colsT_codes_, group * positions * patch);
    for (std::size_t g0 = 0; g0 < n; g0 += group) {
        const std::size_t gs = std::min(group, n - g0);
        const std::size_t gp = gs * positions;
        // Unfold the whole group into one [patch, gs*positions] matrix;
        // sample s owns the column slice starting at s*positions.
        parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                im2col(x.data() + (g0 + s) * image_stride, g,
                       cols_scratch_.data() + s * positions, gp);
            }
        });
        if (bits == 0) {
            // One large GEMM for the group: [OC, patch] @ [patch, gp].
            gemm_overwrite(weight_.value.data(), cols_scratch_.data(),
                           gemm_scratch_.data(), out_channels_, patch, gp);
        } else {
            // qgemm_nt wants the patches contiguous: transpose, then
            // quantize at the image's scale.  Quantizing is elementwise and
            // the padding's +0 is code 0, so these are the unfolded codes
            // of the quantized image.  The product is integer arithmetic
            // with one float rounding per output element.
            transpose_into(cols_scratch_.data(), patch, gp,
                           gemm_scratch_.data());
            kt.quantize_codes(gemm_scratch_.data(), colsT_codes_.data(),
                              gp * patch, bits, s_x);
            kt.qgemm_nt(weight_codes_.data(), colsT_codes_.data(),
                        gemm_scratch_.data(), out_channels_, patch, gp,
                        scale);
        }
        // Scatter back to [N, OC, positions] layout, adding the bias.
        parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                for (std::size_t oc = 0; oc < out_channels_; ++oc) {
                    float* dst = output.data() +
                                 ((g0 + s) * out_channels_ + oc) * positions;
                    const float* src =
                        gemm_scratch_.data() + oc * gp + s * positions;
                    const float b = bias_.value[oc];
                    for (std::size_t p = 0; p < positions; ++p) {
                        dst[p] = src[p] + b;
                    }
                }
            }
        });
    }
    cols_hold_input_ = group == n;
    return output;
}

Tensor Conv2d::backward(Tensor grad_output) {
    Tensor grad_input(cached_input_.shape());
    backward_into(grad_output, &grad_input);
    return grad_input;
}

void Conv2d::backward_params(Tensor grad_output) {
    backward_into(grad_output, nullptr);
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor* grad_input) {
    require_nchw(grad_output, "Conv2d::backward");
    const ConvGeometry g = geometry_for(cached_input_);
    const std::size_t n = cached_input_.dim(0);
    const std::size_t oh = g.out_h(), ow = g.out_w();
    const std::size_t positions = oh * ow;
    const std::size_t patch = in_channels_ * kernel_ * kernel_;
    if (grad_output.dim(0) != n || grad_output.dim(1) != out_channels_ ||
        grad_output.dim(2) != oh || grad_output.dim(3) != ow) {
        throw std::invalid_argument("Conv2d::backward: bad grad shape " +
                                    shape_to_string(grad_output.shape()));
    }

    const std::size_t image_stride = in_channels_ * g.in_h * g.in_w;
    const std::size_t sample_grad = out_channels_ * positions;
    const std::size_t group = conv_group_size(n, patch, positions);
    ensure_size(cols_scratch_, patch * group * positions);
    ensure_size(grad_t_scratch_, group * positions * out_channels_);
    // dW^T [patch, OC]: the dW GEMM below accumulates into it, and it goes
    // back into weight_.grad after the last group.
    ensure_size(weight_grad_t_, patch * out_channels_);
    transpose_into(weight_.grad.data(), out_channels_, patch,
                   weight_grad_t_.data());
    // W^T once per call: the dcols GEMM streams contiguous rows of it.
    Tensor wt;
    if (grad_input != nullptr) {
        ensure_size(grad_scratch_, out_channels_ * group * positions);
        wt = Tensor({patch, out_channels_}, for_overwrite);
        transpose_into(weight_.value.data(), out_channels_, patch, wt.data());
    }
    for (std::size_t g0 = 0; g0 < n; g0 += group) {
        const std::size_t gs = std::min(group, n - g0);
        const std::size_t gp = gs * positions;
        const float* gout = grad_output.data() + g0 * sample_grad;
        // Unfold the input again unless the forward left this group's
        // unfold in place (the whole batch as one group).
        if (!cols_hold_input_) {
            parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t s = lo; s < hi; ++s) {
                    im2col(cached_input_.data() + (g0 + s) * image_stride, g,
                           cols_scratch_.data() + s * positions, gp);
                }
            });
        }
        // G^T: grad_output's [OC, positions] blocks transposed into one
        // [gs*positions, OC] slab, sample s at row s*positions.
        parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                transpose_into(gout + s * sample_grad, out_channels_,
                               positions,
                               grad_t_scratch_.data() +
                                   s * positions * out_channels_);
            }
        });
        // dW^T += cols @ G^T as one batched GEMM over the group.  Element
        // (p, oc) runs the fma chain of dW's (oc, p) in G @ cols^T, with
        // the two factors of each fma swapped: the same bits, without a
        // transposed copy of the unfold.
        gemm_accumulate(cols_scratch_.data(), grad_t_scratch_.data(),
                        weight_grad_t_.data(), patch, gp, out_channels_);
        // db += row sums of G, read in place from grad_output.
        add_row_sums(gout, positions, gs, sample_grad, out_channels_,
                     bias_.grad.data());
        if (grad_input == nullptr) continue;
        // Gather grad_output [N, OC, positions] into one [OC, gs*positions]
        // slab matching the cols layout.
        parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                for (std::size_t oc = 0; oc < out_channels_; ++oc) {
                    std::copy_n(gout + s * sample_grad + oc * positions,
                                positions,
                                grad_scratch_.data() + oc * gp +
                                    s * positions);
                }
            }
        });
        // dcols = W^T @ G, folded back into the input gradient.  The cols
        // buffer is dead after the dW product, so reuse it for dcols.
        cols_hold_input_ = false;
        gemm_overwrite(wt.data(), grad_scratch_.data(), cols_scratch_.data(),
                       patch, out_channels_, gp);
        parallel_for(0, gs, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                col2im(cols_scratch_.data() + s * positions, g,
                       grad_input->data() + (g0 + s) * image_stride, gp);
            }
        });
    }
    transpose_into(weight_grad_t_.data(), patch, out_channels_,
                   weight_.grad.data());
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
    out.push_back(&weight_);
    out.push_back(&bias_);
}

Conv2d::Conv2d(const Conv2d& other, CloneTag)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      stride_(other.stride_),
      pad_(other.pad_),
      weight_(other.weight_),
      bias_(other.bias_),
      mode_(other.mode_) {
    training_ = other.training_;
}

std::unique_ptr<Module> Conv2d::clone() const {
    return std::unique_ptr<Module>(new Conv2d(*this, CloneTag{}));
}

std::string Conv2d::name() const {
    std::ostringstream os;
    os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ", k"
       << kernel_ << ", s" << stride_ << ", p" << pad_ << ")";
    return os.str();
}

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
    if (kernel == 0) throw std::invalid_argument("MaxPool2d: zero kernel");
}

Tensor MaxPool2d::forward(Tensor input) {
    require_nchw(input, "MaxPool2d");
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    if (h < kernel_ || w < kernel_) {
        throw std::invalid_argument("MaxPool2d: input smaller than window");
    }
    const std::size_t oh = (h - kernel_) / stride_ + 1;
    const std::size_t ow = (w - kernel_) / stride_ + 1;
    input_shape_ = input.shape();
    Tensor output({n, c, oh, ow}, for_overwrite);
    argmax_.assign(output.size(), 0);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float* plane = input.data() + (s * c + ch) * h * w;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::size_t best_idx = 0;
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            const std::size_t iy = oy * stride_ + ky;
                            const std::size_t ix = ox * stride_ + kx;
                            const float v = plane[iy * w + ix];
                            if (v > best) {
                                best = v;
                                best_idx = iy * w + ix;
                            }
                        }
                    }
                    const std::size_t out_idx =
                        ((s * c + ch) * oh + oy) * ow + ox;
                    output[out_idx] = best;
                    argmax_[out_idx] = (s * c + ch) * h * w + best_idx;
                }
            }
        }
    }
    return output;
}

Tensor MaxPool2d::backward(Tensor grad_output) {
    if (grad_output.size() != argmax_.size()) {
        throw std::invalid_argument("MaxPool2d::backward: bad grad size");
    }
    Tensor grad_input(input_shape_);
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
        grad_input[argmax_[i]] += grad_output[i];
    }
    return grad_input;
}

std::unique_ptr<Module> MaxPool2d::clone() const {
    auto copy = std::make_unique<MaxPool2d>(kernel_, stride_);
    copy->training_ = training_;
    return copy;
}

std::string MaxPool2d::name() const {
    std::ostringstream os;
    os << "MaxPool2d(k" << kernel_ << ", s" << stride_ << ")";
    return os.str();
}

Tensor GlobalAvgPool::forward(Tensor input) {
    require_nchw(input, "GlobalAvgPool");
    input_shape_ = input.shape();
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t spatial = input.dim(2) * input.dim(3);
    Tensor output({n, c}, for_overwrite);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float* plane = input.data() + (s * c + ch) * spatial;
            double acc = 0.0;
            for (std::size_t p = 0; p < spatial; ++p) acc += plane[p];
            output(s, ch) = static_cast<float>(acc / spatial);
        }
    }
    return output;
}

Tensor GlobalAvgPool::backward(Tensor grad_output) {
    const std::size_t n = input_shape_[0], c = input_shape_[1];
    const std::size_t spatial = input_shape_[2] * input_shape_[3];
    if (grad_output.rank() != 2 || grad_output.dim(0) != n ||
        grad_output.dim(1) != c) {
        throw std::invalid_argument("GlobalAvgPool::backward: bad grad shape");
    }
    Tensor grad_input(input_shape_, for_overwrite);
    const float inv = 1.0F / static_cast<float>(spatial);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float g = grad_output(s, ch) * inv;
            float* plane = grad_input.data() + (s * c + ch) * spatial;
            for (std::size_t p = 0; p < spatial; ++p) plane[p] = g;
        }
    }
    return grad_input;
}

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
    if (kernel == 0) throw std::invalid_argument("AvgPool2d: zero kernel");
}

Tensor AvgPool2d::forward(Tensor input) {
    require_nchw(input, "AvgPool2d");
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    if (h < kernel_ || w < kernel_) {
        throw std::invalid_argument("AvgPool2d: input smaller than window");
    }
    const std::size_t oh = (h - kernel_) / stride_ + 1;
    const std::size_t ow = (w - kernel_) / stride_ + 1;
    input_shape_ = input.shape();
    Tensor output({n, c, oh, ow}, for_overwrite);
    const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
    if (kernel_ == 2 && stride_ == 2) {
        avg_pool_forward(input.data(), n * c, h, w, oh, ow, PoolWindow<2, 2>{},
                         inv, output.data());
    } else {
        avg_pool_forward(input.data(), n * c, h, w, oh, ow,
                         PoolWindow<>{kernel_, stride_}, inv, output.data());
    }
    return output;
}

Tensor AvgPool2d::backward(Tensor grad_output) {
    const std::size_t n = input_shape_[0], c = input_shape_[1];
    const std::size_t h = input_shape_[2], w = input_shape_[3];
    const std::size_t oh = (h - kernel_) / stride_ + 1;
    const std::size_t ow = (w - kernel_) / stride_ + 1;
    if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
        grad_output.dim(1) != c || grad_output.dim(2) != oh ||
        grad_output.dim(3) != ow) {
        throw std::invalid_argument("AvgPool2d::backward: bad grad shape");
    }
    const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
    if (kernel_ == 2 && stride_ == 2) {
        Tensor grad_input(input_shape_, for_overwrite);
        avg_pool_backward_disjoint(grad_output.data(), n * c, h, w, oh, ow,
                                   PoolWindow<2, 2>{}, inv,
                                   grad_input.data());
        return grad_input;
    }
    if (kernel_ <= stride_) {
        Tensor grad_input(input_shape_, for_overwrite);
        avg_pool_backward_disjoint(grad_output.data(), n * c, h, w, oh, ow,
                                   PoolWindow<>{kernel_, stride_}, inv,
                                   grad_input.data());
        return grad_input;
    }
    Tensor grad_input(input_shape_);
    avg_pool_backward(grad_output.data(), n * c, h, w, oh, ow,
                      PoolWindow<>{kernel_, stride_}, inv, grad_input.data());
    return grad_input;
}

std::unique_ptr<Module> AvgPool2d::clone() const {
    auto copy = std::make_unique<AvgPool2d>(kernel_, stride_);
    copy->training_ = training_;
    return copy;
}

std::string AvgPool2d::name() const {
    std::ostringstream os;
    os << "AvgPool2d(k" << kernel_ << ", s" << stride_ << ")";
    return os.str();
}

}  // namespace bayesft::nn
