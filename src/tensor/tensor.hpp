#pragma once
// Dense row-major float tensor.  This is the numeric substrate for the whole
// neural-network stack: activations, weights, gradients, and images are all
// `Tensor`s.  Shapes follow the PyTorch convention the paper uses:
// images are [N, C, H, W], fully-connected activations are [N, F].

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "utils/rng.hpp"

namespace bayesft {

/// Tag selecting Tensor's for-overwrite constructor (named after C++20's
/// std::make_unique_for_overwrite): the elements start unwritten.
struct ForOverwrite {
    explicit ForOverwrite() = default;
};
inline constexpr ForOverwrite for_overwrite{};

/// Bits every element of a for-overwrite tensor starts with in
/// AddressSanitizer builds (kPoisonForOverwrite): a quiet NaN with a
/// recognizable payload, so an element a kernel forgets to write shows up
/// in bitwise tests instead of reading whatever the allocator handed back.
/// Other builds leave the elements unwritten.
inline constexpr std::uint32_t kForOverwritePoisonBits = 0x7FC0DEADU;
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPoisonForOverwrite = true;
#else
inline constexpr bool kPoisonForOverwrite = false;
#endif

namespace detail {

/// std::allocator whose value-less construct() default-initializes, so a
/// vector sized through it leaves its floats unwritten; construct() with a
/// value (fill, copy) writes as usual.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <class U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <class U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

}  // namespace detail

/// N-dimensional row-major float tensor with value semantics.
///
/// The class deliberately stays small: storage + shape + elementwise math.
/// Structured operations (matmul, im2col, reductions over axes) live in
/// tensor/ops.hpp as free functions, per C++ Core Guidelines C.4.
class Tensor {
public:
    /// Empty tensor (rank 0, no elements).
    Tensor() = default;

    /// Tensor of the given shape, filled with `fill`.
    explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0F);

    /// Tensor of the given shape whose elements start unwritten (poisoned
    /// with kForOverwritePoisonBits under AddressSanitizer).  Only for
    /// buffers the caller writes in full before anything reads them: it
    /// skips the zero fill, a full pass over memory the caller is about to
    /// overwrite anyway.
    Tensor(std::vector<std::size_t> shape, ForOverwrite);

    /// Tensor of the given shape adopting `values` (size must match).
    Tensor(std::vector<std::size_t> shape, std::vector<float> values);

    // -- Factories ---------------------------------------------------------

    static Tensor zeros(std::vector<std::size_t> shape);
    static Tensor ones(std::vector<std::size_t> shape);
    static Tensor full(std::vector<std::size_t> shape, float value);
    /// I.i.d. N(0, stddev^2) entries.
    static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                        float stddev = 1.0F);
    /// I.i.d. U[lo, hi) entries.
    static Tensor uniform(std::vector<std::size_t> shape, Rng& rng, float lo,
                          float hi);

    // -- Shape -------------------------------------------------------------

    const std::vector<std::size_t>& shape() const { return shape_; }
    std::size_t rank() const { return shape_.size(); }
    /// Extent of dimension `axis`; throws std::out_of_range if invalid.
    std::size_t dim(std::size_t axis) const;
    /// Total number of elements.
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /// In-place reshape (same element count; one extent may be 0 = infer).
    /// Throws std::invalid_argument, leaving the shape, on a mismatch.
    void reshape(std::vector<std::size_t> new_shape);

    // -- Element access ----------------------------------------------------

    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    float& at(std::size_t i);
    float at(std::size_t i) const;

    /// 2-d indexed access; bounds-checked in debug logic via flat_index.
    float& operator()(std::size_t i, std::size_t j);
    float operator()(std::size_t i, std::size_t j) const;
    float& operator()(std::size_t i, std::size_t j, std::size_t k);
    float operator()(std::size_t i, std::size_t j, std::size_t k) const;
    float& operator()(std::size_t i, std::size_t j, std::size_t k,
                      std::size_t l);
    float operator()(std::size_t i, std::size_t j, std::size_t k,
                     std::size_t l) const;

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }
    std::span<float> values() { return data_; }
    std::span<const float> values() const { return data_; }

    // -- Elementwise math (in place, returning *this for chaining) ---------

    Tensor& fill(float value);
    Tensor& add_(const Tensor& other);
    Tensor& sub_(const Tensor& other);
    Tensor& mul_(const Tensor& other);  ///< Hadamard product.
    Tensor& div_(const Tensor& other);
    Tensor& add_scalar_(float value);
    Tensor& mul_scalar_(float value);
    /// this += scale * other (axpy).
    Tensor& axpy_(float scale, const Tensor& other);
    Tensor& clamp_(float lo, float hi);

    // -- Elementwise math (value-returning) --------------------------------

    friend Tensor operator+(Tensor lhs, const Tensor& rhs);
    friend Tensor operator-(Tensor lhs, const Tensor& rhs);
    friend Tensor operator*(Tensor lhs, const Tensor& rhs);
    friend Tensor operator*(Tensor lhs, float rhs);
    friend Tensor operator*(float lhs, Tensor rhs);

    // -- Whole-tensor reductions -------------------------------------------

    float sum() const;
    float mean() const;
    float min() const;
    float max() const;
    /// Squared L2 norm of all entries.
    float squared_norm() const;

    /// True if shapes and all entries are exactly equal.
    bool equals(const Tensor& other) const;
    /// True if shapes equal and entries are within `tol` of each other.
    bool allclose(const Tensor& other, float tol = 1e-5F) const;

    /// "[2, 3] {1.0, 2.0, ...}" style description (truncated for big tensors).
    std::string to_string() const;

private:
    std::size_t flat_index(std::size_t i, std::size_t j) const;
    std::size_t flat_index(std::size_t i, std::size_t j, std::size_t k) const;
    std::size_t flat_index(std::size_t i, std::size_t j, std::size_t k,
                           std::size_t l) const;
    void check_same_shape(const Tensor& other, const char* op) const;

    std::vector<std::size_t> shape_;
    std::vector<float, detail::DefaultInitAllocator<float>> data_;
};

/// Number of elements implied by a shape (product of extents; 1 for rank 0).
std::size_t shape_size(const std::vector<std::size_t>& shape);

/// Human-readable "[2, 3, 4]" form.
std::string shape_to_string(const std::vector<std::size_t>& shape);

}  // namespace bayesft
