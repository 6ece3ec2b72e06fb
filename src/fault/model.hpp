#pragma once
// The pluggable FaultModel interface — the root of the fault-model zoo.
//
// The paper evaluates robustness only under memristance drift (Eq. 1), but
// real memristor/FPGA deployments also suffer stuck-at cells, SEU bit
// flips, device-to-device programming variation, and quantization error.
// Every such hardware imperfection is modeled here as an in-place
// perturbation of a flat weight buffer; the Monte-Carlo evaluator, the
// drift-marginalized objective, and the batched candidate engine only ever
// see this interface, so new fault families plug in without touching the
// search pipeline.  `fault/drift.hpp` holds the drift-flavored models,
// `fault/zoo.hpp` the hard-fault / variation / quantization models.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "utils/rng.hpp"

namespace bayesft::fault {

/// A stochastic (or deterministic) perturbation applied in place to a flat
/// weight buffer.
///
/// Determinism contract (relied on by the parallel Monte-Carlo evaluator
/// and the batched EvaluationEngine):
///  - `perturb` must be a pure function of (input weights, RNG draws,
///    constructor parameters).  Implementations must not keep hidden
///    mutable state (statics, caches, counters): a `clone()` fed the same
///    weights and the same forked RNG stream must produce bit-identical
///    output.  `verify_stateless` checks exactly this and is asserted in
///    debug builds on every Monte-Carlo evaluation.
///  - All randomness comes from the `Rng&` argument; `perturb` is safe to
///    call concurrently as long as each thread owns its weights and Rng.
///  - Draw-stream layout: the stochastic models consume randomness through
///    the SIMD kernel layer's 16-lane scheme (simd::kLanes) — one split()
///    of the caller's Rng seeds 16 forked lane streams, and weight i draws
///    from lane i % 16.  The number of draws per weight is fixed by the
///    model's parameters, never by the data: 1 round per 16 weights for the
///    single-draw models, 2 for StuckAt (faulted?, sa1? — always both), 2
///    per 32 weights for the Box-Muller normal/lognormal models, `bits`
///    rounds per 16 weights for BitFlip.  This data-independence plus the
///    per-lane ordering is what keeps results bit-identical across SIMD
///    dispatch tiers (scalar/AVX2/AVX-512/NEON) and thread counts.  The
///    identity early-outs (p == 0, sigma == 0, empty span) consume no
///    draws on every tier.
/// Thread safety: const member functions are safe to call from multiple
/// threads simultaneously (the object carries only immutable parameters).
class FaultModel {
public:
    virtual ~FaultModel() = default;
    FaultModel() = default;
    FaultModel(const FaultModel&) = default;
    FaultModel& operator=(const FaultModel&) = delete;

    /// Perturbs `weights` in place using randomness from `rng` only.
    virtual void perturb(std::span<float> weights, Rng& rng) const = 0;

    /// Deep copy.  Required so per-thread / per-candidate replicas can
    /// carry their own handle; must copy every parameter.
    virtual std::unique_ptr<FaultModel> clone() const = 0;

    /// Human-readable description, e.g. "LogNormal(sigma=0.3)".
    virtual std::string describe() const = 0;

    /// The model's numeric parameters in a stable order (used to digest
    /// fault configurations into engine cache / RNG context keys).
    virtual std::vector<double> params() const = 0;
};

/// Composition: applies each child model in sequence on the same buffer and
/// the same RNG stream (e.g. quantize -> variation -> drift, matching a
/// real memristor deployment pipeline).  Order matters; see
/// docs/fault-models.md.
class ComposedFault final : public FaultModel {
public:
    /// Takes ownership of `stages`; throws std::invalid_argument on a null
    /// stage.  An empty chain is the identity perturbation.
    explicit ComposedFault(std::vector<std::unique_ptr<FaultModel>> stages);

    void perturb(std::span<float> weights, Rng& rng) const override;
    std::unique_ptr<FaultModel> clone() const override;
    std::string describe() const override;
    /// Concatenation of the stages' parameter vectors (stage order).
    std::vector<double> params() const override;

    std::size_t stage_count() const { return stages_.size(); }

private:
    std::vector<std::unique_ptr<FaultModel>> stages_;
};

/// Checks the no-hidden-state contract: two sequential `perturb` calls — on
/// the original and on a fresh clone, each over an identical buffer with an
/// identically forked RNG — must produce bit-identical tensors.  A model
/// with a hidden static / mutable counter fails the second call.  Cheap
/// (one small synthetic buffer); asserted in debug builds by the
/// Monte-Carlo evaluator and directly testable in release builds.
bool verify_stateless(const FaultModel& model);

namespace detail {
/// Throws std::invalid_argument unless v >= 0.
void check_nonneg(double v, const char* who);
/// Throws std::invalid_argument unless p is in [0, 1].
void check_probability(double p, const char* who);
}  // namespace detail

}  // namespace bayesft::fault
