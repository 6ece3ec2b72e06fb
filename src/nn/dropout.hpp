#pragma once
// Dropout layers — the architectural component BayesFT searches over.
//
// The key property used by the search (Sec. III-B) is that the dropout rate
// is a *runtime-adjustable* knob: `set_rate` lets the BayesFT loop install a
// candidate alpha vector into a model without rebuilding it.

#include "nn/module.hpp"
#include "utils/rng.hpp"

namespace bayesft::nn {

/// Standard (inverted) dropout: during training each element is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate) so that the
/// expected activation is unchanged.  Identity in eval mode and at rate 0,
/// where forward and backward return their argument; otherwise both mask
/// their argument in place.
class Dropout : public Module {
public:
    /// `seed` makes mask sampling reproducible per layer.
    explicit Dropout(double rate, std::uint64_t seed = 0x5EEDULL);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    double rate() const { return rate_; }
    /// Sets the drop probability; throws std::invalid_argument outside [0,1).
    void set_rate(double rate);

    /// Mask-generator state, persisted by search checkpoints so a resumed
    /// run replays the exact mask stream an uninterrupted run would draw.
    RngState mask_rng_state() const { return rng_.state(); }
    void set_mask_rng_state(const RngState& state) { rng_.set_state(state); }

private:
    double rate_;
    Rng rng_;
    Tensor mask_;  // scaled keep mask from the last training forward
};

/// Alpha dropout [Klambauer et al. 2017]: dropped units are set to the
/// SELU saturation value alpha' and the output is affinely rescaled to keep
/// zero mean / unit variance.  The paper's Fig. 2(a) compares it to plain
/// dropout and finds no significant benefit.
class AlphaDropout : public Module {
public:
    explicit AlphaDropout(double rate, std::uint64_t seed = 0xA1FAULL);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    double rate() const { return rate_; }
    void set_rate(double rate);

    /// Mask-generator state (see Dropout::mask_rng_state).
    RngState mask_rng_state() const { return rng_.state(); }
    void set_mask_rng_state(const RngState& state) { rng_.set_state(state); }

private:
    double rate_;
    Rng rng_;
    Tensor mask_;  // 1 for kept positions, 0 for dropped
    float scale_a_ = 1.0F;
};

/// All standard Dropout layers reachable from `root`, in deterministic DFS
/// pre-order (container child order).  Because clone() preserves structure,
/// the n-th dropout of a module equals the n-th dropout of its clone — the
/// basis for re-locating searchable sites inside model replicas.
std::vector<Dropout*> collect_dropout_layers(Module& root);

}  // namespace bayesft::nn
