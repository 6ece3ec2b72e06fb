#pragma once
// Versioned checkpoint/resume for the Bayesian-optimization searches
// (docs/checkpointing.md).  A SearchCheckpoint is the complete state a
// search needs to continue bit-identically after a process death at a
// trial-group boundary:
//
//   - the BayesOpt canonical form (real trials, initial design + cursor,
//     proposal RNG) — Cholesky factors are recomputed, never stored;
//   - the caller-loop RNG (warmup/training/final-phase draws);
//   - the engine evaluation context (memo/RNG-derivation key + weight
//     stamp) and, for self-contained searches, the memo-cache entries;
//   - for evolving-theta searches (bayesft_search), the model parameters
//     and buffers as raw IEEE-754 bit patterns.
//
// Every floating-point value is persisted as its bit pattern (hex), so a
// save/load round trip is exact.  load_checkpoint validates the format
// version; the search drivers additionally validate the space and scenario
// digests, so a checkpoint can only resume the exact scenario that wrote
// it.  Files are written to "<path>.tmp", fsynced, and renamed into place
// (then the directory is fsynced), so neither a kill during save nor a
// power loss right after it can corrupt or roll back the checkpoint.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "nn/module.hpp"
#include "nn/trainer.hpp"
#include "utils/rng.hpp"

namespace bayesft::core {

/// Caller-side checkpoint knobs, embedded in BayesFTConfig and
/// ArchSearchConfig.
struct CheckpointOptions {
    /// Non-empty enables checkpointing: a snapshot is written (atomically)
    /// after every observed candidate group, and a search that finds a
    /// valid checkpoint at this path resumes from it instead of starting
    /// over.
    std::string path;
    /// Stop — with the boundary checkpoint already on disk — after this
    /// many newly observed trials in this invocation (rounded up to the
    /// next group boundary when batching).  0 runs to completion.  Used by
    /// the resume torture tests and the CI resume-smoke job to interrupt a
    /// search at an exact trial boundary without killing the process.
    std::size_t stop_after = 0;

    bool enabled() const { return !path.empty(); }
};

/// One serialized search snapshot.  See the header comment for semantics.
struct SearchCheckpoint {
    /// Format version written by this build.  v2 added the per-trial
    /// status record (docs/robustness.md) — quarantined trials must
    /// survive a resume, or a resumed run would feed a failure's penalty y
    /// to the GP as a real observation under FailPolicy::kExclude.  v3
    /// added the trust-region record (docs/optimizer-scaling.md); v2 files
    /// still load, with the trust region freshly initialized — exactly the
    /// state a v2 writer (which could not have had trust regions enabled)
    /// would resume into.  Anything else is rejected.
    static constexpr std::uint32_t kVersion = 3;
    /// Oldest format version load_checkpoint still accepts.
    static constexpr std::uint32_t kOldestReadableVersion = 2;

    std::string run_id;             ///< free-form label (scenario name)
    std::string build;              ///< git-describe stamp of the writer
    std::uint64_t space_digest = 0;     ///< ParamSpace::digest()
    std::uint64_t scenario_digest = 0;  ///< objective + loop-shape digest
    std::uint64_t context_key = 0;      ///< EvalContext::key (incl. nonce)
    std::uint64_t context_stamp = 0;    ///< EvalContext::stamp
    std::uint64_t trials_done = 0;      ///< observed trials so far
    RngState run_rng;                   ///< caller-loop generator
    bayesopt::BayesOptState bo;         ///< optimizer canonical form
    /// Memo-cache entries (encoded point -> utility) for self-contained
    /// searches; empty for evolving-theta searches whose stamp advances.
    std::vector<std::pair<std::vector<double>, double>> cache;
    /// Flattened model parameters + buffers (float bit patterns) for
    /// evolving-theta searches; empty when the search has no shared model.
    std::vector<std::uint32_t> model_bits;
    /// Internal mask-generator states of the model's dropout layers, in
    /// tree order: weights alone do not determine the continuation — the
    /// next training epoch's masks come from these streams.
    std::vector<RngState> model_rngs;
    /// Digest of the model's parameter names/shapes and buffer shapes;
    /// 0 when model_bits is empty.
    std::uint64_t model_digest = 0;
};

/// The `git describe --always --dirty` stamp baked in at configure time
/// ("unknown" outside a git checkout), recorded in checkpoints and every
/// run-store record so results can be traced back to the code that
/// produced them.
std::string build_stamp();

/// Writes `checkpoint` to `path` atomically (tmp file + rename).
/// Throws std::runtime_error on I/O failure.
void save_checkpoint(const SearchCheckpoint& checkpoint,
                     const std::string& path);

/// Reads a checkpoint written by save_checkpoint.  Throws
/// std::runtime_error on I/O failure, bad magic, version mismatch, or a
/// malformed/truncated file.
SearchCheckpoint load_checkpoint(const std::string& path);

/// Writes `model` to a model file at `path`, atomically like
/// save_checkpoint: a "bayesft-model 1" line, the checkpoint's model block
/// (model_structure_digest, snapshot_model() words, snapshot_model_rngs()
/// states), a check record over that block's words and states, and the
/// end marker (docs/checkpointing.md).  Throws std::runtime_error on I/O
/// failure.
void save_model(nn::Module& model, const std::string& path);

/// Restores a save_model() file into `model`.  Throws std::runtime_error
/// on I/O failure, on a malformed file (a checkpoint among them), or when
/// the file's structure digest is not the live model's; `model` is then
/// left as it was.
void load_model(nn::Module& model, const std::string& path);

/// True when a regular file exists at `path` (the resume trigger).
bool checkpoint_exists(const std::string& path);

/// fsyncs the file at `path` (no-op on platforms without fsync).  Throws
/// std::runtime_error when the file cannot be opened or synced.
void fsync_file(const std::string& path);

/// fsyncs the directory containing `path`, making a just-renamed or
/// just-created entry durable (no-op on platforms without directory
/// fsync).  Best-effort: failures are swallowed, since some filesystems
/// reject directory fsync while still ordering the rename correctly.
void fsync_parent_dir(const std::string& path);

/// Folds the inner-SGD settings into a scenario digest: resuming a
/// checkpoint under a different training recipe must be rejected.
std::uint64_t mix_train_config(std::uint64_t key,
                               const nn::TrainConfig& train);

/// Folds every proposal-affecting BayesOptConfig knob (initial design,
/// pool sizes, local-perturbation scale, GP noise, duplicate/separation
/// tolerances) into a scenario digest — any of them changes the proposal
/// stream, so a resume under a different value must be rejected.
std::uint64_t mix_bo_config(std::uint64_t key,
                            const bayesopt::BayesOptConfig& config);

/// Generation of the library's floating-point arithmetic.  Both search
/// drivers fold it into their scenario digest, so a checkpoint written
/// under other arithmetic (builds before generation 2 let the compiler
/// fuse multiply-adds wherever it chose) is refused instead of resumed
/// into different bits.  Bump it with any change that moves result bits.
inline constexpr std::uint64_t kNumericsGeneration = 2;

/// Folds an RNG state into a scenario digest.  The search drivers fold
/// their entry state: it is a pure function of the caller's seed (and
/// prior stream usage), so a checkpoint can only be resumed by a run with
/// the identical seed.
std::uint64_t mix_rng_state(std::uint64_t key, const RngState& state);

/// Throws std::runtime_error naming the mismatching digest when the
/// checkpoint was written by a different search space, scenario
/// configuration or numerics generation than the live one.
void validate_checkpoint(const SearchCheckpoint& checkpoint,
                         std::uint64_t space_digest,
                         std::uint64_t scenario_digest,
                         const std::string& path);

/// Flattens all parameters then buffers of `model` into float bit
/// patterns, in traversal order.
std::vector<std::uint32_t> snapshot_model(nn::Module& model);

/// Mask-generator states of every RNG-bearing layer (Dropout,
/// AlphaDropout) in deterministic tree pre-order.
std::vector<RngState> snapshot_model_rngs(nn::Module& model);

/// Digests the model structure (parameter names + shapes, buffer shapes,
/// RNG-bearing layer count) so a snapshot can only be restored into a
/// structurally identical model.
std::uint64_t model_structure_digest(nn::Module& model);

/// Restores a snapshot_model() payload.  Throws std::runtime_error, with
/// the model untouched, on a size mismatch (callers should compare
/// model_structure_digest first for a clearer error).
void restore_model(nn::Module& model, const std::vector<std::uint32_t>& bits);

/// Restores snapshot_model_rngs() states.  Throws std::runtime_error on a
/// count mismatch.
void restore_model_rngs(nn::Module& model,
                        const std::vector<RngState>& states);

}  // namespace bayesft::core
