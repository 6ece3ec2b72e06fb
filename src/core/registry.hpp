#pragma once
// Unified experiment registry: every reproduced scenario — the Fig. 2
// architecture ablations, the Fig. 3 method-comparison panels (including
// detection), the fault-model-zoo variants (stuck-at, bit-flip, variation,
// quantization, composed deployment chains; family "faults"), the typed
// mixed-space architecture searches (norm/activation/depth/width searched
// jointly with dropout; family "archsearch"), the search-strategy and
// MC-sample ablations, and a CI-sized toy task —
// registered by name behind one entry point, so a single `experiments`
// binary (and tests, and CI) can list and run any of them instead of one
// hand-rolled driver per figure.  Each scenario is one row of the table in
// registry.cpp, run by the function of its protocol (Fig. 3 panel, variant
// sweep, fault search, arch search, ...).  docs/experiments.md documents
// every scenario with its paper figure, expected runtime, and CLI
// invocation.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "utils/table.hpp"

namespace bayesft::core {

/// Caller-side knobs shared by all registered experiments.
struct RunOptions {
    /// Shrinks datasets / epochs / MC samples for a fast smoke run (the
    /// same scaling the benches apply under BAYESFT_QUICK=1).
    bool quick = false;
    /// BayesFT candidate batch size q handed to the evaluation engine.
    std::size_t batch = 1;
    /// Evaluation-engine concurrency (0 = pool width).
    std::size_t threads = 0;
    /// Distributed evaluation (docs/distributed.md): fork this many
    /// persistent worker processes and farm self-contained candidate
    /// evaluations to them (0 = in-process).  Result-invariant like
    /// `threads`; only scenarios with ExperimentSpec::distributable honour
    /// it (the CLI rejects it elsewhere).
    std::size_t workers = 0;
    /// Overrides the scenario's base seed when non-zero.
    std::uint64_t seed = 0;
    /// Checkpoint file path handed to the scenario's search driver
    /// (docs/checkpointing.md).  Only scenarios that run a BO search
    /// honour it; empty disables checkpointing.
    std::string checkpoint;
    /// Stop the search — checkpoint on disk — after this many newly
    /// observed trials (0 = run to completion).  Requires `checkpoint`.
    std::size_t stop_after = 0;
    /// Fault-tolerant trial execution (docs/robustness.md).  `isolate`
    /// forks each self-contained candidate evaluation into a crash-isolated
    /// child (archsearch scenarios); `trial_timeout` (seconds, 0 = none)
    /// SIGKILLs / classifies trials past the deadline; `max_retries` bounds
    /// the re-attempts before a trial is quarantined.  All of them are
    /// result-invariant, like `threads`.
    bool isolate = false;
    double trial_timeout = 0.0;
    std::size_t max_retries = 2;
    /// How quarantined trials reach the GP: "penalize" (observed at the
    /// fail penalty) or "exclude" (kept out of the surrogate).  Unlike the
    /// knobs above this one shapes the proposal stream, so it is part of
    /// the scenario digest.
    std::string fail_policy = "penalize";
    /// Numeric mode of the fixed-point inference scenarios
    /// ("float32" | "int8" | "int12"; nn/quant.hpp, docs/performance.md).
    /// Scenarios that compare against a fixed-point forward use it to pick
    /// the word width; "float32" means "the scenario's default width".
    std::string inference = "float32";
    /// TuRBO-style trust-region local BO (docs/optimizer-scaling.md):
    /// past `tr_after` observed trials, proposals come from an adaptive
    /// box around the incumbent scored by a local surrogate.  Opt-in —
    /// unlike the engine knobs above it shapes the proposal stream, so it
    /// is folded into the scenario digest (only when enabled, keeping
    /// every pre-existing checkpoint valid).
    bool trust_region = false;
    std::size_t tr_after = 500;
};

/// One labeled series of an experiment (method or model variant).
struct NamedCurve {
    std::string label;
    std::vector<double> values;  ///< aligned with RegistryResult::xs
};

/// One observed search trial, in decoded human-readable form — the unit
/// the JSONL run store persists (core/runstore.hpp).
struct TrialRecord {
    std::size_t index = 0;   ///< global trial index within the search
    std::string point;       ///< e.g. "alpha0=0.125 alpha1=0.3"
    double objective = 0.0;
    /// Trial outcome class (trial_status_name: "ok", "failed_nan",
    /// "failed_crash", "failed_timeout").
    std::string status = "ok";
};

/// Normalized result shape every registered experiment produces.
struct RegistryResult {
    std::string experiment{};
    std::string x_label{};  ///< "sigma", "mc_samples", "trial_budget", ...
    std::vector<double> xs{};
    std::vector<NamedCurve> curves{};
    std::vector<double> bayesft_alpha{};  ///< when a BayesFT search ran
    /// Free-form result note, e.g. the decoded best architecture point of
    /// an archsearch scenario ("norm=batch activation=gelu ...").
    std::string annotation{};
    /// Full BO trial history of the scenario's search (empty when the
    /// scenario runs no search).  Feeds the run store.
    std::vector<TrialRecord> trials{};
    /// Leading trials restored from a checkpoint: a prior invocation
    /// already persisted them, so the run store appends only the rest.
    std::size_t resumed_trials = 0;
    /// False when the search halted at RunOptions::stop_after; the
    /// searched method's curves are then absent (re-run with the same
    /// checkpoint path to resume and finish the figure).
    bool search_completed = true;
    double seconds = 0.0;               ///< wall clock of the run

    /// Rows = xs, columns = curves.  `scale` multiplies values (100 for
    /// accuracy -> percent).
    ResultTable to_table(const std::string& title, double scale) const;
};

/// A registered scenario.
struct ExperimentSpec {
    std::string name;         ///< e.g. "fig3a_mlp_mnist"
    /// "fig2" | "fig3" | "faults" | "archsearch" | "ablation" | "toy"
    std::string family;
    std::string description;  ///< one line for --list
    std::function<RegistryResult(const RunOptions&)> run;
    /// True when the scenario's protocol wires RunOptions::checkpoint/
    /// stop_after into its search driver; the CLI rejects --checkpoint for
    /// scenarios that would silently ignore it (pure sweeps, the
    /// multi-search ablation).
    bool checkpointable = false;
    /// True when the scenario's candidate evaluations are self-contained
    /// (a pure function of the encoded point — the arch-search protocol)
    /// and RunOptions::workers is wired into its search driver.  The CLI
    /// rejects --workers elsewhere: evolving-theta searches cannot ship
    /// their weights across the worker pipe.
    bool distributable = false;
};

/// Name -> scenario lookup over all built-in experiments.
///
/// Thread safety: `instance()` is initialized once (magic static) and
/// immutable afterwards; every lookup is safe to call concurrently.
class ExperimentRegistry {
public:
    /// The global registry with every built-in scenario registered.
    static const ExperimentRegistry& instance();

    /// All specs in table order.
    const std::vector<ExperimentSpec>& list() const { return specs_; }

    /// nullptr when unknown.
    const ExperimentSpec* find(const std::string& name) const;

    /// Runs by name; throws std::invalid_argument for unknown names.
    RegistryResult run(const std::string& name,
                       const RunOptions& options) const;

private:
    explicit ExperimentRegistry(std::vector<ExperimentSpec> specs)
        : specs_(std::move(specs)) {}

    std::vector<ExperimentSpec> specs_;
};

}  // namespace bayesft::core
