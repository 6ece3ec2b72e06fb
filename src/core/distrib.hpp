#pragma once
// Out-of-process candidate evaluation (docs/distributed.md,
// docs/robustness.md): the one executor behind both `--workers` and
// `--isolate`.  The coordinator — the process that owns the GP, the
// checkpoint, and the run store — keeps proposing candidate groups exactly
// as before; a WorkerPool of forked worker processes of the same binary
// evaluates them.  The pool has two modes and one dispatch loop:
//   - persistent (EngineConfig::workers = N): up to N workers, each
//     serving attempts until the pool shuts down;
//   - one-shot (ResilienceConfig::isolate): each worker serves exactly one
//     attempt and is then reaped, so a crash, leak, or corrupted heap
//     never outlives the attempt that caused it.
//
// Protocol (one attempt):
//   coordinator -> worker   one request line over a pipe:
//       eval <index> <attempt> <cseed> <n> <hex0> ... <hexN-1>\n
//     where each <hexK> is the IEEE-754 bit pattern of one encoded point
//     coordinate — bit-exact, no decimal round trip — and <cseed> is
//     candidate_seed(context, point), computed by the coordinator so
//     workers never need the evaluation context.
//   worker -> coordinator   one run-store JSONL trial line
//     (RunStore::to_json/parse_line): kind "trial", seed = cseed,
//     trial = index, objective = the utility, status = the attempt's
//     outcome class.  Closing the request pipe is the shutdown signal.
//
// Determinism contract: a candidate's RNG stream derives purely from its
// cseed, utilities cross the pipe bit-exactly, and retry/chaos decisions
// are pure functions of (cseed, attempt) — so the search result is
// bit-identical in both modes and for every worker count, including zero
// (in-process).
//
// Failure semantics: a worker that dies mid-evaluation (SIGKILL, abort,
// protocol desync) yields a failed_crash attempt; one that outlives the
// trial deadline is SIGKILLed and yields failed_timeout; a reported
// non-finite objective is failed_nan.  Failed attempts are re-dispatched
// with deterministic backoff until ResilienceConfig::max_retries, then
// quarantined, exactly like the in-process path.  A spawn watchdog
// degrades the pool to in-process evaluation after repeated fork/pipe
// failures.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/trial.hpp"
#include "fault/chaos.hpp"

namespace bayesft::core {

/// A pool of forked worker processes evaluating self-contained candidates.
/// Created lazily by the EvaluationEngine on its first out-of-process
/// evaluate_points call and kept for the engine's lifetime, so a
/// persistent pool forks its workers once per search, not once per batch.
class WorkerPool {
public:
    struct Config {
        /// Worker slots (>= 1): EngineConfig::workers, or the engine's
        /// evaluation width when isolating.
        std::size_t workers = 1;
        /// `isolate` selects one-shot workers; the rest is the timeout,
        /// retry, and backoff policy shared with the in-process path.
        ResilienceConfig resilience;
        fault::ChaosSpec chaos;
    };

    /// Forks nothing: evaluate() forks workers on demand.
    explicit WorkerPool(Config config);
    /// Shuts the pool down: closes the request pipes (workers exit on
    /// EOF), SIGKILLs stragglers after a short grace, and reaps them all.
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// True once the spawn watchdog tripped: repeated worker-spawn
    /// failures degraded this pool permanently; callers should evaluate
    /// in-process from then on.
    bool degraded() const { return degraded_; }

    /// Evaluates points[j] for every j in `live`, filling
    /// outcome.utilities / outcome.statuses at those indices (identical
    /// classification and retry semantics to the in-process path).  A
    /// worker runs the evaluator of the call that forked it: a one-shot
    /// worker always this call's, a persistent worker the one it was
    /// forked with, so a persistent pool needs an evaluator that is stable
    /// across calls (self-contained searches have one).  Jobs stranded by
    /// a mid-batch watchdog trip are finished in-process with their
    /// remaining retry budget, so the outcome is always complete.
    void evaluate(const std::vector<Alpha>& points,
                  const std::vector<std::size_t>& live,
                  const PointEvaluator& evaluator,
                  const EvalContext& context, BatchOutcome& outcome);

private:
    struct Worker {
        long pid = -1;        ///< pid_t, widened to keep the header portable
        int request_fd = -1;  ///< coordinator writes request lines
        int response_fd = -1; ///< coordinator reads trial lines (nonblocking)
        std::string buffer;   ///< partial response line
        bool busy = false;
        std::size_t job_index = 0;
        std::uint64_t job_attempt = 0;
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline;
    };

    /// Forks one worker running `evaluator` into `slot`; false on a (real
    /// or chaos-injected) spawn failure, which feeds the watchdog.
    bool spawn_worker(std::size_t slot, const PointEvaluator& evaluator);
    void shutdown_worker(Worker& worker, bool kill);

    Config config_;
    std::vector<Worker> workers_;
    /// Per-slot spawn counter: keys the chaos spawn-failure stream so an
    /// injected failure is a deterministic property of (slot, respawn).
    std::vector<std::uint64_t> spawn_counts_;
    std::size_t consecutive_spawn_failures_ = 0;
    bool degraded_ = false;
};

}  // namespace bayesft::core
