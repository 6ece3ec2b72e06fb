#include "core/distrib.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "core/attempt.hpp"
#include "core/runstore.hpp"
#include "utils/logging.hpp"
#include "utils/signals.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define BAYESFT_HAS_FORK 1
#endif

namespace bayesft::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Consecutive worker-spawn failures before the watchdog degrades the pool.
constexpr std::size_t kSpawnFailureLimit = 3;

/// Tag folded into the chaos spawn-failure key: spawn draws are keyed by
/// (slot, respawn count), not by a candidate.
constexpr std::uint64_t kWorkerSpawnTag = 0x776F726B65724FULL;  // "workerO"

#ifdef BAYESFT_HAS_FORK

using Clock = std::chrono::steady_clock;

/// One decoded coordinator request.
struct Request {
    std::size_t index = 0;
    std::uint64_t attempt = 0;
    std::uint64_t cseed = 0;
    Alpha point;
};

/// `eval <index> <attempt> <cseed> <n> <hex...>` — coordinates travel as
/// IEEE-754 bit patterns (runstore format_bits), so the point reaches the
/// worker bit-exactly (a decimal round trip would be a covert source of
/// drift).
std::string build_request(std::size_t index, std::uint64_t attempt,
                          std::uint64_t cseed, const Alpha& point) {
    std::string line = "eval " + std::to_string(index) + ' ' +
                       std::to_string(attempt) + ' ' +
                       std::to_string(cseed) + ' ' +
                       std::to_string(point.size());
    for (const double value : point) {
        line += ' ';
        line += format_bits(value);
    }
    line += '\n';
    return line;
}

bool parse_request(const std::string& line, Request& out) {
    std::istringstream in(line);
    std::string tag;
    unsigned long long index = 0, attempt = 0, cseed = 0, count = 0;
    if (!(in >> tag >> index >> attempt >> cseed >> count) ||
        tag != "eval") {
        return false;
    }
    out.index = static_cast<std::size_t>(index);
    out.attempt = attempt;
    out.cseed = cseed;
    out.point.assign(static_cast<std::size_t>(count), 0.0);
    for (double& value : out.point) {
        std::string hex;
        if (!(in >> hex) || !parse_bits(hex, value)) return false;
    }
    return true;
}

/// Classifies one response line: a trial line for the expected candidate
/// carries the attempt's status ("ok" with a non-finite objective is a NaN
/// failure, as on every path).  False for a torn or foreign line.
bool parse_response(const std::string& line, std::size_t index,
                    TrialStatus& status, double& utility) {
    RunRecord record;
    if (!RunStore::parse_line(line, record) || record.kind != "trial" ||
        record.trial != index) {
        return false;
    }
    status = parse_trial_status(record.status)
                 .value_or(TrialStatus::kFailedCrash);
    utility = kNaN;
    if (status == TrialStatus::kOk) {
        if (std::isfinite(record.objective)) {
            utility = record.objective;
        } else {
            status = TrialStatus::kFailedNaN;
        }
    }
    return true;
}

bool write_all(int fd, const std::string& data) {
    const char* cursor = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        const ssize_t wrote = ::write(fd, cursor, left);
        if (wrote <= 0) {
            if (wrote < 0 && errno == EINTR) continue;
            return false;
        }
        cursor += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/// Evaluates one request and writes its run-store trial line.  Chaos
/// semantics, the same in both pool modes: `worker_crash` aborts the whole
/// process (the coordinator must recover); `crash` is an attempt-level
/// failure the worker reports; `hang` blocks until the coordinator's
/// SIGKILL deadline; `nan` poisons the objective.
void serve_request(int response_fd, const WorkerPool::Config& config,
                   const PointEvaluator& evaluator, const Request& request) {
    if (fault::chaos_worker_crash(config.chaos, request.cseed,
                                  request.attempt)) {
        std::abort();
    }
    const fault::ChaosAction action =
        fault::chaos_decide(config.chaos, request.cseed, request.attempt);
    TrialStatus status = TrialStatus::kOk;
    double utility = kNaN;
    if (action == fault::ChaosAction::kCrash) {
        status = TrialStatus::kFailedCrash;
    } else if (action == fault::ChaosAction::kHang &&
               config.resilience.timeout_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::hours(1));
        ::_exit(4);
    } else {
        try {
            Rng rng(request.cseed);
            utility = evaluator(request.point, rng);
        } catch (const std::exception&) {
            status = TrialStatus::kFailedCrash;
            utility = kNaN;
        }
        if (status == TrialStatus::kOk) {
            if (action == fault::ChaosAction::kNaN) utility = kNaN;
            if (!std::isfinite(utility)) status = TrialStatus::kFailedNaN;
        }
    }
    RunRecord record;
    record.kind = "trial";
    record.scenario = "distributed-eval";
    record.family = "engine";
    record.seed = request.cseed;
    record.trial = request.index;
    record.point = "-";
    record.objective = utility;
    record.status = trial_status_name(status);
    if (!write_all(response_fd, RunStore::to_json(record) + "\n")) {
        ::_exit(5);
    }
}

/// The worker process: serve request lines until the coordinator closes
/// the request pipe (EOF is the shutdown signal), or — one-shot — exit
/// after the first.
[[noreturn]] void worker_main(int request_fd, int response_fd,
                              const WorkerPool::Config& config,
                              const PointEvaluator& evaluator) {
    std::string buffer;
    char chunk[4096];
    for (;;) {
        std::size_t newline = std::string::npos;
        while ((newline = buffer.find('\n')) == std::string::npos) {
            const ssize_t got = ::read(request_fd, chunk, sizeof chunk);
            if (got < 0 && errno == EINTR) continue;
            if (got <= 0) ::_exit(0);
            buffer.append(chunk, static_cast<std::size_t>(got));
        }
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        Request request;
        if (!parse_request(line, request)) ::_exit(6);
        serve_request(response_fd, config, evaluator, request);
        if (config.resilience.isolate) ::_exit(0);
    }
}

/// Milliseconds from now until `wake`, rounded up so the wait never ends
/// before `wake`; -1 (wait indefinitely) for time_point::max().
int poll_timeout_ms(Clock::time_point wake) {
    if (wake == Clock::time_point::max()) return -1;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        wake - Clock::now());
    return static_cast<int>(std::clamp<std::chrono::milliseconds::rep>(
        left.count(), 0, std::numeric_limits<int>::max()));
}

#endif  // BAYESFT_HAS_FORK

}  // namespace

#ifdef BAYESFT_HAS_FORK

WorkerPool::WorkerPool(Config config) : config_(std::move(config)) {
    ignore_sigpipe_once();
    const std::size_t n = std::max<std::size_t>(1, config_.workers);
    workers_.resize(n);
    spawn_counts_.assign(n, 0);
}

WorkerPool::~WorkerPool() {
    // EOF on the request pipe is the shutdown signal; workers that ignore
    // it (hung by injected chaos) are SIGKILLed after a short grace.  An
    // exiting worker hangs up its response pipe, which is what poll waits
    // for.
    for (Worker& worker : workers_) {
        if (worker.request_fd >= 0) ::close(worker.request_fd);
        worker.request_fd = -1;
    }
    const auto grace_end = Clock::now() + std::chrono::milliseconds(250);
    for (Worker& worker : workers_) {
        if (worker.pid < 0) continue;
        pollfd hangup{worker.response_fd, POLLIN, 0};
        const bool exited =
            ::poll(&hangup, 1, poll_timeout_ms(grace_end)) > 0;
        shutdown_worker(worker, /*kill=*/!exited);
    }
}

bool WorkerPool::spawn_worker(std::size_t slot,
                              const PointEvaluator& evaluator) {
    Worker& worker = workers_[slot];
    bool failed = fault::chaos_spawn_failure(
        config_.chaos, kWorkerSpawnTag ^ static_cast<std::uint64_t>(slot),
        spawn_counts_[slot]);
    ++spawn_counts_[slot];
    int request_fds[2] = {-1, -1};
    int response_fds[2] = {-1, -1};
    if (!failed && ::pipe(request_fds) != 0) failed = true;
    if (!failed && ::pipe(response_fds) != 0) {
        ::close(request_fds[0]);
        ::close(request_fds[1]);
        failed = true;
    }
    pid_t pid = -1;
    if (!failed) {
        pid = ::fork();
        if (pid < 0) {
            failed = true;
            ::close(request_fds[0]);
            ::close(request_fds[1]);
            ::close(response_fds[0]);
            ::close(response_fds[1]);
        }
    }
    if (failed) {
        if (++consecutive_spawn_failures_ >= kSpawnFailureLimit &&
            !degraded_) {
            degraded_ = true;
            log_warn() << "worker pool: " << consecutive_spawn_failures_
                       << " consecutive worker-spawn failures; degrading "
                          "to in-process evaluation for the rest of the run";
        }
        return false;
    }
    consecutive_spawn_failures_ = 0;

    if (pid == 0) {
        // --- worker: keep only this worker's two pipe ends.  Sibling fds
        // inherited through fork must go, or a sibling's request pipe
        // never reaches EOF while this worker lives.
        ::close(request_fds[1]);
        ::close(response_fds[0]);
        for (const Worker& other : workers_) {
            if (other.request_fd >= 0) ::close(other.request_fd);
            if (other.response_fd >= 0) ::close(other.response_fd);
        }
        worker_main(request_fds[0], response_fds[1], config_, evaluator);
    }

    // --- coordinator
    ::close(request_fds[0]);
    ::close(response_fds[1]);
    ::fcntl(response_fds[0], F_SETFL, O_NONBLOCK);
    worker.pid = pid;
    worker.request_fd = request_fds[1];
    worker.response_fd = response_fds[0];
    worker.buffer.clear();
    worker.busy = false;
    return true;
}

void WorkerPool::shutdown_worker(Worker& worker, bool kill) {
    if (worker.pid >= 0) {
        const pid_t pid = static_cast<pid_t>(worker.pid);
        if (kill) ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    if (worker.request_fd >= 0) ::close(worker.request_fd);
    if (worker.response_fd >= 0) ::close(worker.response_fd);
    worker.pid = -1;
    worker.request_fd = -1;
    worker.response_fd = -1;
    worker.buffer.clear();
    worker.busy = false;
}

void WorkerPool::evaluate(const std::vector<Alpha>& points,
                          const std::vector<std::size_t>& live,
                          const PointEvaluator& evaluator,
                          const EvalContext& context, BatchOutcome& outcome) {
    struct Job {
        std::size_t index = 0;
        std::uint64_t attempt = 0;
        Clock::time_point not_before;
    };
    std::deque<Job> queue;
    const Clock::time_point start = Clock::now();
    for (const std::size_t j : live) queue.push_back({j, 0, start});

    const ResilienceConfig& resilience = config_.resilience;
    auto cseed_of = [&](std::size_t index) {
        return candidate_seed(context, points[index]);
    };

    // Watchdog fallback: one candidate finished in-process with its
    // remaining retry budget — the only path a stranded job takes once
    // the pool degrades mid-batch.
    auto run_in_process = [&](const Job& job) {
        const std::uint64_t cseed = cseed_of(job.index);
        const AttemptResult result = evaluate_with_retries(
            config_.chaos, resilience, cseed, job.attempt, [&] {
                Rng rng(cseed);
                return evaluator(points[job.index], rng);
            });
        outcome.utilities[job.index] = result.utility;
        outcome.statuses[job.index] = result.status;
    };

    // Identical retry/quarantine semantics to the in-process path: a
    // failed attempt re-enters the queue with deterministic backoff until
    // the retry budget runs out, then the failure is recorded.
    auto finalize = [&](std::size_t index, std::uint64_t attempt,
                        TrialStatus status, double utility) {
        if (status != TrialStatus::kOk && attempt < resilience.max_retries) {
            queue.push_back(
                {index, attempt + 1,
                 Clock::now() + backoff_duration(resilience, cseed_of(index),
                                                 attempt)});
            return;
        }
        outcome.utilities[index] = utility;
        outcome.statuses[index] = status;
    };

    std::vector<pollfd> waiting;
    for (;;) {
        // Dispatch ready jobs: an idle persistent worker first, else a
        // worker forked on demand into an empty slot (each failed spawn
        // feeds the watchdog).
        for (auto it = queue.begin(); !degraded_ && it != queue.end();) {
            if (it->not_before > Clock::now()) {
                ++it;
                continue;
            }
            std::size_t slot = workers_.size();
            for (std::size_t i = 0; i < workers_.size(); ++i) {
                if (!workers_[i].busy && workers_[i].pid >= 0) {
                    slot = i;
                    break;
                }
            }
            if (slot == workers_.size()) {
                for (std::size_t i = 0; i < workers_.size(); ++i) {
                    if (workers_[i].pid < 0) {
                        if (spawn_worker(i, evaluator)) slot = i;
                        break;
                    }
                }
            }
            if (slot == workers_.size()) break;  // all busy or spawn failed

            const Job job = *it;
            it = queue.erase(it);
            Worker& worker = workers_[slot];
            const std::string request = build_request(
                job.index, job.attempt, cseed_of(job.index),
                points[job.index]);
            if (!write_all(worker.request_fd, request)) {
                // The worker died between jobs: the write is the attempt,
                // so classify it as a crash and retire the slot.
                shutdown_worker(worker, /*kill=*/false);
                finalize(job.index, job.attempt, TrialStatus::kFailedCrash,
                         kNaN);
                continue;
            }
            worker.busy = true;
            worker.job_index = job.index;
            worker.job_attempt = job.attempt;
            worker.has_deadline = resilience.timeout_seconds > 0.0;
            if (worker.has_deadline) {
                worker.deadline =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            resilience.timeout_seconds));
            }
        }
        if (degraded_) {
            // The watchdog tripped (possibly mid-batch): everything still
            // queued runs in-process; busy workers below finish normally.
            for (const Job& job : queue) run_in_process(job);
            queue.clear();
        }

        // Wait in poll() for a response (or hang-up) from a busy worker,
        // the nearest trial deadline, or — while a slot is free — the
        // nearest retry gate.
        waiting.clear();
        Clock::time_point wake = Clock::time_point::max();
        bool slot_free = false;
        for (const Worker& worker : workers_) {
            if (!worker.busy) {
                slot_free = true;
                continue;
            }
            waiting.push_back({worker.response_fd, POLLIN, 0});
            if (worker.has_deadline) wake = std::min(wake, worker.deadline);
        }
        if (waiting.empty() && queue.empty()) break;
        if (slot_free) {
            for (const Job& job : queue) {
                wake = std::min(wake, job.not_before);
            }
        }
        ::poll(waiting.data(), waiting.size(), poll_timeout_ms(wake));

        // Collect: classify complete trial lines, detect deaths, enforce
        // deadlines.  A one-shot worker is reaped after its attempt; a
        // persistent one is reaped only when dead, desynchronized, or hung.
        for (Worker& worker : workers_) {
            if (!worker.busy) continue;
            char buf[512];
            ssize_t got = 0;
            while ((got = ::read(worker.response_fd, buf, sizeof buf)) > 0) {
                worker.buffer.append(buf, static_cast<std::size_t>(got));
            }
            const std::size_t newline = worker.buffer.find('\n');
            TrialStatus status = TrialStatus::kFailedCrash;
            double utility = kNaN;
            bool reap = resilience.isolate;
            bool kill = false;
            if (newline != std::string::npos) {
                if (!parse_response(worker.buffer.substr(0, newline),
                                    worker.job_index, status, utility)) {
                    // Torn or foreign line (a failed_crash): the protocol
                    // is desynchronized beyond repair for this worker —
                    // kill and respawn.
                    reap = kill = true;
                }
                worker.buffer.erase(0, newline + 1);
            } else if (got == 0) {
                // EOF without a complete line: the worker died
                // mid-evaluation (SIGKILL, abort, injected worker_crash).
                reap = true;
            } else if (worker.has_deadline && Clock::now() > worker.deadline) {
                // A hung worker cannot be cancelled politely: SIGKILL it
                // and record the timeout.
                status = TrialStatus::kFailedTimeout;
                reap = kill = true;
            } else {
                continue;  // still evaluating
            }
            const std::size_t index = worker.job_index;
            const std::uint64_t attempt = worker.job_attempt;
            if (reap) {
                shutdown_worker(worker, kill);
            } else {
                worker.busy = false;
            }
            finalize(index, attempt, status, utility);
        }
    }
}

#else  // !BAYESFT_HAS_FORK

// Platforms without fork: a constructed pool degrades immediately (the
// engine then evaluates in-process) and evaluate() runs in-process too.

WorkerPool::WorkerPool(Config config) : config_(std::move(config)) {
    degraded_ = true;
}

WorkerPool::~WorkerPool() = default;

bool WorkerPool::spawn_worker(std::size_t, const PointEvaluator&) {
    return false;
}

void WorkerPool::shutdown_worker(Worker&, bool) {}

void WorkerPool::evaluate(const std::vector<Alpha>& points,
                          const std::vector<std::size_t>& live,
                          const PointEvaluator& evaluator,
                          const EvalContext& context, BatchOutcome& outcome) {
    for (const std::size_t j : live) {
        const std::uint64_t cseed = candidate_seed(context, points[j]);
        const AttemptResult result = evaluate_with_retries(
            config_.chaos, config_.resilience, cseed, 0, [&] {
                Rng rng(cseed);
                return evaluator(points[j], rng);
            });
        outcome.utilities[j] = result.utility;
        outcome.statuses[j] = result.status;
    }
}

#endif  // BAYESFT_HAS_FORK

}  // namespace bayesft::core
