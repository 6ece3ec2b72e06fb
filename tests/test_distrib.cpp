// Out-of-process candidate evaluation (core/distrib.*, docs/distributed.md):
// the coordinator/worker split must be invisible in the results — best
// point, trial history, and trial-log lines bit-identical for every worker
// count and for one-shot (isolated) workers, including under injected
// worker crashes, hangs, and spawn failures, and across a checkpoint
// written at one worker count and resumed at another.  Plus the satellite
// coverage: RunStore::parse_line fuzzed as a wire format (truncated lines,
// non-finite objectives, overlong fields, interleaved writers), the
// candidate_seed purity contract pinned across process boundaries, and
// the thread pool's fork safety.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/archsearch.hpp"
#include "core/engine.hpp"
#include "core/runstore.hpp"
#include "data/toy.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"
#include "utils/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define BAYESFT_TEST_POSIX 1
#endif

namespace bayesft::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
    return (fs::temp_directory_path() / ("bayesft_distrib_" + name))
        .string();
}

// ------------------------------------------------------------------ //
// Satellite: RunStore::parse_line as a wire format.                   //
// ------------------------------------------------------------------ //

RunRecord sample_trial() {
    RunRecord r;
    r.kind = "trial";
    r.scenario = "wire";
    r.family = "toy";
    r.seed = 7;
    r.trial = 3;
    r.point = "alpha0=0.25 alpha1=0.5";
    r.objective = 0.625;
    r.status = "ok";
    return r;
}

RunRecord sample_summary() {
    RunRecord r;
    r.kind = "summary";
    r.scenario = "wire";
    r.family = "toy";
    r.seed = 7;
    r.trials = 5;
    r.best_trial = 3;
    r.best_point = "alpha0=0.25";
    r.best_objective = 0.625;
    r.seconds = 1.5;
    return r;
}

TEST(RunStoreWireFormat, EveryTruncationOfAValidLineIsRejected) {
    // A worker SIGKILLed mid-write (or a torn tail after a power loss)
    // leaves an arbitrary prefix: none of them may parse, however far the
    // cut got — a truncated trial parsed with defaulted fields would
    // poison the aggregation and desynchronize the resume backfill.
    for (const std::string line :
         {RunStore::to_json(sample_trial()),
          RunStore::to_json(sample_summary())}) {
        RunRecord full;
        ASSERT_TRUE(RunStore::parse_line(line, full));
        for (std::size_t cut = 0; cut < line.size(); ++cut) {
            RunRecord r;
            EXPECT_FALSE(RunStore::parse_line(line.substr(0, cut), r))
                << "prefix of length " << cut << " parsed";
        }
        // A suffix lost its '{' — e.g. the head of a line overwritten by
        // a concurrent writer.
        for (const std::size_t cut : {std::size_t{1}, line.size() / 2}) {
            RunRecord r;
            EXPECT_FALSE(RunStore::parse_line(line.substr(cut), r))
                << "suffix from offset " << cut << " parsed";
        }
    }
}

TEST(RunStoreWireFormat, RequiredFieldsCannotDefault) {
    RunRecord r;
    EXPECT_FALSE(RunStore::parse_line("", r));
    EXPECT_FALSE(RunStore::parse_line("{}", r));
    EXPECT_FALSE(RunStore::parse_line("not json at all", r));
    EXPECT_FALSE(RunStore::parse_line("{\"kind\":\"trial\"}", r));
    EXPECT_FALSE(RunStore::parse_line(
        "{\"kind\":\"mystery\",\"scenario\":\"x\",\"seed\":1}", r));
    // A trial without its objective (or a summary without seconds) is an
    // incomplete record, not a defaultable one.
    EXPECT_FALSE(RunStore::parse_line(
        "{\"kind\":\"trial\",\"scenario\":\"x\",\"seed\":1,\"trial\":0,"
        "\"point\":\"-\"}",
        r));
    EXPECT_FALSE(RunStore::parse_line(
        "{\"kind\":\"summary\",\"scenario\":\"x\",\"seed\":1,\"trials\":2}",
        r));
}

TEST(RunStoreWireFormat, NonFiniteObjectivesRoundTrip) {
    // Quarantined trials carry NaN objectives across the worker pipe; the
    // wire format must round-trip them (and the infinities a hostile
    // evaluator could produce), not silently zero them.
    for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        RunRecord r = sample_trial();
        r.objective = value;
        r.status = "failed_nan";
        RunRecord parsed;
        ASSERT_TRUE(RunStore::parse_line(RunStore::to_json(r), parsed));
        if (std::isnan(value)) {
            EXPECT_TRUE(std::isnan(parsed.objective));
        } else {
            EXPECT_EQ(parsed.objective, value);
        }
        EXPECT_EQ(parsed.status, "failed_nan");
    }
}

TEST(RunStoreWireFormat, OverlongFieldsRoundTripAndUnterminatedReject) {
    // A pathological decoded point (a megabyte of text) must survive the
    // round trip unclipped...
    RunRecord r = sample_trial();
    r.point.assign(1 << 20, 'x');
    r.point += " end";
    RunRecord parsed;
    ASSERT_TRUE(RunStore::parse_line(RunStore::to_json(r), parsed));
    EXPECT_EQ(parsed.point, r.point);

    // ...while the same line with the string's closing quote torn off
    // (the writer died inside the value) is rejected, no matter that the
    // line still happens to end in '}'.
    const std::string line = RunStore::to_json(r);
    const std::size_t quote = line.rfind("\",\"objective\"");
    ASSERT_NE(quote, std::string::npos);
    std::string torn = line.substr(0, quote) + "}";
    RunRecord rejected;
    EXPECT_FALSE(RunStore::parse_line(torn, rejected));
}

TEST(RunStoreWireFormat, InterleavedWriterFrankenlinesAreRejected) {
    // Two writers without O_APPEND discipline (or a partial write later
    // "completed" by another record) can weld the head of one record onto
    // a full second record: the result has '{', '}', and plausible fields
    // from both.  The single-"kind" rule must reject it.
    const std::string a = RunStore::to_json(sample_trial());
    const std::string b = RunStore::to_json(sample_summary());
    RunRecord r;
    EXPECT_FALSE(RunStore::parse_line(a.substr(0, a.size() / 2) + b, r));
    EXPECT_FALSE(RunStore::parse_line(a + b, r));
    EXPECT_FALSE(RunStore::parse_line(a.substr(0, 1) + b.substr(1), r) &&
                 r.kind == "trial" && r.trial != sample_summary().trial);
    // An intact line straight after the mess still parses — the store
    // skips garbage lines, it does not give up on the file.
    EXPECT_TRUE(RunStore::parse_line(b, r));
    EXPECT_EQ(r.kind, "summary");
}

// ------------------------------------------------------------------ //
// Satellite: candidate_seed purity across process boundaries.         //
// ------------------------------------------------------------------ //

#ifdef BAYESFT_TEST_POSIX
TEST(CandidateSeedPurity, IdenticalAcrossFork) {
    // The whole distribution scheme rests on candidate_seed being a pure
    // function of (context, point): the coordinator computes it, ships it,
    // and a worker in a different process must agree.  Fork a child,
    // recompute there, and compare the 8 raw bytes.
    EvalContext context;
    context.key = mix_key(0x9E3779B97F4A7C15ULL, std::uint64_t{99});
    context.stamp = 4;
    const Alpha point = {0.125, 0.75, 0.5};
    const std::uint64_t parent_seed = candidate_seed(context, point);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(fds[0]);
        const std::uint64_t child_seed = candidate_seed(context, point);
        const ssize_t wrote =
            ::write(fds[1], &child_seed, sizeof child_seed);
        ::_exit(wrote == sizeof child_seed ? 0 : 1);
    }
    ::close(fds[1]);
    std::uint64_t child_seed = 0;
    ASSERT_EQ(::read(fds[0], &child_seed, sizeof child_seed),
              static_cast<ssize_t>(sizeof child_seed));
    ::close(fds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_EQ(child_seed, parent_seed);
}
#endif

// Cheap pure evaluator: depends on the point and the candidate stream, so
// any path that failed to replay the exact stream shows up bitwise.
PointEvaluator pure_evaluator() {
    return [](const Alpha& point, Rng& rng) {
        return std::sin(7.0 * point[0]) + 0.25 * point[1] +
               0.01 * rng.uniform();
    };
}

std::vector<Alpha> engine_points() {
    std::vector<Alpha> points = {{0.10, 0.90}, {0.25, 0.40}, {0.50, 0.50},
                                 {0.75, 0.20}, {0.90, 0.10}, {0.33, 0.66}};
    points.push_back(points[2]);  // within-batch duplicate
    return points;
}

EvalContext engine_context() {
    EvalContext context;
    context.key = mix_key(0x9E3779B97F4A7C15ULL, std::uint64_t{23});
    context.stamp = 0;
    return context;
}

EngineConfig quiet_config() {
    EngineConfig config;
    config.chaos = fault::ChaosSpec{};  // never inherit ambient chaos
    return config;
}

/// Formats one outcome as the trial lines a run store would persist, so
/// "byte-identical trial records" is checked literally, not via double
/// comparison alone.
std::vector<std::string> trial_lines(const BatchOutcome& outcome,
                                     const EvalContext& context,
                                     const std::vector<Alpha>& points) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < outcome.utilities.size(); ++i) {
        RunRecord r;
        r.kind = "trial";
        r.scenario = "purity";
        r.family = "engine";
        r.seed = candidate_seed(context, points[i]);
        r.trial = i;
        r.point = "-";
        r.objective = outcome.utilities[i];
        r.status = trial_status_name(outcome.statuses[i]);
        lines.push_back(RunStore::to_json(r));
    }
    return lines;
}

TEST(CandidateSeedPurity, TrialRecordsIdenticalInProcessIsolatedAndWorkers) {
    set_log_level(LogLevel::Error);
    const std::vector<Alpha> points = engine_points();
    const EvalContext context = engine_context();

    EvaluationEngine plain(quiet_config());
    const BatchOutcome in_process =
        plain.evaluate_points(points, pure_evaluator(), context);
    const std::vector<std::string> reference =
        trial_lines(in_process, context, points);

#ifdef BAYESFT_TEST_POSIX
    EngineConfig isolated_config = quiet_config();
    isolated_config.resilience.isolate = true;
    EvaluationEngine isolated(isolated_config);
    const BatchOutcome via_isolation =
        isolated.evaluate_points(points, pure_evaluator(), context);
    EXPECT_EQ(trial_lines(via_isolation, context, points), reference);

    EngineConfig worker_config = quiet_config();
    worker_config.workers = 2;
    EvaluationEngine distributed(worker_config);
    const BatchOutcome via_workers =
        distributed.evaluate_points(points, pure_evaluator(), context);
    EXPECT_FALSE(distributed.pool_degraded());
    EXPECT_EQ(trial_lines(via_workers, context, points), reference);
#endif
}

#ifdef BAYESFT_TEST_POSIX

// ------------------------------------------------------------------ //
// Tentpole: engine-level worker matrix, chaos, and degradation.       //
// ------------------------------------------------------------------ //

BatchOutcome run_engine(EngineConfig config) {
    EvaluationEngine engine(config);
    return engine.evaluate_points(engine_points(), pure_evaluator(),
                                  engine_context());
}

void expect_identical_ok(const BatchOutcome& clean,
                         const BatchOutcome& other) {
    ASSERT_EQ(other.utilities.size(), clean.utilities.size());
    for (std::size_t i = 0; i < clean.utilities.size(); ++i) {
        EXPECT_EQ(other.utilities[i], clean.utilities[i])
            << "candidate " << i << " diverged";
        EXPECT_EQ(other.statuses[i], TrialStatus::kOk)
            << "candidate " << i << " not ok";
    }
    EXPECT_EQ(other.best_index, clean.best_index);
}

TEST(DistribEngine, OutcomeBitIdenticalAcrossWorkerCounts) {
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_config());
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        EngineConfig config = quiet_config();
        config.workers = workers;
        expect_identical_ok(clean, run_engine(config));
    }
}

TEST(DistribEngine, WorkerCrashChaosRecoversBitIdentical) {
    // Injected whole-worker deaths (the worker aborts mid-evaluation, the
    // coordinator sees EOF, respawns, and re-dispatches): with retry
    // budget the final outcome must be bitwise the clean one at every
    // worker count.
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_config());
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        EngineConfig config = quiet_config();
        config.workers = workers;
        config.chaos.worker_crash = 0.3;
        config.resilience.max_retries = 8;
        expect_identical_ok(clean, run_engine(config));
    }
}

TEST(DistribEngine, CertainWorkerCrashQuarantinesEveryCandidate) {
    // worker_crash:1 kills the worker on every dispatch: after the retry
    // budget each candidate must be quarantined as failed_crash — and the
    // evaluation must still terminate (respawn per attempt, no livelock).
    set_log_level(LogLevel::Error);
    EngineConfig config = quiet_config();
    config.workers = 2;
    config.chaos.worker_crash = 1.0;
    config.resilience.max_retries = 1;
    const BatchOutcome outcome = run_engine(config);
    for (std::size_t i = 0; i < outcome.statuses.size(); ++i) {
        EXPECT_EQ(outcome.statuses[i], TrialStatus::kFailedCrash)
            << "candidate " << i;
        EXPECT_TRUE(std::isnan(outcome.utilities[i])) << "candidate " << i;
    }
}

TEST(DistribEngine, HungWorkersAreKilledAtTheDeadlineAndRecovered) {
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_config());
    EngineConfig config = quiet_config();
    config.workers = 2;
    config.chaos.hang = 0.3;
    config.resilience.timeout_seconds = 0.25;
    config.resilience.max_retries = 8;
    expect_identical_ok(clean, run_engine(config));
}

TEST(DistribEngine, SpawnWatchdogDegradesToInProcess) {
    // Every spawn fails: the pool must trip its watchdog, finish the batch
    // in-process with identical results, and latch the engine out of the
    // distributed path.
    set_log_level(LogLevel::Error);
    const BatchOutcome clean = run_engine(quiet_config());
    EngineConfig config = quiet_config();
    config.workers = 2;
    config.chaos.spawn = 1.0;
    EvaluationEngine engine(config);
    const BatchOutcome outcome = engine.evaluate_points(
        engine_points(), pure_evaluator(), engine_context());
    expect_identical_ok(clean, outcome);
    EXPECT_TRUE(engine.pool_degraded());
}

TEST(DistribEngine, IsolatedWorkersRunEachCallsEvaluator) {
    // One-shot workers are forked per attempt, so an isolating engine that
    // is handed a different evaluator on each call — as the server does,
    // one per bucket — must score every call with that call's evaluator.
    set_log_level(LogLevel::Error);
    const PointEvaluator other = [](const Alpha& point, Rng& rng) {
        return std::cos(3.0 * point[1]) - 0.5 * point[0] +
               0.01 * rng.uniform();
    };
    EngineConfig config = quiet_config();
    config.resilience.isolate = true;
    EvaluationEngine isolated(config);
    std::uint64_t bucket = 0;
    for (const PointEvaluator& evaluator : {pure_evaluator(), other}) {
        EvalContext context = engine_context();
        context.key = mix_key(context.key, ++bucket);
        const BatchOutcome reference = EvaluationEngine(quiet_config())
            .evaluate_points(engine_points(), evaluator, context);
        expect_identical_ok(reference, isolated.evaluate_points(
                                           engine_points(), evaluator,
                                           context));
    }
    EXPECT_FALSE(isolated.pool_degraded());
}

// ------------------------------------------------------------------ //
// Fork safety of the thread pool under out-of-process evaluation.     //
// ------------------------------------------------------------------ //

TEST(ForkSafety, ForkedEvaluationsRunParallelLoopsWithoutDeadlock) {
    // A forked worker whose evaluator calls parallel_for above its grain
    // used to reuse the parent's ThreadPool, whose threads do not exist in
    // the child and whose locks are in whatever state a parent thread left
    // them at fork time: the child could block forever.  A parent thread
    // keeps the pool busy while the engine forks, so forks land inside
    // that window, and the trial timeout turns a hang into failed_timeout
    // instead of a stalled suite.  Both out-of-process modes fork.
    set_log_level(LogLevel::Error);
    const auto spread = [](std::vector<double>& values, double offset) {
        parallel_for(0, values.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                values[i] = std::sqrt(static_cast<double>(i) + offset);
            }
        });
    };
    const PointEvaluator evaluator = [&](const Alpha& point, Rng& rng) {
        std::vector<double> values(256);
        spread(values, point[0]);
        double sum = 0.0;
        for (const double value : values) sum += value;
        return sum + 0.01 * rng.uniform();
    };
    const std::vector<Alpha> points = {{0.1}, {0.2}, {0.3}, {0.4}};
    const EvalContext context = engine_context();
    const BatchOutcome clean =
        EvaluationEngine(quiet_config()).evaluate_points(points, evaluator,
                                                         context);
    const std::jthread busy([&](std::stop_token stop) {
        std::vector<double> values(256);
        while (!stop.stop_requested()) spread(values, 1.0);
    });
    for (const bool isolate : {true, false}) {
        for (int round = 0; round < 20; ++round) {
            EngineConfig config = quiet_config();
            config.resilience.isolate = isolate;
            config.workers = isolate ? 0 : 1;
            config.resilience.timeout_seconds = 2.0;
            config.resilience.max_retries = 0;
            EvaluationEngine engine(config);
            const BatchOutcome outcome =
                engine.evaluate_points(points, evaluator, context);
            for (std::size_t i = 0; i < points.size(); ++i) {
                EXPECT_EQ(outcome.statuses[i], TrialStatus::kOk)
                    << (isolate ? "isolate" : "workers=1") << " round "
                    << round << " candidate " << i;
                EXPECT_EQ(outcome.utilities[i], clean.utilities[i]);
            }
        }
    }
}

// ------------------------------------------------------------------ //
// Tentpole: full arch_search worker matrix + resume across counts.    //
// ------------------------------------------------------------------ //

class DistribSearchFixture : public ::testing::Test {
protected:
    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(1);
        const data::Dataset full = data::make_blobs(240, 3, 4.0, 0.6, rng);
        Rng split_rng(2);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }

    static models::ArchFamily tiny_family() {
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        return models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                       /*max_dropout_rate=*/0.5);
    }

    static ArchSearchConfig tiny_config() {
        ArchSearchConfig config;
        config.iterations = 5;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.final_epochs = 1;
        return config;
    }

    static std::vector<float> weights_of(nn::Module& net) {
        std::vector<float> values;
        for (const nn::Parameter* p : net.parameters()) {
            values.insert(values.end(), p->value.data(),
                          p->value.data() + p->value.size());
        }
        return values;
    }

    ArchSearchResult run_search(ArchSearchConfig config,
                                std::size_t workers) const {
        config.workers = workers;
        Rng rng(7);
        return arch_search(tiny_family(), train_, test_, config, rng);
    }

    static void expect_same_search(const ArchSearchResult& a,
                                   const ArchSearchResult& b,
                                   const std::string& label) {
        ASSERT_EQ(b.trials.size(), a.trials.size()) << label;
        for (std::size_t i = 0; i < a.trials.size(); ++i) {
            EXPECT_EQ(b.trials[i].x, a.trials[i].x) << label << " trial "
                                                    << i;
            EXPECT_EQ(b.trials[i].y, a.trials[i].y) << label << " trial "
                                                    << i;
        }
        EXPECT_EQ(b.best_point.values, a.best_point.values) << label;
        EXPECT_EQ(b.best_utility, a.best_utility) << label;
    }

    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(DistribSearchFixture, SearchBitIdenticalAcrossWorkerCounts) {
    // The acceptance bar: best point, GP trial set, utilities, the decoded
    // description, and the winner's weights all bitwise-equal between the
    // in-process engine path and every distributed worker count.
    const ArchSearchConfig config = tiny_config();
    const ArchSearchResult reference = run_search(config, 0);
    const models::ArchFamily family = tiny_family();
    const std::string reference_desc =
        family.space.describe(reference.best_point);
    const std::vector<float> reference_weights =
        weights_of(*reference.best_model.net);

    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        const ArchSearchResult result = run_search(config, workers);
        expect_same_search(reference, result,
                           "workers=" + std::to_string(workers));
        EXPECT_EQ(family.space.describe(result.best_point), reference_desc);
        EXPECT_EQ(weights_of(*result.best_model.net), reference_weights)
            << "workers=" << workers;
    }
}

TEST_F(DistribSearchFixture, ResumeAcrossWorkerCountsBitIdentical) {
    // A run checkpointed at --workers 4 must resume bit-exactly at
    // --workers 1: the worker count is provenance, not search state, so it
    // is excluded from the checkpoint's scenario digest.
    const ArchSearchResult reference = run_search(tiny_config(), 0);

    const std::string path = temp_path("resume.ckpt");
    fs::remove(path);
    ArchSearchConfig stopped = tiny_config();
    stopped.checkpoint.path = path;
    stopped.checkpoint.stop_after = 2;
    {
        const ArchSearchResult partial = run_search(stopped, 4);
        ASSERT_FALSE(partial.completed);
    }
    ArchSearchConfig resumed_config = tiny_config();
    resumed_config.checkpoint.path = path;
    const ArchSearchResult resumed = run_search(resumed_config, 1);
    EXPECT_TRUE(resumed.completed);
    EXPECT_GE(resumed.resumed_trials, 2U);
    expect_same_search(reference, resumed, "resume w4->w1");
    fs::remove(path);
}

TEST_F(DistribSearchFixture, WorkerCrashTortureSearchBitIdentical) {
    // The chaos x distribution acceptance case: under
    // BAYESFT_CHAOS=worker_crash:0.3 — injected through the same
    // environment door the CI chaos-smoke job uses (arch_search builds its
    // engine with ChaosSpec::from_env()) — the whole search, not just one
    // batch, must complete with every trial recovered and the final best
    // point bitwise the clean run's, at worker counts 1, 2, and 4.
    const ArchSearchResult reference = run_search(tiny_config(), 0);
    ArchSearchConfig config = tiny_config();
    config.resilience.max_retries = 8;
    ::setenv("BAYESFT_CHAOS", "worker_crash:0.3", 1);
    for (const std::size_t workers : {1UL, 2UL, 4UL}) {
        const ArchSearchResult result = run_search(config, workers);
        expect_same_search(reference, result,
                           "chaos workers=" + std::to_string(workers));
    }
    ::unsetenv("BAYESFT_CHAOS");
}

#endif  // BAYESFT_TEST_POSIX

}  // namespace
}  // namespace bayesft::core
