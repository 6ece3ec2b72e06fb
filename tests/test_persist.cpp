// Run persistence: checkpoint file round trips (bit-exact doubles, digest
// and version validation, corruption rejection, a fixed-RNG mutation
// corpus over live and legacy checkpoints and a live model file), engine
// memo-cache export/import, model snapshot/restore, model files, the
// JSONL run store + report summaries, and the
// kill/resume torture tests — a search interrupted at every trial boundary
// and resumed from its checkpoint must produce final results (best point,
// GP trial history, model weights) bitwise equal to an uninterrupted run,
// for bayesft_search (classifier and fig3j's detector) and arch_search at
// 1 and 4 evaluation threads (docs/checkpointing.md).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/archsearch.hpp"
#include "core/bayesft.hpp"
#include "core/engine.hpp"
#include "core/persist.hpp"
#include "core/runstore.hpp"
#include "data/toy.hpp"
#include "detector_fixture.hpp"
#include "models/zoo.hpp"
#include "utils/logging.hpp"

namespace bayesft::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
    return (fs::temp_directory_path() / ("bayesft_persist_" + name))
        .string();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
}

std::vector<float> weights_of(nn::Module& net) {
    std::vector<float> values;
    for (const nn::Parameter* p : net.parameters()) {
        values.insert(values.end(), p->value.data(),
                      p->value.data() + p->value.size());
    }
    return values;
}

// ---------------------------------------------------------------- Rng ----

TEST(RngStateTest, SaveRestoreContinuesBitIdentically) {
    Rng rng(123);
    for (int i = 0; i < 7; ++i) rng.uniform();
    rng.normal();  // leaves a cached Box-Muller variate behind
    const RngState saved = rng.state();

    std::vector<double> expected;
    for (int i = 0; i < 16; ++i) expected.push_back(rng.normal());

    Rng other(999);  // unrelated seed; state() must fully override it
    other.set_state(saved);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(expected[static_cast<std::size_t>(i)], other.normal());
    }
}

// --------------------------------------------------- checkpoint file ----

SearchCheckpoint sample_checkpoint() {
    SearchCheckpoint cp;
    cp.run_id = "unit test run";
    cp.build = "v1-test-dirty";
    cp.space_digest = 0x1234ABCDULL;
    cp.scenario_digest = 0xFEDC4321ULL;
    cp.context_key = 77;
    cp.context_stamp = 3;
    cp.trials_done = 2;
    Rng rng(5);
    rng.normal();
    cp.run_rng = rng.state();
    cp.bo.rng = Rng(9).state();
    cp.bo.initial_used = 1;
    cp.bo.initial_plan = {{0.125, -0.0}, {0.6, 1e-300}};
    cp.bo.trials = {{{0.1, 0.2}, 0.875}, {{0.3, 0.4}, -1.5e-17}};
    cp.cache = {{{0.1, 0.2}, 0.875}};
    cp.model_bits = {0u, 0x3F800000u, 0x80000000u, 0x7F7FFFFFu, 1u};
    cp.model_rngs = {Rng(1).state(), Rng(2).state()};
    cp.model_digest = 0xD16E57ULL;
    cp.bo.trust_region.length = 0.2;
    cp.bo.trust_region.successes = 1;
    cp.bo.trust_region.failures = 4;
    cp.bo.trust_region.restarts = 2;
    return cp;
}

TEST(CheckpointFileTest, RoundTripIsBitExact) {
    const std::string path = temp_path("roundtrip.ckpt");
    const SearchCheckpoint cp = sample_checkpoint();
    save_checkpoint(cp, path);
    const SearchCheckpoint loaded = load_checkpoint(path);

    EXPECT_EQ(cp.run_id, loaded.run_id);
    EXPECT_EQ(cp.build, loaded.build);
    EXPECT_EQ(cp.space_digest, loaded.space_digest);
    EXPECT_EQ(cp.scenario_digest, loaded.scenario_digest);
    EXPECT_EQ(cp.context_key, loaded.context_key);
    EXPECT_EQ(cp.context_stamp, loaded.context_stamp);
    EXPECT_EQ(cp.trials_done, loaded.trials_done);
    EXPECT_EQ(cp.run_rng, loaded.run_rng);
    EXPECT_EQ(cp.bo.rng, loaded.bo.rng);
    EXPECT_EQ(cp.bo.initial_used, loaded.bo.initial_used);
    ASSERT_EQ(cp.bo.initial_plan, loaded.bo.initial_plan);
    ASSERT_EQ(cp.bo.trials.size(), loaded.bo.trials.size());
    for (std::size_t i = 0; i < cp.bo.trials.size(); ++i) {
        EXPECT_EQ(cp.bo.trials[i].x, loaded.bo.trials[i].x);
        EXPECT_EQ(cp.bo.trials[i].y, loaded.bo.trials[i].y);
    }
    EXPECT_EQ(cp.cache, loaded.cache);
    EXPECT_EQ(cp.model_bits, loaded.model_bits);
    ASSERT_EQ(cp.model_rngs.size(), loaded.model_rngs.size());
    for (std::size_t i = 0; i < cp.model_rngs.size(); ++i) {
        EXPECT_EQ(cp.model_rngs[i], loaded.model_rngs[i]);
    }
    EXPECT_EQ(cp.model_digest, loaded.model_digest);
    EXPECT_EQ(cp.bo.trust_region.length, loaded.bo.trust_region.length);
    EXPECT_EQ(cp.bo.trust_region.successes,
              loaded.bo.trust_region.successes);
    EXPECT_EQ(cp.bo.trust_region.failures, loaded.bo.trust_region.failures);
    EXPECT_EQ(cp.bo.trust_region.restarts, loaded.bo.trust_region.restarts);
    // -0.0 must survive as -0.0 (bit pattern, not value, equality).
    EXPECT_TRUE(std::signbit(loaded.bo.initial_plan[0][1]));
    fs::remove(path);
}

TEST(CheckpointFileTest, LoadsVersion2WithoutTrustRegionRecord) {
    // A v2 file is a v3 file minus the trust_region record with a v2
    // header — exactly what the pre-v3 writer produced.  It must load with
    // the trust region at its "freshly initialized" default (length 0, so
    // BayesOpt::import_state installs the configured initial edge).
    const std::string path = temp_path("v2.ckpt");
    save_checkpoint(sample_checkpoint(), path);
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string header = "bayesft-checkpoint 3\n";
    ASSERT_EQ(text.rfind(header, 0), 0U);
    text.replace(0, header.size(), "bayesft-checkpoint 2\n");
    const std::size_t tr_start = text.find("trust_region ");
    ASSERT_NE(tr_start, std::string::npos);
    const std::size_t tr_end = text.find('\n', tr_start);
    text.erase(tr_start, tr_end - tr_start + 1);
    {
        std::ofstream out(path);
        out << text;
    }

    const SearchCheckpoint loaded = load_checkpoint(path);
    const SearchCheckpoint cp = sample_checkpoint();
    EXPECT_EQ(cp.trials_done, loaded.trials_done);
    EXPECT_EQ(cp.bo.initial_used, loaded.bo.initial_used);
    EXPECT_EQ(cp.model_bits, loaded.model_bits);
    EXPECT_EQ(loaded.bo.trust_region.length, 0.0);
    EXPECT_EQ(loaded.bo.trust_region.successes, 0U);
    EXPECT_EQ(loaded.bo.trust_region.failures, 0U);
    EXPECT_EQ(loaded.bo.trust_region.restarts, 0U);
    fs::remove(path);
}

TEST(CheckpointFileTest, RejectsVersionsOutsideTheReadableRange) {
    const std::string path = temp_path("v1.ckpt");
    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 1\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 4\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    fs::remove(path);
}

TEST(ScenarioDigestTest, TrustRegionFoldsOnlyWhenEnabled) {
    // Disabled trust regions must leave every pre-existing scenario digest
    // (hence every v2 checkpoint) untouched, whatever the knob values;
    // enabling folds the knobs, so a resume under different trust-region
    // settings is rejected.
    bayesopt::BayesOptConfig base;
    const std::uint64_t plain = mix_bo_config(7, base);

    bayesopt::BayesOptConfig tweaked = base;
    tweaked.trust_region.activate_after = 123;
    tweaked.trust_region.initial_length = 0.7;
    EXPECT_EQ(mix_bo_config(7, tweaked), plain);

    bayesopt::BayesOptConfig enabled = base;
    enabled.trust_region.enabled = true;
    const std::uint64_t on = mix_bo_config(7, enabled);
    EXPECT_NE(on, plain);

    bayesopt::BayesOptConfig enabled_other = enabled;
    enabled_other.trust_region.activate_after += 1;
    EXPECT_NE(mix_bo_config(7, enabled_other), on);
}

TEST(CheckpointFileTest, SaveIsAtomicViaRename) {
    const std::string path = temp_path("atomic.ckpt");
    save_checkpoint(sample_checkpoint(), path);
    EXPECT_TRUE(checkpoint_exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    fs::remove(path);
}

TEST(CheckpointFileTest, LoadRejectsMissingCorruptAndForeignVersions) {
    EXPECT_THROW(load_checkpoint(temp_path("no_such_file.ckpt")),
                 std::runtime_error);

    const std::string path = temp_path("bad.ckpt");
    {
        std::ofstream out(path);
        out << "not a checkpoint at all\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);

    {
        std::ofstream out(path);
        out << "bayesft-checkpoint 999\n";
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);

    // Truncation: drop the end marker (and the model_rngs payload).
    save_checkpoint(sample_checkpoint(), path);
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    {
        std::ofstream out(path);
        out << text.substr(0, text.size() / 2);
    }
    EXPECT_THROW(load_checkpoint(path), std::runtime_error);

    // A single-value record with its value missing or with extra tokens
    // rejects the file, naming the record and the path.
    save_checkpoint(sample_checkpoint(), path);
    const std::string good = read_file(path);
    for (const std::string key :
         {"space_digest", "scenario_digest", "context_key", "context_stamp",
          "trials_done", "initial_used"}) {
        const std::size_t start = good.find("\n" + key + " ") + 1;
        ASSERT_NE(start, 0U) << key;
        const std::size_t end = good.find('\n', start);
        for (const std::string& line :
             {key, good.substr(start, end - start) + " 7"}) {
            write_file(path, good.substr(0, start) + line + good.substr(end));
            try {
                load_checkpoint(path);
                ADD_FAILURE() << "accepted '" << line << "'";
            } catch (const std::runtime_error& error) {
                const std::string what = error.what();
                EXPECT_EQ(what.rfind("checkpoint: ", 0), 0U) << what;
                EXPECT_NE(what.find("'" + key + "'"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(path), std::string::npos) << what;
            }
        }
    }
    fs::remove(path);
}

TEST(CheckpointFileTest, LoadRejectsPrefixedAndSignedFields) {
    // Hex fields take the run store's format_hex digits and nothing else,
    // decimal fields digits only.  A "0x" prefix or a sign rejects the
    // file, naming it, instead of loading a wrapped value: a model word
    // -0000001 would load as 0xFFFFFFFF, a NaN weight.
    const std::string path = temp_path("lax.ckpt");
    save_checkpoint(sample_checkpoint(), path);
    const std::string good = read_file(path);
    // Where the first token after "<key> " (or on the line below) starts.
    const auto after = [&](const std::string& key) {
        return good.find("\n" + key + " ") + key.size() + 2;
    };
    const auto line_below = [&](const std::string& key) {
        return good.find('\n', after(key)) + 1;
    };
    const std::pair<std::size_t, std::string> mutants[] = {
        {after("context_key"), "0x0000000000004d"},
        {line_below("model"), "-0000001"},
        {after("context_stamp"), "-1"},
        {after("space_digest"), "+ff"},
        {line_below("trials"), "+ff"},
    };
    for (const auto& [start, token] : mutants) {
        const std::size_t end = good.find_first_of(" \n", start);
        write_file(path, good.substr(0, start) + token + good.substr(end));
        try {
            load_checkpoint(path);
            ADD_FAILURE() << "accepted '" << token << "' at byte " << start;
        } catch (const std::runtime_error& error) {
            const std::string what = error.what();
            EXPECT_EQ(what.rfind("checkpoint: ", 0), 0U) << what;
            EXPECT_NE(what.find("'" + token + "'"), std::string::npos)
                << what;
            EXPECT_NE(what.find(path), std::string::npos) << what;
        }
    }
    fs::remove(path);
}

TEST(CheckpointFileTest, ValidateRejectsForeignScenario) {
    const SearchCheckpoint cp = sample_checkpoint();
    EXPECT_NO_THROW(validate_checkpoint(cp, cp.space_digest,
                                        cp.scenario_digest, "p"));
    EXPECT_THROW(
        validate_checkpoint(cp, cp.space_digest + 1, cp.scenario_digest,
                            "p"),
        std::runtime_error);
    EXPECT_THROW(
        validate_checkpoint(cp, cp.space_digest, cp.scenario_digest + 1,
                            "p"),
        std::runtime_error);
}

// ------------------------------------------------- model snapshots ----

TEST(ModelSnapshotTest, RoundTripRestoresWeightsAndMaskStreams) {
    models::MlpOptions options;
    options.input_features = 2;
    options.hidden = 8;
    options.classes = 3;
    Rng rng(4);
    models::ModelHandle model = models::make_mlp(options, rng);
    const std::vector<std::uint32_t> bits = snapshot_model(*model.net);
    const std::vector<RngState> rngs = snapshot_model_rngs(*model.net);
    const std::uint64_t digest = model_structure_digest(*model.net);
    ASSERT_FALSE(bits.empty());
    ASSERT_EQ(rngs.size(), model.dropout_sites.size());

    // Perturb everything, then restore.
    for (nn::Parameter* p : model.net->parameters()) {
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            p->value.data()[i] += 1.0F;
        }
    }
    restore_model(*model.net, bits);
    restore_model_rngs(*model.net, rngs);
    EXPECT_EQ(bits, snapshot_model(*model.net));
    EXPECT_EQ(digest, model_structure_digest(*model.net));

    // A structurally different model digests differently and rejects the
    // payload.
    models::MlpOptions other = options;
    other.hidden = 9;
    Rng other_rng(4);
    models::ModelHandle wrong = models::make_mlp(other, other_rng);
    EXPECT_NE(digest, model_structure_digest(*wrong.net));
    EXPECT_THROW(restore_model(*wrong.net, bits), std::runtime_error);
}

TEST(ModelFileTest, CheckpointsAndModelFilesRefuseEachOther) {
    models::MlpOptions options;
    options.input_features = 2;
    options.hidden = 8;
    options.classes = 3;
    Rng rng(5);
    models::ModelHandle model = models::make_mlp(options, rng);
    const std::vector<std::uint32_t> bits = snapshot_model(*model.net);

    const std::string checkpoint_path = temp_path("refuse.ckpt");
    const std::string model_path = temp_path("refuse.model");
    save_checkpoint(sample_checkpoint(), checkpoint_path);
    save_model(*model.net, model_path);
    EXPECT_THROW(load_model(*model.net, checkpoint_path), std::runtime_error);
    EXPECT_EQ(bits, snapshot_model(*model.net));
    EXPECT_THROW(load_checkpoint(model_path), std::runtime_error);
    EXPECT_NO_THROW(load_model(*model.net, model_path));
    EXPECT_EQ(bits, snapshot_model(*model.net));
    fs::remove(checkpoint_path);
    fs::remove(model_path);
}

// ------------------------------------------------ engine memo cache ----

TEST(EngineCacheTest, ExportImportServesDuplicatesAcrossEngines) {
    EvaluationEngine engine(EngineConfig{.threads = 1, .cache = true});
    EvalContext context;
    context.key = 42;
    std::size_t evaluations = 0;
    const PointEvaluator evaluator = [&](const Alpha& point, Rng&) {
        ++evaluations;
        return point[0] * 10.0;
    };
    const std::vector<Alpha> points = {{0.1}, {0.2}};
    engine.evaluate_points(points, evaluator, context);
    EXPECT_EQ(2u, evaluations);
    const auto entries = engine.export_cache();
    ASSERT_EQ(2u, entries.size());
    EXPECT_LT(entries[0].first, entries[1].first);  // deterministic order

    EvaluationEngine fresh(EngineConfig{.threads = 1, .cache = true});
    fresh.import_cache(context, entries);
    const BatchOutcome outcome =
        fresh.evaluate_points(points, evaluator, context);
    EXPECT_EQ(2u, evaluations);  // both served from the imported cache
    EXPECT_EQ(2u, outcome.cache_hits);
    EXPECT_EQ(1.0, outcome.utilities[0]);
    EXPECT_EQ(2.0, outcome.utilities[1]);
}

// --------------------------------------------------------- run store ----

TEST(RunStoreTest, AppendParseAndSummarize) {
    const std::string root = temp_path("store_dir");
    fs::remove_all(root);
    RunStore store(root);

    auto trial = [&](std::uint64_t seed, std::uint64_t index,
                     double objective) {
        RunRecord r;
        r.kind = "trial";
        r.scenario = "toy";
        r.family = "toy";
        r.seed = seed;
        r.trial = index;
        r.point = "alpha0=0.100";
        r.objective = objective;
        r.build = "stamp";
        return r;
    };
    RunRecord summary;
    summary.kind = "summary";
    summary.scenario = "toy";
    summary.family = "toy";
    summary.seed = 0;
    summary.trials = 3;
    summary.best_trial = 2;
    summary.best_point = "alpha0=0.100";
    summary.best_objective = 0.9;
    summary.seconds = 1.25;
    summary.annotation = "norm=batch \"quoted\"";
    summary.build = "stamp";

    RunRecord summary1 = summary;
    summary1.seed = 1;
    summary1.trials = 2;
    summary1.best_trial = 1;
    summary1.best_objective = 0.8;
    store.append("toy", {trial(0, 0, 0.5), trial(0, 1, 0.7),
                         trial(0, 2, 0.9), summary});
    store.append("toy", {trial(1, 0, 0.6), trial(1, 1, 0.8), summary1});
    // Seed 2 was interrupted and never resumed (no summary): its partial
    // series — even with the highest single objective — must not enter
    // the aggregates.
    store.append("toy", {trial(2, 0, 0.95)});

    const std::vector<RunRecord> records = store.load_all();
    ASSERT_EQ(8u, records.size());
    EXPECT_EQ("trial", records[0].kind);
    EXPECT_EQ(0.5, records[0].objective);  // %.17g round trip is exact
    EXPECT_EQ("summary", records[3].kind);
    EXPECT_EQ("norm=batch \"quoted\"", records[3].annotation);
    EXPECT_EQ(1.25, records[3].seconds);

    const auto summaries = summarize_runs(records, 0.99);
    ASSERT_EQ(1u, summaries.size());
    const ScenarioSummary& s = summaries[0];
    EXPECT_EQ("toy", s.scenario);
    EXPECT_EQ(2u, s.runs);
    EXPECT_EQ(2u, s.seeds);  // seed 2 is incomplete
    EXPECT_EQ(6u, s.trial_records);
    EXPECT_EQ(0.9, s.best_objective);
    EXPECT_EQ(0u, s.best_seed);
    EXPECT_NEAR(0.85, s.mean_best, 1e-12);   // (0.9 + 0.8) / 2
    EXPECT_NEAR(0.05, s.stddev_best, 1e-12);
    // Seed 0 reaches 0.99 * 0.9 at trial 3; seed 1 at trial 2.
    EXPECT_NEAR(2.5, s.mean_trials_to_target, 1e-12);
    fs::remove_all(root);
}

TEST(RunStoreTest, ValidateOutputFileGivesClearErrors) {
    const std::string dir = temp_path("out_dir");
    fs::create_directories(dir);
    EXPECT_THROW(validate_output_file(dir), std::runtime_error);
    EXPECT_THROW(
        validate_output_file(temp_path("missing_parent") + "/x.json"),
        std::runtime_error);

    const std::string ok = temp_path("ok.json");
    fs::remove(ok);
    EXPECT_NO_THROW(validate_output_file(ok));
    EXPECT_FALSE(fs::exists(ok));  // the probe cleans up after itself

    // An existing file stays untouched (append-mode probe).
    {
        std::ofstream out(ok);
        out << "payload";
    }
    EXPECT_NO_THROW(validate_output_file(ok));
    std::ifstream in(ok);
    std::string text;
    std::getline(in, text);
    EXPECT_EQ("payload", text);
    fs::remove_all(dir);
    fs::remove(ok);
}

/// format_hex writes the bytes snprintf's "%016llx" writes, for the
/// extremes of the range and for the bit patterns of -0.0 and a NaN, the
/// doubles a checkpoint or run-store line must carry bit-exactly; and
/// parse_hex / parse_bits take them back.
TEST(RunStoreTest, FormatHexMatchesSnprintf) {
    const double negative_zero = -0.0;
    const double nan = std::nan("");
    std::uint64_t negative_zero_bits = 0;
    std::uint64_t nan_bits = 0;
    std::memcpy(&negative_zero_bits, &negative_zero, sizeof negative_zero);
    std::memcpy(&nan_bits, &nan, sizeof nan);
    const std::uint64_t values[] = {0,
                                    1,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0},
                                    negative_zero_bits,
                                    nan_bits,
                                    0x0123456789abcdefULL};
    for (const std::uint64_t v : values) {
        char want[24];
        std::snprintf(want, sizeof want, "%016llx",
                      static_cast<unsigned long long>(v));
        EXPECT_EQ(format_hex(v), std::string(want)) << want;
        std::uint64_t back = 0;
        EXPECT_TRUE(parse_hex(format_hex(v), back)) << want;
        EXPECT_EQ(back, v) << want;
    }
    EXPECT_EQ(format_bits(negative_zero), "8000000000000000");
    double back = 0.0;
    ASSERT_TRUE(parse_bits(format_bits(nan), back));
    std::uint64_t back_bits = 0;
    std::memcpy(&back_bits, &back, sizeof back);
    EXPECT_EQ(back_bits, nan_bits);
}

// ------------------------------------------- kill/resume: bayesft ----

class ResumeTortureFixture : public ::testing::Test {
protected:
    void SetUp() override {
        set_log_level(LogLevel::Error);
        Rng rng(21);
        const data::Dataset full = data::make_blobs(200, 3, 4.0, 0.6, rng);
        Rng split_rng(22);
        auto parts = data::split(full, 0.3, split_rng);
        train_ = std::move(parts.train);
        test_ = std::move(parts.test);
    }

    static models::ModelHandle make_model() {
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 10;
        options.hidden_layers = 2;  // two searchable dropout sites
        options.classes = 3;
        Rng rng(31);
        return models::make_mlp(options, rng);
    }

    static BayesFTConfig bayesft_config(std::size_t batch,
                                        std::size_t threads) {
        BayesFTConfig config;
        config.iterations = 5;
        config.epochs_per_iteration = 1;
        config.train.epochs = 1;
        config.train.batch_size = 32;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.warmup_epochs = 1;
        config.final_epochs = 1;
        config.max_dropout_rate = 0.5;
        config.batch = batch;
        config.eval_threads = threads;
        return config;
    }

    static ArchSearchConfig arch_config(std::size_t batch,
                                        std::size_t threads) {
        ArchSearchConfig config;
        config.iterations = 5;
        config.train.epochs = 1;
        config.objective.sigmas = {0.5};
        config.objective.mc_samples = 1;
        config.bo.initial_random_trials = 2;
        config.bo.candidates = 64;
        config.bo.local_candidates = 16;
        config.final_epochs = 1;
        config.batch = batch;
        config.eval_threads = threads;
        return config;
    }

    static models::ArchFamily tiny_family() {
        models::MlpOptions base;
        base.input_features = 2;
        base.hidden = 12;
        base.classes = 3;
        return models::mlp_arch_family(base, /*max_hidden_layers=*/2,
                                       /*max_dropout_rate=*/0.5);
    }

    static void expect_same_trials(const std::vector<bayesopt::Trial>& a,
                                   const std::vector<bayesopt::Trial>& b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].x, b[i].x) << "trial " << i;
            EXPECT_EQ(a[i].y, b[i].y) << "trial " << i;
        }
    }

    /// Interrupt after `stop` trials, resume to completion, and demand
    /// bitwise equality with `reference` (results + final weights).
    void check_bayesft_resume(const BayesFTConfig& base,
                              const BayesFTResult& reference,
                              const std::vector<float>& reference_weights,
                              std::size_t stop,
                              const std::string& path) const {
        fs::remove(path);
        BayesFTConfig config = base;
        config.checkpoint.path = path;
        config.checkpoint.stop_after = stop;
        {
            models::ModelHandle model = make_model();
            Rng rng(41);
            const BayesFTResult partial =
                bayesft_search(model, train_, test_, config, rng);
            ASSERT_FALSE(partial.completed) << "stop=" << stop;
            ASSERT_TRUE(checkpoint_exists(path));
        }
        models::ModelHandle model = make_model();
        Rng rng(41);
        config.checkpoint.stop_after = 0;
        const BayesFTResult resumed =
            bayesft_search(model, train_, test_, config, rng);
        EXPECT_TRUE(resumed.completed);
        EXPECT_GE(resumed.resumed_trials, stop);
        EXPECT_EQ(reference.best_alpha, resumed.best_alpha)
            << "stop=" << stop;
        EXPECT_EQ(reference.best_utility, resumed.best_utility)
            << "stop=" << stop;
        expect_same_trials(reference.trials, resumed.trials);
        EXPECT_EQ(reference.trial_points, resumed.trial_points);
        EXPECT_EQ(reference_weights, weights_of(*model.net))
            << "stop=" << stop;
        fs::remove(path);
    }

    void bayesft_torture(std::size_t batch, std::size_t threads,
                         const std::string& tag) const {
        const BayesFTConfig config = bayesft_config(batch, threads);
        models::ModelHandle reference_model = make_model();
        Rng reference_rng(41);
        const BayesFTResult reference = bayesft_search(
            reference_model, train_, test_, config, reference_rng);
        const std::vector<float> reference_weights =
            weights_of(*reference_model.net);
        const std::string path = temp_path("bayesft_" + tag + ".ckpt");

        // A checkpoint-enabled run that is never interrupted must already
        // be bit-identical (writing snapshots must not perturb anything).
        {
            fs::remove(path);
            BayesFTConfig checkpointed = config;
            checkpointed.checkpoint.path = path;
            models::ModelHandle model = make_model();
            Rng rng(41);
            const BayesFTResult straight =
                bayesft_search(model, train_, test_, checkpointed, rng);
            EXPECT_EQ(reference.best_alpha, straight.best_alpha);
            EXPECT_EQ(reference.best_utility, straight.best_utility);
            EXPECT_EQ(reference_weights, weights_of(*model.net));
            fs::remove(path);
        }
        // Interrupt at every trial(-group) boundary.
        for (std::size_t stop = 1; stop < config.iterations; ++stop) {
            check_bayesft_resume(config, reference, reference_weights, stop,
                                 path);
        }
    }

    data::Dataset train_;
    data::Dataset test_;
};

TEST_F(ResumeTortureFixture, BayesftResumeBitIdenticalSerial1Thread) {
    bayesft_torture(/*batch=*/1, /*threads=*/1, "serial");
}

TEST_F(ResumeTortureFixture, BayesftResumeBitIdenticalBatched4Threads) {
    bayesft_torture(/*batch=*/2, /*threads=*/4, "batched");
}

TEST_F(ResumeTortureFixture, BayesftResumeRejectsDifferentSeedOrConfig) {
    const std::string path = temp_path("bayesft_guard.ckpt");
    fs::remove(path);
    BayesFTConfig config = bayesft_config(1, 1);
    config.checkpoint.path = path;
    config.checkpoint.stop_after = 2;
    {
        models::ModelHandle model = make_model();
        Rng rng(41);
        bayesft_search(model, train_, test_, config, rng);
    }
    config.checkpoint.stop_after = 0;
    {
        // Different seed => different entry RNG state => digest mismatch.
        models::ModelHandle model = make_model();
        Rng rng(42);
        EXPECT_THROW(bayesft_search(model, train_, test_, config, rng),
                     std::runtime_error);
    }
    {
        // Different objective configuration is rejected too.
        BayesFTConfig other = config;
        other.objective.sigmas = {0.9};
        models::ModelHandle model = make_model();
        Rng rng(41);
        EXPECT_THROW(bayesft_search(model, train_, test_, other, rng),
                     std::runtime_error);
    }
    {
        // Different architecture: scenario digests match, model digest
        // must not.
        models::MlpOptions options;
        options.input_features = 2;
        options.hidden = 14;
        options.hidden_layers = 2;
        options.classes = 3;
        Rng model_rng(31);
        models::ModelHandle model = models::make_mlp(options, model_rng);
        Rng rng(41);
        EXPECT_THROW(bayesft_search(model, train_, test_, config, rng),
                     std::runtime_error);
    }
    fs::remove(path);
}

// ---------------------------------------- kill/resume: arch search ----

TEST_F(ResumeTortureFixture, ArchSearchResumeBitIdenticalSerialAndBatched) {
    for (const auto& [batch, threads, tag] :
         {std::tuple<std::size_t, std::size_t, const char*>{1, 1, "s"},
          std::tuple<std::size_t, std::size_t, const char*>{2, 4, "b"}}) {
        const models::ArchFamily family = tiny_family();
        const ArchSearchConfig config = arch_config(batch, threads);
        Rng reference_rng(51);
        const ArchSearchResult reference =
            arch_search(family, train_, test_, config, reference_rng);
        const std::vector<float> reference_weights =
            weights_of(*reference.best_model.net);
        const std::string path =
            temp_path(std::string("arch_") + tag + ".ckpt");

        for (std::size_t stop = 1; stop < config.iterations; ++stop) {
            fs::remove(path);
            ArchSearchConfig interrupted = config;
            interrupted.checkpoint.path = path;
            interrupted.checkpoint.stop_after = stop;
            {
                Rng rng(51);
                const ArchSearchResult partial = arch_search(
                    family, train_, test_, interrupted, rng);
                ASSERT_FALSE(partial.completed);
                ASSERT_FALSE(partial.best_model.net);
                ASSERT_TRUE(checkpoint_exists(path));
            }
            Rng rng(51);
            interrupted.checkpoint.stop_after = 0;
            const ArchSearchResult resumed =
                arch_search(family, train_, test_, interrupted, rng);
            EXPECT_TRUE(resumed.completed);
            EXPECT_EQ(reference.best_point.values,
                      resumed.best_point.values)
                << tag << " stop=" << stop;
            EXPECT_EQ(reference.best_utility, resumed.best_utility);
            expect_same_trials(reference.trials, resumed.trials);
            EXPECT_EQ(reference_weights,
                      weights_of(*resumed.best_model.net))
                << tag << " stop=" << stop;
            fs::remove(path);
        }
    }
}

TEST_F(ResumeTortureFixture, ArchSearchRefusesCheckpointFromOtherNumerics) {
    // Checkpoints written before kNumericsGeneration carry a scenario
    // digest without it.  Resuming one would continue a search under
    // different arithmetic, so it must be refused, naming the generation.
    const models::ArchFamily family = tiny_family();
    ArchSearchConfig config = arch_config(1, 1);
    const std::string path = temp_path("arch_numerics.ckpt");
    fs::remove(path);
    config.checkpoint.path = path;
    config.checkpoint.stop_after = 2;
    Rng rng(51);
    const RngState entry = rng.state();
    arch_search(family, train_, test_, config, rng);
    SearchCheckpoint cp = load_checkpoint(path);

    // arch_search's scenario digest up to the generation.
    std::uint64_t key = objective_digest(config.objective);
    key = mix_key(key, static_cast<std::uint64_t>(config.iterations));
    key = mix_key(key, static_cast<std::uint64_t>(config.final_epochs));
    key = mix_key(key, static_cast<std::uint64_t>(config.batch));
    key = mix_key(key, std::string_view(config.acquisition));
    const double reals[] = {config.kernel_inverse_scale,
                            config.hamming_weight};
    key = mix_key(key, reals, 2);
    key = mix_bo_config(key, config.bo);
    key = mix_train_config(key, config.train);
    ASSERT_EQ(cp.scenario_digest,
              mix_rng_state(mix_key(key, kNumericsGeneration), entry));

    cp.scenario_digest = mix_rng_state(key, entry);
    save_checkpoint(cp, path);
    config.checkpoint.stop_after = 0;
    Rng again(51);
    try {
        arch_search(family, train_, test_, config, again);
        ADD_FAILURE() << "resumed a checkpoint from another numerics "
                         "generation";
    } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("numerics generation (this build: " +
                            std::to_string(kNumericsGeneration) + ")"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
    fs::remove(path);
}

// ------------------------------------------ kill/resume: detector ----

TEST_F(ResumeTortureFixture, DetectorSearchResumeBitIdenticalSerialAndBatched) {
    const testing::DetectorScenes scenes = testing::small_detector_scenes();
    // fig3j's protocol: the searched network is a clone of a fresh
    // detector's, trained and decoded through that detector.
    const auto search = [&](const BayesFTConfig& config,
                            std::vector<float>& weights) {
        Rng rng(112);
        detect::GridDetector detector(detect::GridDetectorConfig{}, rng);
        models::ModelHandle model = testing::searched_network(detector);
        const BayesFTResult result = bayesft_search(
            model, detector, scenes.train, scenes.val, config, rng);
        weights = weights_of(*model.net);
        return result;
    };
    for (const auto& [batch, threads, tag] :
         {std::tuple<std::size_t, std::size_t, const char*>{1, 1, "s"},
          std::tuple<std::size_t, std::size_t, const char*>{2, 4, "b"}}) {
        const BayesFTConfig config =
            testing::detector_search_config(batch, threads);
        std::vector<float> reference_weights;
        const BayesFTResult reference = search(config, reference_weights);
        const std::string path =
            temp_path(std::string("detector_") + tag + ".ckpt");
        for (std::size_t stop = 1; stop < config.iterations; ++stop) {
            fs::remove(path);
            BayesFTConfig interrupted = config;
            interrupted.checkpoint.path = path;
            interrupted.checkpoint.stop_after = stop;
            std::vector<float> weights;
            ASSERT_FALSE(search(interrupted, weights).completed);
            ASSERT_TRUE(checkpoint_exists(path));
            interrupted.checkpoint.stop_after = 0;
            const BayesFTResult resumed = search(interrupted, weights);
            EXPECT_TRUE(resumed.completed);
            EXPECT_GE(resumed.resumed_trials, stop);
            expect_same_trials(reference.trials, resumed.trials);
            EXPECT_EQ(reference.trial_points, resumed.trial_points);
            EXPECT_EQ(reference.best_alpha, resumed.best_alpha)
                << tag << " stop=" << stop;
            EXPECT_EQ(reference_weights, weights) << tag << " stop=" << stop;
            fs::remove(path);
        }
    }
}

// ------------------------------------------- checkpoint loader fuzz ----

/// One fixed-RNG mutant of a checkpoint file: a truncation, a flipped
/// byte, a deleted or duplicated line, or one token replaced by an extreme
/// value.
std::string mutate(const std::string& text, Rng& rng) {
    std::vector<std::size_t> line_starts{0};
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n' && i + 1 < text.size()) {
            line_starts.push_back(i + 1);
        }
        const bool starts = text[i] != ' ' && text[i] != '\n' &&
                            (i == 0 || text[i - 1] == ' ' ||
                             text[i - 1] == '\n');
        if (starts) tokens.emplace_back(i, text.find_first_of(" \n", i) - i);
    }
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform_int(n));
    };
    std::string out = text;
    const std::size_t line = pick(line_starts.size());
    const std::size_t line_start = line_starts[line];
    const std::size_t line_end = line + 1 < line_starts.size()
                                     ? line_starts[line + 1]
                                     : text.size();
    switch (pick(5)) {
        case 0:
            out.resize(pick(text.size()));
            break;
        case 1:
            out[pick(out.size())] ^= static_cast<char>(1 + pick(255));
            break;
        case 2:
            out.erase(line_start, line_end - line_start);
            break;
        case 3:
            out.insert(line_start,
                       text.substr(line_start, line_end - line_start));
            break;
        default: {
            static const char* const kValues[] = {"18446744073709551615",
                                                  "-1", "0"};
            const auto [at, length] = tokens[pick(tokens.size())];
            out.replace(at, length, kValues[pick(3)]);
        }
    }
    return out;
}

TEST_F(ResumeTortureFixture, CheckpointLoaderSurvivesMutationCorpus) {
    // The corpus: a live bayesft_search checkpoint (model bits), a live
    // arch_search checkpoint (memo cache), and the committed v2 fixture;
    // then a live model file.
    const std::string live_path = temp_path("fuzz_live.ckpt");
    std::vector<std::string> corpus;
    {
        fs::remove(live_path);
        BayesFTConfig config = bayesft_config(1, 1);
        config.checkpoint.path = live_path;
        config.checkpoint.stop_after = 2;
        models::ModelHandle model = make_model();
        Rng rng(41);
        bayesft_search(model, train_, test_, config, rng);
        corpus.push_back(read_file(live_path));
    }
    {
        fs::remove(live_path);
        ArchSearchConfig config = arch_config(1, 1);
        config.checkpoint.path = live_path;
        config.checkpoint.stop_after = 2;
        Rng rng(51);
        arch_search(tiny_family(), train_, test_, config, rng);
        corpus.push_back(read_file(live_path));
    }
    fs::remove(live_path);
    corpus.push_back(read_file(
        (fs::path(__FILE__).parent_path() / "data" / "checkpoint_v2.ckpt")
            .string()));

    const std::string path = temp_path("fuzz_mutant.ckpt");
    Rng rng(2024);
    for (const std::string& original : corpus) {
        ASSERT_FALSE(original.empty());
        write_file(path, original);
        ASSERT_NO_THROW(load_checkpoint(path));
        std::size_t rejected = 0;
        for (int i = 0; i < 1000; ++i) {
            write_file(path, mutate(original, rng));
            try {
                load_checkpoint(path);
            } catch (const std::runtime_error& error) {
                ++rejected;
                const std::string what = error.what();
                EXPECT_EQ(what.rfind("checkpoint: ", 0), 0U) << what;
            } catch (const std::exception& error) {
                ADD_FAILURE() << "mutant " << i << " escaped as a "
                              << "non-runtime_error: " << error.what();
            }
        }
        EXPECT_GT(rejected, 0U);
    }
    fs::remove(path);

    // A live model file of a trained MLP with BatchNorm buffers and two
    // dropout mask streams: every mutant either loads the saved bits and
    // mask states or throws std::runtime_error and leaves the model as it
    // was.  The MLP is small, so a mutated count declares at most a few
    // thousand words.
    models::MlpOptions options;
    options.input_features = 2;
    options.hidden = 6;
    options.classes = 3;
    options.norm = models::NormKind::kBatch;
    Rng model_rng(61);
    models::ModelHandle model = models::make_mlp(options, model_rng);
    model.set_dropout_rates({0.2, 0.2});
    nn::TrainConfig train;
    train.epochs = 1;
    nn::train_classifier(*model.net, train_.images, train_.labels, train,
                         model_rng);
    const std::string model_path = temp_path("fuzz_live.model");
    save_model(*model.net, model_path);
    const std::string model_file = read_file(model_path);
    const std::vector<std::uint32_t> saved_bits = snapshot_model(*model.net);
    const std::vector<RngState> saved_rngs = snapshot_model_rngs(*model.net);
    ASSERT_EQ(saved_rngs.size(), 2U);
    ASSERT_EQ(model.net->buffers().size(), 4U);

    Rng target_rng(62);
    models::ModelHandle target = models::make_mlp(options, target_rng);
    load_model(*target.net, model_path);
    ASSERT_EQ(snapshot_model(*target.net), saved_bits);

    std::size_t rejected = 0;
    for (int i = 0; i < 1000; ++i) {
        // Scramble the target first, so a mutant that loads must have
        // written every word and mask state.
        for (nn::Parameter* p : target.net->parameters()) {
            p->value.add_scalar_(1.0F);
        }
        for (Tensor* buffer : target.net->buffers()) buffer->add_scalar_(1.0F);
        for (nn::Dropout* site : target.dropout_sites) {
            site->set_mask_rng_state(Rng(1000 + i).state());
        }
        const std::vector<std::uint32_t> before = snapshot_model(*target.net);
        const std::vector<RngState> before_rngs =
            snapshot_model_rngs(*target.net);
        write_file(model_path, mutate(model_file, rng));
        try {
            load_model(*target.net, model_path);
            EXPECT_EQ(snapshot_model(*target.net), saved_bits) << i;
            EXPECT_EQ(snapshot_model_rngs(*target.net), saved_rngs) << i;
        } catch (const std::runtime_error& error) {
            ++rejected;
            const std::string what = error.what();
            EXPECT_EQ(what.rfind("checkpoint: ", 0), 0U) << what;
            EXPECT_EQ(snapshot_model(*target.net), before) << what;
            EXPECT_EQ(snapshot_model_rngs(*target.net), before_rngs) << what;
        } catch (const std::exception& error) {
            ADD_FAILURE() << "mutant " << i << " escaped as a "
                          << "non-runtime_error: " << error.what();
        }
    }
    EXPECT_GT(rejected, 0U);
    fs::remove(model_path);
}

}  // namespace
}  // namespace bayesft::core
