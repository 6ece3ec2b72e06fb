// Unified experiment driver: lists and runs every registered fig2 / fig3 /
// ablation scenario by name through the core ExperimentRegistry, replacing
// one hand-rolled main per figure.  Results are printed as tables and
// optionally emitted as machine-readable JSON records (one per curve point,
// the same flat-array shape as BENCH_micro_ops.json).
//
// Usage:
//   experiments --list
//   experiments --run fig3a_mlp_mnist [--run toy_mlp_blobs ...]
//   experiments --family fig2                 (run a whole family)
//   experiments --run toy_mlp_blobs --quick --batch 4 --threads 8 \
//               --json experiments.json [--seed 7]
//   experiments --run archsearch_fig2_mlp --repeat 5 --json out.json
//               (5 distinct seeds; JSON gains mean/stddev aggregates)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/persist.hpp"
#include "core/registry.hpp"
#include "core/runstore.hpp"
#include "utils/logging.hpp"
#include "utils/parallel.hpp"
#include "utils/table.hpp"

namespace {

using namespace bayesft;

void print_usage() {
    std::cout <<
        "usage: experiments [options]\n"
        "  --list            list registered experiments and exit\n"
        "  --run <name>      run one experiment (repeatable)\n"
        "  --family <fam>    run every experiment of a family "
        "(fig2|fig3|faults|archsearch|ablation|toy)\n"
        "  --quick           shrink datasets/epochs for a smoke run\n"
        "  --batch <q>       BayesFT candidate batch size (default 1)\n"
        "  --threads <n>     thread budget (sets BAYESFT_NUM_THREADS)\n"
        "  --workers <n>     farm candidate evaluations to n forked worker\n"
        "                    processes (self-contained searches only:\n"
        "                    archsearch_* and toy_arch_blobs; result-\n"
        "                    invariant; docs/distributed.md)\n"
        "  --seed <s>        override the scenario base seed\n"
        "  --repeat <n>      re-run each scenario with n distinct seeds and\n"
        "                    add mean/stddev aggregate records to the JSON\n"
        "  --json <path>     write flat JSON records for all runs\n"
        "  --checkpoint <p>  checkpoint/resume the scenario's search at this\n"
        "                    path (one scenario, no --repeat;\n"
        "                    docs/checkpointing.md)\n"
        "  --stop-after <n>  halt the search after n new trials (checkpoint\n"
        "                    stays on disk; resume by re-running)\n"
        "  --runs-dir <dir>  run-store directory (default: runs)\n"
        "  --no-store        skip appending to the JSONL run store\n"
        "  --isolate         fork each self-contained candidate evaluation\n"
        "                    into a crash-isolated child (archsearch\n"
        "                    scenarios; docs/robustness.md)\n"
        "  --trial-timeout <sec>  per-trial wall-clock deadline; isolated\n"
        "                    children are SIGKILLed past it (0 = none)\n"
        "  --max-retries <n> re-attempts before a failing trial is\n"
        "                    quarantined (default 2)\n"
        "  --fail-policy <p> how quarantined trials reach the GP:\n"
        "                    penalize (default) | exclude\n"
        "  --inference <m>   fixed-point forward mode for the quantized-\n"
        "                    inference scenarios: float32 (default) | int8 |\n"
        "                    int12 (docs/performance.md)\n"
        "  --trust-region    switch proposals to TuRBO-style trust-region\n"
        "                    local BO once the search has enough history\n"
        "                    (docs/optimizer-scaling.md); part of the\n"
        "                    scenario digest when enabled\n"
        "  --tr-after <n>    observed trials before the trust region\n"
        "                    activates (default 500; needs --trust-region)\n"
        "  --checkpoint-info <p>  load the checkpoint at <p>, print its\n"
        "                    metadata (format version, trial count, trust-\n"
        "                    region state), and exit; fails on a file this\n"
        "                    build cannot resume\n";
}

struct JsonRecord {
    std::string experiment;
    std::string curve;
    std::string x_label;
    double x = 0.0;
    double value = 0.0;
    double seconds = 0.0;
    std::string stat = "raw";  ///< "raw" | "mean" | "stddev"
    std::uint64_t seed = 0;    ///< effective seed of a raw record
};

void write_json(const std::string& path, const std::vector<JsonRecord>& records,
                const core::RunOptions& options, std::size_t repeats) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("experiments: cannot write " + path);
    }
    // Round-trip precision (the run store's %.17g), so diffs of the JSON
    // catch low-bit drift instead of comparing 6-digit roundings.
    out.precision(17);
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JsonRecord& r = records[i];
        out << "  {\"experiment\": \"" << r.experiment << "\", \"curve\": \""
            << r.curve << "\", \"x_label\": \"" << r.x_label
            << "\", \"x\": " << r.x << ", \"value\": " << r.value
            << ", \"stat\": \"" << r.stat << "\", \"seed\": " << r.seed
            << ", \"repeats\": " << repeats
            << ", \"batch\": " << options.batch
            << ", \"threads\": " << parallel_thread_count()
            << ", \"quick\": " << (options.quick ? "true" : "false")
            << ", \"seconds\": " << r.seconds << "}"
            << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

/// Fault-level axes report fractions (accuracy or mAP) rendered as
/// percentages; the ablation axes (mc_samples, trial_budget) report
/// utilities/seconds and stay raw.
bool percent_axis(const std::string& x_label) {
    return x_label == "sigma" || x_label == "stuck_fraction" ||
           x_label == "flip_probability" || x_label == "bits";
}

/// Appends one finished (or checkpoint-interrupted) run to the JSONL run
/// store: one "trial" record per trial not already stored, plus one
/// "summary" record when the run completed.
///
/// A resumed run reconciles against the store file instead of trusting
/// `resumed_trials` alone: a cooperatively stopped (--stop-after)
/// predecessor appended its trials before exiting, but a killed process
/// never reached the append, so the resumed invocation must backfill
/// whatever trial indices are missing.  Trial records are deterministic
/// functions of (scenario, seed, config), so skipping indices that are
/// already present can never lose information.  The same reconciliation
/// keeps a re-run of an already-complete checkpoint from appending a
/// duplicate summary for the seed.
void append_to_store(const std::string& runs_dir,
                     const core::ExperimentRegistry& registry,
                     const core::RegistryResult& result,
                     const core::RunOptions& options) {
    const core::ExperimentSpec* spec = registry.find(result.experiment);
    core::RunRecord base;
    base.scenario = result.experiment;
    base.family = spec != nullptr ? spec->family : "";
    base.seed = options.seed;
    base.build = core::build_stamp();
    base.batch = std::max<std::size_t>(1, options.batch);
    base.threads = parallel_thread_count();
    base.workers = options.workers;
    base.quick = options.quick;

    std::set<std::uint64_t> stored_trials;
    bool stored_summary = false;
    if (result.resumed_trials > 0) {
        const std::string path =
            runs_dir + "/" + result.experiment + ".jsonl";
        if (std::filesystem::is_regular_file(path)) {
            for (const core::RunRecord& record :
                 core::RunStore::parse_file(path)) {
                if (record.seed != options.seed) continue;
                if (record.kind == "trial") {
                    stored_trials.insert(record.trial);
                } else {
                    stored_summary = true;
                }
            }
        }
    }

    std::vector<core::RunRecord> rows;
    for (const core::TrialRecord& trial : result.trials) {
        if (stored_trials.count(trial.index) != 0) continue;
        core::RunRecord row = base;
        row.kind = "trial";
        row.trial = trial.index;
        row.point = trial.point;
        row.objective = trial.objective;
        row.status = trial.status;
        rows.push_back(std::move(row));
    }
    if (result.search_completed && !stored_summary) {
        core::RunRecord summary = base;
        summary.kind = "summary";
        summary.trials = result.trials.size();
        if (!result.trials.empty()) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < result.trials.size(); ++i) {
                if (result.trials[i].objective >
                    result.trials[best].objective) {
                    best = i;
                }
            }
            summary.best_trial = result.trials[best].index;
            summary.best_point = result.trials[best].point;
            summary.best_objective = result.trials[best].objective;
        }
        summary.annotation = result.annotation;
        summary.seconds = result.seconds;
        rows.push_back(std::move(summary));
    }
    core::RunStore(runs_dir).append(result.experiment, rows);
}

/// Mean and population standard deviation of one (curve, x) cell across
/// the repeated runs.
std::pair<double, double> mean_stddev(const std::vector<double>& values) {
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());
    return {mean, std::sqrt(var)};
}

}  // namespace

int main(int argc, char** argv) {
    bool list = false;
    std::vector<std::string> names;
    std::vector<std::string> families;
    std::string json_path;
    std::string checkpoint_info;
    std::string runs_dir = "runs";
    bool store_runs = true;
    std::size_t repeat = 1;
    core::RunOptions options;

    auto need_value = [&](int& i, const char* flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "experiments: " << flag << " needs a value\n";
            std::exit(2);
        }
        return argv[++i];
    };
    auto need_real = [&](int& i, const char* flag) -> double {
        const std::string value = need_value(i, flag);
        try {
            std::size_t used = 0;
            const double parsed = std::stod(value, &used);
            if (used != value.size() || !(parsed >= 0.0)) {
                throw std::invalid_argument(value);
            }
            return parsed;
        } catch (const std::exception&) {
            std::cerr << "experiments: " << flag
                      << " needs a non-negative number, got '" << value
                      << "'\n";
            std::exit(2);
        }
    };
    auto need_number = [&](int& i, const char* flag) -> std::uint64_t {
        const std::string value = need_value(i, flag);
        // Digits only: stoull would silently wrap "-1" to 2^64 - 1.
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos) {
            std::cerr << "experiments: " << flag
                      << " needs a non-negative number, got '" << value
                      << "'\n";
            std::exit(2);
        }
        try {
            return std::stoull(value);
        } catch (const std::exception&) {
            std::cerr << "experiments: " << flag
                      << " needs a non-negative number, got '" << value
                      << "'\n";
            std::exit(2);
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--run") {
            names.push_back(need_value(i, "--run"));
        } else if (arg == "--family") {
            families.push_back(need_value(i, "--family"));
        } else if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--batch") {
            options.batch = need_number(i, "--batch");
        } else if (arg == "--threads") {
            options.threads = need_number(i, "--threads");
        } else if (arg == "--workers") {
            options.workers = need_number(i, "--workers");
        } else if (arg == "--seed") {
            options.seed = need_number(i, "--seed");
        } else if (arg == "--repeat") {
            repeat = need_number(i, "--repeat");
            if (repeat == 0) {
                std::cerr << "experiments: --repeat needs n >= 1\n";
                return 2;
            }
        } else if (arg == "--json") {
            json_path = need_value(i, "--json");
        } else if (arg == "--checkpoint") {
            options.checkpoint = need_value(i, "--checkpoint");
        } else if (arg == "--stop-after") {
            options.stop_after = need_number(i, "--stop-after");
        } else if (arg == "--runs-dir") {
            runs_dir = need_value(i, "--runs-dir");
        } else if (arg == "--no-store") {
            store_runs = false;
        } else if (arg == "--isolate") {
            options.isolate = true;
        } else if (arg == "--trial-timeout") {
            options.trial_timeout = need_real(i, "--trial-timeout");
        } else if (arg == "--max-retries") {
            options.max_retries = need_number(i, "--max-retries");
        } else if (arg == "--fail-policy") {
            options.fail_policy = need_value(i, "--fail-policy");
            if (options.fail_policy != "penalize" &&
                options.fail_policy != "exclude") {
                std::cerr << "experiments: --fail-policy needs 'penalize' "
                             "or 'exclude', got '" << options.fail_policy
                          << "'\n";
                return 2;
            }
        } else if (arg == "--trust-region") {
            options.trust_region = true;
        } else if (arg == "--tr-after") {
            options.tr_after = need_number(i, "--tr-after");
        } else if (arg == "--checkpoint-info") {
            checkpoint_info = need_value(i, "--checkpoint-info");
        } else if (arg == "--inference") {
            options.inference = need_value(i, "--inference");
            if (options.inference != "float32" &&
                options.inference != "int8" &&
                options.inference != "int12") {
                std::cerr << "experiments: --inference needs 'float32', "
                             "'int8' or 'int12', got '" << options.inference
                          << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            print_usage();
            return 0;
        } else {
            std::cerr << "experiments: unknown option " << arg << "\n";
            print_usage();
            return 2;
        }
    }
    if (!checkpoint_info.empty()) {
        // Inspection mode: prove the file loads under this build's reader
        // (the CI cross-version smoke), then print what a resume would see.
        try {
            const core::SearchCheckpoint ckpt =
                core::load_checkpoint(checkpoint_info);
            std::uint64_t version = 0;
            {
                std::ifstream in(checkpoint_info);
                std::string magic;
                in >> magic >> version;
            }
            std::cout << "checkpoint " << checkpoint_info << "\n"
                      << "  format_version " << version << " (this build reads "
                      << core::SearchCheckpoint::kOldestReadableVersion << ".."
                      << core::SearchCheckpoint::kVersion << ", writes "
                      << core::SearchCheckpoint::kVersion << ")\n"
                      << "  run_id " << ckpt.run_id << "\n"
                      << "  build " << ckpt.build << "\n"
                      << "  trials_done " << ckpt.trials_done << "\n"
                      << "  initial_used " << ckpt.bo.initial_used << "\n"
                      << "  trust_region length="
                      << ckpt.bo.trust_region.length << " successes="
                      << ckpt.bo.trust_region.successes << " failures="
                      << ckpt.bo.trust_region.failures << " restarts="
                      << ckpt.bo.trust_region.restarts << "\n";
            return 0;
        } catch (const std::exception& error) {
            std::cerr << "experiments: " << error.what() << "\n";
            return 1;
        }
    }
    if (options.tr_after != 500 && !options.trust_region) {
        std::cerr << "experiments: --tr-after needs --trust-region (it only "
                     "shapes the trust-region activation point)\n";
        return 2;
    }
    // Fail fast on an unusable --json target (a directory, a missing or
    // unwritable parent) instead of discovering it after minutes of
    // computation — or worse, never writing anything.
    if (!json_path.empty()) {
        try {
            core::validate_output_file(json_path);
        } catch (const std::exception& error) {
            std::cerr << "experiments: --json: " << error.what() << "\n";
            return 2;
        }
    }
    if (!options.checkpoint.empty()) {
        // Same fail-fast contract as --json: discover an unwritable
        // checkpoint target before the warmup epochs, not after them.
        // The probe never truncates an existing checkpoint, so resume
        // detection is unaffected.
        try {
            core::validate_output_file(options.checkpoint);
        } catch (const std::exception& error) {
            std::cerr << "experiments: --checkpoint: " << error.what()
                      << "\n";
            return 2;
        }
    }
    if (!options.checkpoint.empty() && repeat > 1) {
        std::cerr << "experiments: --checkpoint cannot be combined with "
                     "--repeat (every seed would fight over one file)\n";
        return 2;
    }
    if (options.stop_after != 0 && options.checkpoint.empty()) {
        std::cerr << "experiments: --stop-after needs --checkpoint (there "
                     "is nothing to resume from otherwise)\n";
        return 2;
    }
    // The pool reads BAYESFT_NUM_THREADS once at first use; honour --threads
    // before anything touches it.
    if (options.threads != 0) {
        setenv("BAYESFT_NUM_THREADS",
               std::to_string(options.threads).c_str(), 1);
    }
    const char* quick_env = std::getenv("BAYESFT_QUICK");
    if (quick_env != nullptr && quick_env[0] != '\0' && quick_env[0] != '0') {
        options.quick = true;
    }
    set_log_level(options.quick ? LogLevel::Error : LogLevel::Info);

    const core::ExperimentRegistry& registry =
        core::ExperimentRegistry::instance();
    if (list) {
        ResultTable table("registered experiments",
                          {"name", "family", "description"});
        for (const core::ExperimentSpec& spec : registry.list()) {
            table.add_text_row({spec.name, spec.family, spec.description});
        }
        std::cout << table;
        return 0;
    }
    for (const std::string& family : families) {
        bool any = false;
        for (const core::ExperimentSpec& spec : registry.list()) {
            if (spec.family == family) {
                names.push_back(spec.name);
                any = true;
            }
        }
        if (!any) {
            std::cerr << "experiments: no experiments in family '" << family
                      << "'\n";
            return 2;
        }
    }
    if (names.empty()) {
        print_usage();
        return 2;
    }
    for (const std::string& name : names) {
        if (registry.find(name) == nullptr) {
            std::cerr << "experiments: unknown experiment '" << name
                      << "' (use --list)\n";
            return 2;
        }
    }
    if (!options.checkpoint.empty() && names.size() > 1) {
        std::cerr << "experiments: --checkpoint covers exactly one "
                     "scenario, got " << names.size() << "\n";
        return 2;
    }
    if (!options.checkpoint.empty()) {
        // Durability must never be a silent no-op: scenarios that do not
        // wire the checkpoint into a search driver reject the flag instead
        // of running a full unresumable budget.
        const core::ExperimentSpec* spec = registry.find(names.front());
        if (spec != nullptr && !spec->checkpointable) {
            std::cerr << "experiments: scenario '" << names.front()
                      << "' has no resumable search loop; --checkpoint is "
                         "supported by the fig3 panels (fig3j included), "
                         "faults_fig3a_*, archsearch_*, and toy\n";
            return 2;
        }
    }

    if (options.workers != 0) {
        // Fail-fast probes for --workers (docs/distributed.md): the flag
        // must never be a silent no-op or silently change semantics.
        if (repeat > 1) {
            std::cerr << "experiments: --workers cannot be combined with "
                         "--repeat (one worker pool per search; repeated "
                         "seeds would interleave their pools)\n";
            return 2;
        }
        if (options.isolate) {
            std::cerr << "experiments: --workers cannot be combined with "
                         "--isolate (workers already run in child "
                         "processes; pick one execution model)\n";
            return 2;
        }
        for (const std::string& name : names) {
            const core::ExperimentSpec* spec = registry.find(name);
            if (spec != nullptr && !spec->distributable) {
                std::cerr << "experiments: scenario '" << name
                          << "' cannot be distributed (its search evolves "
                             "model weights that cannot cross the worker "
                             "pipe); --workers is supported by the "
                             "self-contained searches: archsearch_* and "
                             "toy_arch_blobs\n";
                return 2;
            }
        }
    }

    if (store_runs) {
        // Probe the run store only after the scenario names validated:
        // by default every run appends there, and discovering an
        // unwritable directory after the computation would lose the
        // records (and abort before --json) — but an erroneous invocation
        // must not litter the cwd with an empty runs/ either.
        try {
            core::RunStore(runs_dir).probe();
        } catch (const std::exception& error) {
            std::cerr << "experiments: --runs-dir: " << error.what()
                      << "\n";
            return 2;
        }
    }

    std::vector<JsonRecord> records;
    for (const std::string& name : names) {
        std::vector<core::RegistryResult> runs;
        for (std::size_t r = 0; r < repeat; ++r) {
            // Distinct seeds per repeat: run 0 reproduces the single-run
            // behaviour; later runs shift the scenario base seed.
            core::RunOptions run_options = options;
            run_options.seed = options.seed + r;
            core::RegistryResult result;
            try {
                result = registry.run(name, run_options);
            } catch (const std::exception& error) {
                std::cerr << "experiments: " << error.what() << "\n";
                return 1;
            }
            const bool percent = percent_axis(result.x_label);
            std::string title = name + (percent ? " (%)" : "");
            if (repeat > 1) {
                title += " [seed " + std::to_string(run_options.seed) + "]";
            }
            if (!result.xs.empty()) {
                std::cout << "\n"
                          << result.to_table(title, percent ? 100.0 : 1.0)
                          << "  wall clock: "
                          << format_double(result.seconds, 2) << " s\n";
            }
            if (!result.search_completed) {
                std::cout << "\n" << name << ": search checkpointed after "
                          << result.trials.size()
                          << " trials; re-run with --checkpoint "
                          << options.checkpoint << " to resume\n";
            }
            if (!result.annotation.empty()) {
                std::cout << "  best point: " << result.annotation << "\n";
            }
            if (!result.bayesft_alpha.empty()) {
                std::cout << "  BayesFT best alpha:";
                for (double a : result.bayesft_alpha) {
                    std::cout << ' ' << format_double(a, 3);
                }
                std::cout << "\n";
            }
            if (store_runs) {
                try {
                    append_to_store(runs_dir, registry, result, run_options);
                } catch (const std::exception& error) {
                    std::cerr << "experiments: " << error.what() << "\n";
                    return 1;
                }
            }
            for (const core::NamedCurve& curve : result.curves) {
                for (std::size_t i = 0; i < result.xs.size(); ++i) {
                    records.push_back({result.experiment, curve.label,
                                       result.x_label, result.xs[i],
                                       curve.values[i], result.seconds,
                                       "raw", run_options.seed});
                }
            }
            runs.push_back(std::move(result));
        }
        if (repeat > 1) {
            // Mean/stddev aggregates across the repeated seeds, per
            // (curve, x) cell; every run of one scenario shares xs and
            // curve labels by construction.
            const core::RegistryResult& first = runs.front();
            double seconds = 0.0;
            for (const core::RegistryResult& run : runs) {
                seconds += run.seconds;
            }
            seconds /= static_cast<double>(runs.size());
            core::RegistryResult aggregate;
            aggregate.experiment = first.experiment;
            aggregate.x_label = first.x_label;
            aggregate.xs = first.xs;
            aggregate.seconds = seconds;
            for (std::size_t c = 0; c < first.curves.size(); ++c) {
                core::NamedCurve mean_curve{first.curves[c].label + "|mean",
                                            {}};
                core::NamedCurve sd_curve{first.curves[c].label + "|stddev",
                                          {}};
                for (std::size_t i = 0; i < first.xs.size(); ++i) {
                    std::vector<double> cell;
                    cell.reserve(runs.size());
                    for (const core::RegistryResult& run : runs) {
                        cell.push_back(run.curves[c].values[i]);
                    }
                    const auto [mean, sd] = mean_stddev(cell);
                    mean_curve.values.push_back(mean);
                    sd_curve.values.push_back(sd);
                    records.push_back({first.experiment,
                                       first.curves[c].label, first.x_label,
                                       first.xs[i], mean, seconds, "mean",
                                       options.seed});
                    records.push_back({first.experiment,
                                       first.curves[c].label, first.x_label,
                                       first.xs[i], sd, seconds, "stddev",
                                       options.seed});
                }
                aggregate.curves.push_back(std::move(mean_curve));
                aggregate.curves.push_back(std::move(sd_curve));
            }
            const bool percent = percent_axis(first.x_label);
            std::cout << "\n"
                      << aggregate.to_table(
                             name + " aggregate over " +
                                 std::to_string(repeat) + " seeds" +
                                 (percent ? " (%)" : ""),
                             percent ? 100.0 : 1.0)
                      << "  mean wall clock: "
                      << format_double(seconds, 2) << " s\n";
        }
    }
    if (!json_path.empty()) {
        write_json(json_path, records, options, repeat);
        std::cout << "\nwrote " << json_path << " (" << records.size()
                  << " records)\n";
    }
    return 0;
}
