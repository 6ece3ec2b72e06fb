#include "core/runstore.hpp"

#include "core/persist.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace bayesft::core {

namespace {

namespace fs = std::filesystem;

std::string escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string format_real(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/// Finds `"key":` in a compact JSON line and returns the offset just past
/// the colon, or npos.
std::size_t value_offset(const std::string& line, const char* key) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    return at == std::string::npos ? std::string::npos : at + needle.size();
}

bool read_string(const std::string& line, const char* key,
                 std::string& out) {
    std::size_t at = value_offset(line, key);
    if (at == std::string::npos || at >= line.size() || line[at] != '"') {
        return false;
    }
    ++at;
    std::string value;
    while (at < line.size() && line[at] != '"') {
        if (line[at] == '\\' && at + 1 < line.size()) ++at;
        value.push_back(line[at]);
        ++at;
    }
    if (at >= line.size()) return false;  // unterminated
    out = std::move(value);
    return true;
}

bool read_real(const std::string& line, const char* key, double& out) {
    const std::size_t at = value_offset(line, key);
    if (at == std::string::npos) return false;
    try {
        out = std::stod(line.substr(at));
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

bool read_unsigned(const std::string& line, const char* key,
                   std::uint64_t& out) {
    const std::size_t at = value_offset(line, key);
    if (at == std::string::npos) return false;
    try {
        out = std::stoull(line.substr(at));
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

bool read_bool(const std::string& line, const char* key, bool& out) {
    const std::size_t at = value_offset(line, key);
    if (at == std::string::npos) return false;
    out = line.compare(at, 4, "true") == 0;
    return true;
}

double mean_of(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

}  // namespace

RunStore::RunStore(std::string root) : root_(std::move(root)) {
    if (root_.empty()) {
        throw std::runtime_error("run store: empty root directory");
    }
}

std::string RunStore::to_json(const RunRecord& r) {
    std::string out = "{\"kind\":\"" + escape(r.kind) + "\"";
    out += ",\"scenario\":\"" + escape(r.scenario) + "\"";
    out += ",\"family\":\"" + escape(r.family) + "\"";
    out += ",\"seed\":" + std::to_string(r.seed);
    if (r.kind == "trial") {
        out += ",\"trial\":" + std::to_string(r.trial);
        out += ",\"point\":\"" + escape(r.point) + "\"";
        out += ",\"objective\":" + format_real(r.objective);
        out += ",\"status\":\"" + escape(r.status) + "\"";
    } else {
        out += ",\"trials\":" + std::to_string(r.trials);
        out += ",\"best_trial\":" + std::to_string(r.best_trial);
        out += ",\"best_point\":\"" + escape(r.best_point) + "\"";
        out += ",\"best_objective\":" + format_real(r.best_objective);
        out += ",\"annotation\":\"" + escape(r.annotation) + "\"";
        out += ",\"seconds\":" + format_real(r.seconds);
    }
    out += ",\"batch\":" + std::to_string(r.batch);
    if (r.kind != "trial") {
        // Thread and worker counts are the machine-dependent knobs:
        // results are invariant to both, so they are provenance
        // (summary-only), never part of a trial record — those must be
        // byte-identical across a resume at a different thread or worker
        // count (docs/checkpointing.md, docs/distributed.md).
        out += ",\"threads\":" + std::to_string(r.threads);
        out += ",\"workers\":" + std::to_string(r.workers);
    }
    out += std::string(",\"quick\":") + (r.quick ? "true" : "false");
    out += ",\"build\":\"" + escape(r.build) + "\"}";
    return out;
}

void RunStore::probe() const {
    std::error_code error;
    fs::create_directories(root_, error);
    if (error) {
        throw std::runtime_error("run store: cannot create directory '" +
                                 root_ + "': " + error.message());
    }
    validate_output_file(root_ + "/.write-probe");
}

void RunStore::append(const std::string& scenario,
                      const std::vector<RunRecord>& records) {
    if (records.empty()) return;
    std::error_code error;
    fs::create_directories(root_, error);
    if (error) {
        throw std::runtime_error("run store: cannot create directory '" +
                                 root_ + "': " + error.message());
    }
    const std::string path = root_ + "/" + scenario + ".jsonl";
    if (fs::is_directory(path)) {
        throw std::runtime_error("run store: '" + path +
                                 "' is a directory, not a record file");
    }
    std::ofstream out(path, std::ios::app);
    if (!out) {
        throw std::runtime_error("run store: cannot append to '" + path +
                                 "'");
    }
    for (const RunRecord& record : records) {
        out << to_json(record) << '\n';
    }
    out.flush();
    if (!out) {
        throw std::runtime_error("run store: write to '" + path +
                                 "' failed");
    }
    out.close();
    // Durability: a power loss after this append returns must not be able
    // to roll the records back (torn trailing lines are tolerated by
    // parse_file, but a silently vanished append would desynchronize the
    // store from the checkpoint it rides along with).
    fsync_file(path);
    fsync_parent_dir(path);
}

bool RunStore::parse_line(const std::string& line, RunRecord& r) {
    // A line torn by a mid-append kill must be dropped, not parsed with
    // defaulted fields (a truncated trial would poison the latest-wins
    // aggregation and block the resume backfill): the writer always
    // terminates lines with '}', and every kind-specific field below is
    // required.
    if (line.empty() || line.front() != '{' || line.back() != '}') {
        return false;
    }
    if (!read_string(line, "kind", r.kind) ||
        (r.kind != "trial" && r.kind != "summary")) {
        return false;
    }
    // Two writers interleaving appends (or a partial write completed by a
    // later line) can weld the head of one record onto another — the
    // result has a '{', a '}', and plausible fields from both.  A genuine
    // record carries its "kind" exactly once; a frankenline carries two.
    if (line.find("\"kind\":", value_offset(line, "kind")) !=
        std::string::npos) {
        return false;
    }
    if (!read_string(line, "scenario", r.scenario) ||
        !read_unsigned(line, "seed", r.seed)) {
        return false;
    }
    read_string(line, "family", r.family);
    read_string(line, "build", r.build);
    read_unsigned(line, "batch", r.batch);
    read_unsigned(line, "threads", r.threads);
    read_unsigned(line, "workers", r.workers);
    read_bool(line, "quick", r.quick);
    if (r.kind == "trial") {
        if (!read_unsigned(line, "trial", r.trial) ||
            !read_string(line, "point", r.point) ||
            !read_real(line, "objective", r.objective)) {
            return false;
        }
        // Absent in pre-robustness files: every stored trial was ok.
        if (!read_string(line, "status", r.status)) r.status = "ok";
    } else {
        if (!read_unsigned(line, "trials", r.trials) ||
            !read_real(line, "seconds", r.seconds)) {
            return false;
        }
        read_unsigned(line, "best_trial", r.best_trial);
        read_string(line, "best_point", r.best_point);
        read_real(line, "best_objective", r.best_objective);
        read_string(line, "annotation", r.annotation);
    }
    return true;
}

std::vector<RunRecord> RunStore::parse_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("run store: cannot read '" + path + "'");
    }
    std::vector<RunRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        RunRecord r;
        if (parse_line(line, r)) records.push_back(std::move(r));
    }
    return records;
}

std::vector<RunRecord> RunStore::load_all() const {
    std::vector<RunRecord> records;
    std::error_code error;
    if (!fs::is_directory(root_, error)) return records;
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(root_, error)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".jsonl") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
        std::vector<RunRecord> file = parse_file(path);
        records.insert(records.end(),
                       std::make_move_iterator(file.begin()),
                       std::make_move_iterator(file.end()));
    }
    return records;
}

std::vector<ScenarioSummary> summarize_runs(
    const std::vector<RunRecord>& records, double target_fraction) {
    struct Trial {
        double objective = 0.0;
        std::string point;
        std::string status;
    };
    // One aggregation bucket = one run configuration of one scenario:
    // quick and full-size runs (or different batch sizes) must neither
    // splice into one series nor pool into one mean/stddev — their
    // objectives are not comparable.
    using BucketKey = std::tuple<std::string, bool, std::uint64_t>;
    struct Bucket {
        std::string family;
        std::string build;
        std::size_t runs = 0;
        std::size_t trial_records = 0;
        // (seed, trial index) -> latest record, so a re-run of one seed
        // replaces rather than double-counts its trials.
        std::map<std::pair<std::uint64_t, std::uint64_t>, Trial> trials;
        // Seeds whose run completed (left a summary record):
        // interrupted, never-resumed seeds must not skew the
        // reproducibility aggregates with their truncated history.
        std::set<std::uint64_t> completed;
        std::vector<double> seconds;
    };
    std::map<BucketKey, Bucket> buckets;
    for (const RunRecord& r : records) {
        Bucket& bucket = buckets[{r.scenario, r.quick, r.batch}];
        if (bucket.family.empty()) bucket.family = r.family;
        if (!r.build.empty()) bucket.build = r.build;
        if (r.kind == "trial") {
            ++bucket.trial_records;
            bucket.trials[{r.seed, r.trial}] = {r.objective, r.point,
                                                r.status};
        } else {
            ++bucket.runs;
            bucket.completed.insert(r.seed);
            bucket.seconds.push_back(r.seconds);
        }
    }

    std::vector<ScenarioSummary> summaries;
    summaries.reserve(buckets.size());
    for (const auto& [key, bucket] : buckets) {
        ScenarioSummary s;
        s.scenario = std::get<0>(key);
        s.quick = std::get<1>(key);
        s.batch = std::get<2>(key);
        s.family = bucket.family;
        s.build = bucket.build;
        s.runs = bucket.runs;
        s.trial_records = bucket.trial_records;
        // Counted over the deduplicated (latest-wins) trials, matching the
        // aggregates below: a re-run that recovered a once-failed trial
        // does not keep reporting the stale failure.
        for (const auto& [trial_key, trial] : bucket.trials) {
            (void)trial_key;
            if (trial.status != "ok") ++s.failed_trials;
        }
        s.has_search = !bucket.trials.empty();
        s.mean_seconds = mean_of(bucket.seconds);
        if (s.has_search) {
            // Per-seed aggregation (the map iterates seed-major,
            // trial-minor).
            std::vector<double> seed_bests;
            std::vector<double> to_target;
            std::uint64_t current_series = 0;
            std::vector<Trial> series;
            bool best_set = false;
            auto flush = [&]() {
                if (series.empty()) return;
                if (bucket.completed.count(current_series) == 0) {
                    // Partial series (interrupted, not yet resumed to
                    // completion): its truncated best would deflate the
                    // mean and inflate the stddev.
                    series.clear();
                    return;
                }
                std::size_t best_at = 0;
                for (std::size_t i = 1; i < series.size(); ++i) {
                    if (series[i].objective > series[best_at].objective) {
                        best_at = i;
                    }
                }
                const double best = series[best_at].objective;
                seed_bests.push_back(best);
                const double target =
                    best - (1.0 - target_fraction) * std::fabs(best);
                for (std::size_t i = 0; i < series.size(); ++i) {
                    if (series[i].objective >= target) {
                        to_target.push_back(static_cast<double>(i + 1));
                        break;
                    }
                }
                if (!best_set || best > s.best_objective) {
                    s.best_objective = best;
                    s.best_point = series[best_at].point;
                    s.best_seed = current_series;
                    best_set = true;
                }
                series.clear();
            };
            bool first = true;
            for (const auto& [key, trial] : bucket.trials) {
                if (!first && key.first != current_series) flush();
                if (first || key.first != current_series) {
                    current_series = key.first;
                    first = false;
                }
                series.push_back(trial);
            }
            flush();
            s.seeds = seed_bests.size();
            if (!seed_bests.empty()) {
                s.mean_best = mean_of(seed_bests);
                double var = 0.0;
                for (double b : seed_bests) {
                    var += (b - s.mean_best) * (b - s.mean_best);
                }
                var /= static_cast<double>(seed_bests.size());
                s.stddev_best = std::sqrt(var);
                s.mean_trials_to_target = mean_of(to_target);
            }
        }
        summaries.push_back(std::move(s));
    }
    std::sort(summaries.begin(), summaries.end(),
              [](const ScenarioSummary& a, const ScenarioSummary& b) {
                  return std::tie(a.family, a.scenario, a.quick, a.batch) <
                         std::tie(b.family, b.scenario, b.quick, b.batch);
              });
    return summaries;
}

std::string format_hex(std::uint64_t value) {
    // The bytes of snprintf's "%016llx", one nibble at a time from the
    // right, without parsing a format string per call.
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (std::size_t i = out.size(); i-- > 0; value >>= 4) {
        out[i] = kDigits[value & 0xFU];
    }
    return out;
}

bool parse_hex(const std::string& text, std::uint64_t& out) {
    if (text.empty() || text.size() > 16) return false;
    std::uint64_t bits = 0;
    for (char c : text) {
        int digit = 0;
        if (c >= '0' && c <= '9') {
            digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
            digit = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
            digit = c - 'A' + 10;
        } else {
            return false;
        }
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    out = bits;
    return true;
}

std::string format_bits(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return format_hex(bits);
}

bool parse_bits(const std::string& text, double& out) {
    std::uint64_t bits = 0;
    if (!parse_hex(text, bits)) return false;
    std::memcpy(&out, &bits, sizeof out);
    return true;
}

void validate_output_file(const std::string& path) {
    std::error_code error;
    if (fs::is_directory(path, error)) {
        throw std::runtime_error("output path '" + path +
                                 "' is a directory, not a file");
    }
    const bool existed = fs::exists(path, error);
    {
        // Append mode probes writability without truncating existing data.
        std::ofstream probe(path, std::ios::app);
        if (!probe) {
            throw std::runtime_error(
                "output path '" + path +
                "' is not writable (missing directory or no permission)");
        }
    }
    if (!existed) fs::remove(path, error);
}

}  // namespace bayesft::core
