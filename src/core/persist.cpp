#include "core/persist.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/runstore.hpp"
#include "nn/dropout.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define BAYESFT_HAS_FSYNC 1
#endif

namespace bayesft::core {

namespace {

constexpr const char* kMagic = "bayesft-checkpoint";
constexpr const char* kModelMagic = "bayesft-model";
constexpr std::uint64_t kModelFileVersion = 1;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
    throw std::runtime_error("checkpoint: " + what + " (" + path + ")");
}

void write_rng(std::ostream& out, const char* key, const RngState& state) {
    out << key;
    for (std::uint64_t lane : state.lanes) out << ' ' << format_hex(lane);
    out << ' ' << format_hex(state.cached_normal_bits) << ' '
        << (state.has_cached_normal ? 1 : 0) << '\n';
}

void write_points(std::ostream& out, const char* key,
                  const std::vector<std::vector<double>>& rows,
                  const std::vector<double>* values) {
    const std::size_t dims = rows.empty() ? 0 : rows.front().size();
    out << key << ' ' << rows.size() << ' ' << dims << '\n';
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t d = 0; d < rows[r].size(); ++d) {
            out << (d == 0 ? "" : " ") << format_bits(rows[r][d]);
        }
        if (values != nullptr) {
            out << (rows[r].empty() ? "" : " ")
                << format_bits((*values)[r]);
        }
        out << '\n';
    }
}

/// The model block both file kinds carry: "model <count> <digest>", the
/// snapshot_model() words as 8 hex digits, 16 to a line, then
/// "model_rngs <count>" and one "mrng" record per mask generator.
void write_model_block(std::ostream& out,
                       const std::vector<std::uint32_t>& bits,
                       std::uint64_t digest,
                       const std::vector<RngState>& rngs) {
    out << "model " << bits.size() << ' ' << format_hex(digest) << '\n';
    for (std::size_t i = 0; i < bits.size(); ++i) {
        char buffer[9];
        std::snprintf(buffer, sizeof(buffer), "%08x", bits[i]);
        out << buffer << ((i % 16 == 15) ? '\n' : ' ');
    }
    if (bits.size() % 16 != 0) out << '\n';
    out << "model_rngs " << rngs.size() << '\n';
    for (const RngState& state : rngs) write_rng(out, "mrng", state);
}

/// A model file's check record: folds the words and mask-generator states
/// of its model block, so a flipped hex digit is refused, not loaded.
std::uint64_t model_file_check(const std::vector<std::uint32_t>& bits,
                               const std::vector<RngState>& rngs) {
    std::uint64_t key = mix_key(0, std::string_view("model-file"));
    for (const std::uint32_t word : bits) key = mix_key(key, word);
    for (const RngState& state : rngs) key = mix_rng_state(key, state);
    return key;
}

/// Writes `path` atomically: `body` fills "<path>.tmp", which gets the end
/// marker, is flushed and fsynced, and is renamed into place.
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& body) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out) fail("cannot open for writing", tmp);
        body(out);
        out << "end\n";
        // Flush before checking: without it a failed final flush (disk
        // full) would pass the check, and the rename below would install
        // a truncated file over the previous good one.
        out.flush();
        if (!out) fail("write failed", tmp);
    }
    // fsync before the rename: without it a power loss shortly after the
    // rename can install a zero-length tmp over the previous good file
    // (rename is atomic against crashes of this process, but not against
    // losing the unflushed tmp data).
    fsync_file(tmp);
    std::error_code error;
    std::filesystem::rename(tmp, path, error);
    if (error) fail("rename failed: " + error.message(), path);
    fsync_parent_dir(path);
}

/// Line-oriented reader that tracks the path for error messages and
/// enforces the "key <payload>" shape of every record.
class Reader {
public:
    Reader(std::istream& in, std::string path)
        : in_(in), path_(std::move(path)) {}

    /// Next non-empty line; throws on EOF.
    std::string line() {
        std::string text;
        while (std::getline(in_, text)) {
            if (!text.empty()) return text;
        }
        fail("truncated file", path_);
    }

    /// Next line split on spaces, with the leading token checked.
    std::vector<std::string> record(const char* key) {
        std::istringstream tokens(line());
        std::vector<std::string> out;
        std::string token;
        while (tokens >> token) out.push_back(std::move(token));
        if (out.empty() || out.front() != key) {
            fail(std::string("expected '") + key + "' record", path_);
        }
        return out;
    }

    /// record() with exactly `count` tokens after the key: a missing or
    /// extra token rejects the file, naming the record.
    std::vector<std::string> record(const char* key, std::size_t count) {
        std::vector<std::string> tokens = record(key);
        if (tokens.size() != count + 1) {
            fail(std::string("malformed '") + key + "' record", path_);
        }
        return tokens;
    }

    /// The payload of a single-value record ("key value").
    std::string value(const char* key) { return record(key, 1)[1]; }

    /// Like record(), but the payload is the raw remainder of the line
    /// (free-form strings such as run_id may contain spaces).
    std::string text_record(const char* key) {
        const std::string text = line();
        const std::string prefix = std::string(key);
        if (text.rfind(prefix, 0) != 0) {
            fail("expected '" + prefix + "' record", path_);
        }
        std::size_t start = prefix.size();
        if (start < text.size() && text[start] == ' ') ++start;
        return text.substr(start);
    }

    /// A format_hex field: 1-16 hex digits and nothing else.
    std::uint64_t hex(const std::string& token) {
        std::uint64_t value = 0;
        if (!parse_hex(token, value)) {
            fail("malformed hex field '" + token + "'", path_);
        }
        return value;
    }

    /// A format_bits field: a double's bit pattern in hex digits.
    double bits(const std::string& token) {
        double value = 0.0;
        if (!parse_bits(token, value)) {
            fail("malformed hex field '" + token + "'", path_);
        }
        return value;
    }

    /// A decimal field: digits only (no sign, no blanks), in range.
    std::uint64_t number(const std::string& token) {
        std::uint64_t value = 0;
        const char* end = token.data() + token.size();
        const auto [stop, error] = std::from_chars(token.data(), end, value);
        if (error != std::errc() || stop != end) {
            fail("malformed numeric field '" + token + "'", path_);
        }
        return value;
    }

    RngState rng(const char* key) {
        const std::vector<std::string> tokens = record(key, 6);
        RngState state;
        for (std::size_t i = 0; i < 4; ++i) {
            state.lanes[i] = hex(tokens[1 + i]);
        }
        state.cached_normal_bits = hex(tokens[5]);
        state.has_cached_normal = number(tokens[6]) != 0;
        return state;
    }

    /// The "<magic> <version>" first line; returns the version.
    std::uint64_t version(const char* magic) {
        return number(record(magic, 1)[1]);
    }

    /// A write_model_block block.  Like points(), it sizes nothing by a
    /// declared count: a corrupt count costs no more memory than the file
    /// holds.
    void model_block(std::vector<std::uint32_t>& bits, std::uint64_t& digest,
                     std::vector<RngState>& rngs) {
        const std::vector<std::string> header = record("model", 2);
        const std::uint64_t count = number(header[1]);
        if (count > (1ULL << 26)) fail("implausible model size", path_);
        digest = hex(header[2]);
        bits.clear();
        while (bits.size() < count) {
            std::istringstream tokens(line());
            std::string token;
            while (tokens >> token) {
                // Exactly the 8 hex digits the writer emits, and no more
                // words than the count: a longer token (e.g. two words
                // fused by a lost separator) or a surplus word must reject
                // the file, not load shifted or truncated weights.
                if (token.size() != 8 || bits.size() == count) {
                    fail("malformed model word '" + token + "'", path_);
                }
                bits.push_back(static_cast<std::uint32_t>(hex(token)));
            }
        }
        const std::uint64_t states = number(value("model_rngs"));
        if (states > (1ULL << 20)) fail("implausible model_rngs size", path_);
        rngs.clear();
        for (std::uint64_t i = 0; i < states; ++i) rngs.push_back(rng("mrng"));
    }

    void end() {
        if (line() != "end") fail("missing end marker", path_);
    }

    void points(const char* key, std::vector<std::vector<double>>& rows,
                std::vector<double>* values) {
        const std::vector<std::string> header = record(key, 2);
        const std::uint64_t count = number(header[1]);
        const std::uint64_t dims = number(header[2]);
        if (count > (1ULL << 24) || dims > (1ULL << 16) ||
            count * dims > (1ULL << 24)) {
            fail("implausible point-block size", path_);
        }
        // Rows grow as they are read, so a corrupt count costs no more
        // memory than the file holds.
        rows.clear();
        if (values != nullptr) values->clear();
        for (std::uint64_t r = 0; r < count; ++r) {
            std::istringstream tokens(line());
            std::string token;
            std::vector<double>& row = rows.emplace_back();
            for (std::uint64_t d = 0; d < dims; ++d) {
                if (!(tokens >> token)) fail("truncated point row", path_);
                row.push_back(bits(token));
            }
            if (values != nullptr) {
                if (!(tokens >> token)) fail("truncated point row", path_);
                values->push_back(bits(token));
            }
        }
    }

private:
    std::istream& in_;
    std::string path_;
};

}  // namespace

std::string build_stamp() {
#ifdef BAYESFT_BUILD_STAMP
    return BAYESFT_BUILD_STAMP;
#else
    return "unknown";
#endif
}

void save_checkpoint(const SearchCheckpoint& checkpoint,
                     const std::string& path) {
    write_file_atomically(path, [&](std::ostream& out) {
        out << kMagic << ' ' << SearchCheckpoint::kVersion << '\n';
        out << "run_id " << checkpoint.run_id << '\n';
        out << "build " << checkpoint.build << '\n';
        out << "space_digest " << format_hex(checkpoint.space_digest) << '\n';
        out << "scenario_digest " << format_hex(checkpoint.scenario_digest)
            << '\n';
        out << "context_key " << format_hex(checkpoint.context_key) << '\n';
        out << "context_stamp " << checkpoint.context_stamp << '\n';
        out << "trials_done " << checkpoint.trials_done << '\n';
        write_rng(out, "run_rng", checkpoint.run_rng);
        write_rng(out, "bo_rng", checkpoint.bo.rng);
        out << "initial_used " << checkpoint.bo.initial_used << '\n';
        out << "trust_region "
            << format_bits(checkpoint.bo.trust_region.length) << ' '
            << checkpoint.bo.trust_region.successes << ' '
            << checkpoint.bo.trust_region.failures << ' '
            << checkpoint.bo.trust_region.restarts << '\n';
        write_points(out, "initial_plan", checkpoint.bo.initial_plan,
                     nullptr);
        {
            std::vector<std::vector<double>> xs;
            std::vector<double> ys;
            xs.reserve(checkpoint.bo.trials.size());
            ys.reserve(checkpoint.bo.trials.size());
            for (const bayesopt::Trial& t : checkpoint.bo.trials) {
                xs.push_back(t.x);
                ys.push_back(t.y);
            }
            write_points(out, "trials", xs, &ys);
        }
        out << "trial_status " << checkpoint.bo.trials.size();
        for (const bayesopt::Trial& t : checkpoint.bo.trials) {
            out << ' ' << static_cast<unsigned>(t.status);
        }
        out << '\n';
        {
            std::vector<std::vector<double>> xs;
            std::vector<double> ys;
            xs.reserve(checkpoint.cache.size());
            ys.reserve(checkpoint.cache.size());
            for (const auto& [point, utility] : checkpoint.cache) {
                xs.push_back(point);
                ys.push_back(utility);
            }
            write_points(out, "cache", xs, &ys);
        }
        write_model_block(out, checkpoint.model_bits, checkpoint.model_digest,
                          checkpoint.model_rngs);
    });
}

SearchCheckpoint load_checkpoint(const std::string& path) {
    std::ifstream in(path);
    if (!in) fail("cannot open", path);
    Reader reader(in, path);

    const std::uint64_t version = reader.version(kMagic);
    if (version < SearchCheckpoint::kOldestReadableVersion ||
        version > SearchCheckpoint::kVersion) {
        fail("unsupported format version " + std::to_string(version) +
                 " (this build reads " +
                 std::to_string(SearchCheckpoint::kOldestReadableVersion) +
                 ".." + std::to_string(SearchCheckpoint::kVersion) + ")",
             path);
    }

    SearchCheckpoint checkpoint;
    checkpoint.run_id = reader.text_record("run_id");
    checkpoint.build = reader.text_record("build");
    checkpoint.space_digest = reader.hex(reader.value("space_digest"));
    checkpoint.scenario_digest = reader.hex(reader.value("scenario_digest"));
    checkpoint.context_key = reader.hex(reader.value("context_key"));
    checkpoint.context_stamp = reader.number(reader.value("context_stamp"));
    checkpoint.trials_done = reader.number(reader.value("trials_done"));
    checkpoint.run_rng = reader.rng("run_rng");
    checkpoint.bo.rng = reader.rng("bo_rng");
    checkpoint.bo.initial_used = reader.number(reader.value("initial_used"));
    if (version >= 3) {
        const std::vector<std::string> tr = reader.record("trust_region", 4);
        checkpoint.bo.trust_region.length = reader.bits(tr[1]);
        checkpoint.bo.trust_region.successes = reader.number(tr[2]);
        checkpoint.bo.trust_region.failures = reader.number(tr[3]);
        checkpoint.bo.trust_region.restarts = reader.number(tr[4]);
    }
    // v2: no record — bo.trust_region keeps its default (length 0), which
    // BayesOpt::import_state treats as "use the configured initial edge".

    reader.points("initial_plan", checkpoint.bo.initial_plan, nullptr);
    {
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        reader.points("trials", xs, &ys);
        checkpoint.bo.trials.reserve(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            checkpoint.bo.trials.push_back(
                bayesopt::Trial{std::move(xs[i]), ys[i]});
        }
    }
    {
        const std::vector<std::string> header =
            reader.record("trial_status");
        if (header.size() < 2 ||
            reader.number(header[1]) != checkpoint.bo.trials.size() ||
            header.size() != 2 + checkpoint.bo.trials.size()) {
            fail("trial_status count disagrees with trials", path);
        }
        for (std::size_t i = 0; i < checkpoint.bo.trials.size(); ++i) {
            const std::uint64_t code = reader.number(header[2 + i]);
            if (code > static_cast<std::uint64_t>(
                           TrialStatus::kFailedTimeout)) {
                fail("unknown trial status code " + header[2 + i], path);
            }
            checkpoint.bo.trials[i].status =
                static_cast<TrialStatus>(code);
        }
    }
    {
        std::vector<std::vector<double>> xs;
        std::vector<double> ys;
        reader.points("cache", xs, &ys);
        checkpoint.cache.reserve(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            checkpoint.cache.emplace_back(std::move(xs[i]), ys[i]);
        }
    }
    reader.model_block(checkpoint.model_bits, checkpoint.model_digest,
                       checkpoint.model_rngs);
    reader.end();
    if (checkpoint.trials_done != checkpoint.bo.trials.size()) {
        fail("trial count disagrees with trials_done", path);
    }
    return checkpoint;
}

void save_model(nn::Module& model, const std::string& path) {
    const std::vector<std::uint32_t> bits = snapshot_model(model);
    const std::vector<RngState> rngs = snapshot_model_rngs(model);
    const std::uint64_t digest = model_structure_digest(model);
    write_file_atomically(path, [&](std::ostream& out) {
        out << kModelMagic << ' ' << kModelFileVersion << '\n';
        write_model_block(out, bits, digest, rngs);
        out << "model_check " << format_hex(model_file_check(bits, rngs))
            << '\n';
    });
}

void load_model(nn::Module& model, const std::string& path) {
    std::ifstream in(path);
    if (!in) fail("cannot open", path);
    Reader reader(in, path);
    const std::uint64_t version = reader.version(kModelMagic);
    if (version != kModelFileVersion) {
        fail("unsupported model file version " + std::to_string(version),
             path);
    }
    std::vector<std::uint32_t> bits;
    std::uint64_t digest = 0;
    std::vector<RngState> rngs;
    reader.model_block(bits, digest, rngs);
    if (reader.hex(reader.value("model_check")) !=
        model_file_check(bits, rngs)) {
        fail("model words or mask states differ from their check record",
             path);
    }
    reader.end();
    // restore_model sizes its payload before it writes, and the mask-state
    // count is checked here, so a refused file leaves the model as it was.
    if (digest != model_structure_digest(model) ||
        rngs.size() != snapshot_model_rngs(model).size()) {
        fail("model structure mismatch — the file was written for a "
             "different architecture",
             path);
    }
    restore_model(model, bits);
    restore_model_rngs(model, rngs);
}

bool checkpoint_exists(const std::string& path) {
    std::error_code error;
    return std::filesystem::is_regular_file(path, error);
}

void fsync_file(const std::string& path) {
#ifdef BAYESFT_HAS_FSYNC
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) fail("cannot open for fsync", path);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) fail("fsync failed", path);
#else
    (void)path;
#endif
}

void fsync_parent_dir(const std::string& path) {
#ifdef BAYESFT_HAS_FSYNC
    std::string dir =
        std::filesystem::path(path).parent_path().string();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;  // best-effort (see header)
    ::fsync(fd);
    ::close(fd);
#else
    (void)path;
#endif
}

std::uint64_t mix_train_config(std::uint64_t key,
                               const nn::TrainConfig& train) {
    key = mix_key(key, static_cast<std::uint64_t>(train.epochs));
    key = mix_key(key, static_cast<std::uint64_t>(train.batch_size));
    // 1.0 and 0 stand where the retired lr_decay and use_adam knobs were
    // folded, so every scenario digest (and checkpoint) keeps its value.
    const double reals[] = {train.learning_rate, train.momentum,
                            train.weight_decay, 1.0};
    key = mix_key(key, reals, 4);
    return mix_key(key, std::uint64_t{0});
}

std::uint64_t mix_bo_config(std::uint64_t key,
                            const bayesopt::BayesOptConfig& config) {
    key = mix_key(key,
                  static_cast<std::uint64_t>(config.initial_random_trials));
    key = mix_key(key, static_cast<std::uint64_t>(
                           config.latin_hypercube_init ? 1 : 0));
    key = mix_key(key, static_cast<std::uint64_t>(config.candidates));
    key = mix_key(key, static_cast<std::uint64_t>(config.local_candidates));
    const double reals[] = {config.local_sigma_fraction,
                            config.noise_variance,
                            config.duplicate_tolerance,
                            config.batch_separation_fraction};
    key = mix_key(key, reals, 4);
    // The fail policy shapes what the GP sees, hence the proposal stream —
    // unlike the resilience knobs (isolate/timeout/retries), which are
    // result-invariant and deliberately NOT digested (like thread count).
    key = mix_key(key, static_cast<std::uint64_t>(config.fail_policy));
    key = mix_key(key, &config.fail_penalty, 1);
    // Trust-region knobs are folded ONLY when the feature is on, so every
    // pre-existing (trust-region-off) scenario digest — and with it every
    // v2 checkpoint in the wild — stays valid under this build.
    if (config.trust_region.enabled) {
        const bayesopt::TrustRegionConfig& tr = config.trust_region;
        key = mix_key(key, std::string_view("trust-region"));
        key = mix_key(key, static_cast<std::uint64_t>(tr.activate_after));
        const double tr_reals[] = {tr.initial_length, tr.min_length,
                                   tr.max_length};
        key = mix_key(key, tr_reals, 3);
        key = mix_key(key, static_cast<std::uint64_t>(tr.success_tolerance));
        key = mix_key(key, static_cast<std::uint64_t>(tr.failure_tolerance));
        key = mix_key(key,
                      static_cast<std::uint64_t>(tr.max_local_trials));
    }
    return key;
}

std::uint64_t mix_rng_state(std::uint64_t key, const RngState& state) {
    for (std::uint64_t lane : state.lanes) key = mix_key(key, lane);
    key = mix_key(key, state.cached_normal_bits);
    return mix_key(key,
                   static_cast<std::uint64_t>(state.has_cached_normal));
}

void validate_checkpoint(const SearchCheckpoint& checkpoint,
                         std::uint64_t space_digest,
                         std::uint64_t scenario_digest,
                         const std::string& path) {
    if (checkpoint.space_digest != space_digest) {
        fail("search-space digest mismatch — the checkpoint was written for "
             "a different ParamSpace; delete it (or point --checkpoint "
             "elsewhere) to start fresh",
             path);
    }
    if (checkpoint.scenario_digest != scenario_digest) {
        fail("scenario digest mismatch — the checkpoint was written under a "
             "different objective/loop configuration (fault set, MC "
             "samples, iterations, batch, seed, ...) or numerics "
             "generation (this build: " +
                 std::to_string(kNumericsGeneration) +
                 "); delete it to start fresh",
             path);
    }
}

namespace {

/// Get/set access to one layer's internal mask generator.
struct MaskRngSite {
    std::function<RngState()> get;
    std::function<void(const RngState&)> set;
};

/// THE single registry of RNG-bearing layer types: snapshot, restore, and
/// the structure digest all go through this collector, so a new
/// mask-drawing module type added here is automatically covered by all
/// three (miss it here and the torture tests' bitwise weight comparison
/// fails; there is no second place to forget).
std::vector<MaskRngSite> collect_mask_rng_sites(nn::Module& root) {
    std::vector<MaskRngSite> sites;
    nn::visit(root, [&](nn::Module& node) {
        if (auto* dropout = dynamic_cast<nn::Dropout*>(&node)) {
            sites.push_back(
                {[dropout] { return dropout->mask_rng_state(); },
                 [dropout](const RngState& state) {
                     dropout->set_mask_rng_state(state);
                 }});
        } else if (auto* alpha = dynamic_cast<nn::AlphaDropout*>(&node)) {
            sites.push_back(
                {[alpha] { return alpha->mask_rng_state(); },
                 [alpha](const RngState& state) {
                     alpha->set_mask_rng_state(state);
                 }});
        }
    });
    return sites;
}

}  // namespace

std::vector<std::uint32_t> snapshot_model(nn::Module& model) {
    std::vector<std::uint32_t> bits;
    for (const nn::Parameter* p : model.parameters()) {
        const float* data = p->value.data();
        for (std::size_t i = 0; i < p->value.size(); ++i) {
            std::uint32_t b = 0;
            std::memcpy(&b, &data[i], sizeof(float));
            bits.push_back(b);
        }
    }
    for (const Tensor* buffer : model.buffers()) {
        const float* data = buffer->data();
        for (std::size_t i = 0; i < buffer->size(); ++i) {
            std::uint32_t b = 0;
            std::memcpy(&b, &data[i], sizeof(float));
            bits.push_back(b);
        }
    }
    return bits;
}

std::vector<RngState> snapshot_model_rngs(nn::Module& model) {
    std::vector<RngState> states;
    for (const MaskRngSite& site : collect_mask_rng_sites(model)) {
        states.push_back(site.get());
    }
    return states;
}

void restore_model_rngs(nn::Module& model,
                        const std::vector<RngState>& states) {
    const std::vector<MaskRngSite> sites = collect_mask_rng_sites(model);
    if (sites.size() != states.size()) {
        throw std::runtime_error(
            "checkpoint: dropout RNG state count mismatch (" +
            std::to_string(states.size()) + " stored, " +
            std::to_string(sites.size()) + " layers)");
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
        sites[i].set(states[i]);
    }
}

std::uint64_t model_structure_digest(nn::Module& model) {
    std::uint64_t digest = mix_key(0, std::string_view("model-structure"));
    for (const nn::Parameter* p : model.parameters()) {
        digest = mix_key(digest, std::string_view(p->name));
        digest = mix_key(digest,
                         static_cast<std::uint64_t>(p->value.rank()));
        for (std::size_t d = 0; d < p->value.rank(); ++d) {
            digest = mix_key(digest,
                             static_cast<std::uint64_t>(p->value.dim(d)));
        }
    }
    for (const Tensor* buffer : model.buffers()) {
        digest = mix_key(digest, static_cast<std::uint64_t>(buffer->rank()));
        for (std::size_t d = 0; d < buffer->rank(); ++d) {
            digest = mix_key(digest,
                             static_cast<std::uint64_t>(buffer->dim(d)));
        }
    }
    return mix_key(digest, static_cast<std::uint64_t>(
                               collect_mask_rng_sites(model).size()));
}

void restore_model(nn::Module& model,
                   const std::vector<std::uint32_t>& bits) {
    const std::vector<nn::Parameter*> params = model.parameters();
    const std::vector<Tensor*> buffers = model.buffers();
    std::size_t words = 0;
    for (const nn::Parameter* p : params) words += p->value.size();
    for (const Tensor* buffer : buffers) words += buffer->size();
    // Sized before anything is copied, so a rejected payload leaves the
    // model as it was.
    if (words != bits.size()) {
        throw std::runtime_error("checkpoint: model payload holds " +
                                 std::to_string(bits.size()) +
                                 " words, the live model " +
                                 std::to_string(words));
    }
    std::size_t cursor = 0;
    const auto copy_into = [&](float* data, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i, ++cursor) {
            std::memcpy(&data[i], &bits[cursor], sizeof(float));
        }
    };
    for (nn::Parameter* p : params) {
        copy_into(p->value.data(), p->value.size());
    }
    for (Tensor* buffer : buffers) {
        copy_into(buffer->data(), buffer->size());
    }
}

}  // namespace bayesft::core
