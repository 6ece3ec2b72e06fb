// perfbench: the repository benchmark (README.md).  One run of one workload:
//
//   perfbench --workload <fig3b_lenet|search_long> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints a host-fingerprint line and `# ...` notes, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// Exits 1 when a correctness check fails (after printing the result).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/persist.hpp"
#include "simd/kernels.hpp"
#include "utils/logging.hpp"
#include "utils/parallel.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
    const char* name;
    const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"peak_rss_mb", "MB"},    {"robust_acc", "fraction"},
    {"best_utility", "fraction"}, {"ok_frac", "fraction"},
};

const MetricSpec kPerLayer[] = {
    {"data.synth_s", "s"},
    {"tensor.gemm_dw.gflops", "GFLOP/s"},
    {"tensor.gemm_dw.flops", "flop"},
    {"tensor.gemm_dw.bytes", "B"},
    {"tensor.gemm_fwd.gflops", "GFLOP/s"},
    {"tensor.gemm_fwd.flops", "flop"},
    {"tensor.gemm_fwd.bytes", "B"},
    {"tensor.gemm_dx.gflops", "GFLOP/s"},
    {"tensor.gemm_dx.flops", "flop"},
    {"tensor.gemm_dx.bytes", "B"},
    {"tensor.gemm_mlp.gflops", "GFLOP/s"},
    {"tensor.gemm_mlp.flops", "flop"},
    {"tensor.gemm_mlp.bytes", "B"},
    {"tensor.im2col.gbps", "GB/s"},
    {"tensor.col2im.gbps", "GB/s"},
    {"tensor.transpose.gbps", "GB/s"},
    {"nn.fwd_s", "s"},
    {"nn.bwd_s", "s"},
    {"nn.step_s", "s"},
    {"nn.train_s", "s"},
    {"fault.mc_eval_s", "s"},
    {"fault.mc_eval_calls", "count"},
    {"bo.suggest_s", "s"},
    {"bo.suggest_ms_p99", "ms"},
    {"bo.observe_s", "s"},
    {"bo.gp_rows", "count"},
    {"engine.eval_s", "s"},
    {"engine.cache_hits", "count"},
    {"engine.failed", "count"},
    {"persist.checkpoint_s", "s"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_bytes", "B"},
    {"runstore.append_s", "s"},
    {"serve.batch_mean", "count"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.busy_ratio", "fraction"},
    {"serve.evictions", "count"},
    {"serve.parse_us", "us"},
    {"gen.lag_ms_p99", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.unattributed_frac", "fraction"},
};

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// Host identity: records of different host classes are never compared.
void print_host() {
    using namespace bayesft;
    const std::string simd = simd::tier_name(simd::active_tier());
    const unsigned cores = std::thread::hardware_concurrency();
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    std::ostringstream host_class;
    host_class << cores << "core-" << simd << "-gcc" << __VERSION__ << "-"
               << build_type;
    std::cout << "{\"host\": {\"cores\": " << cores
              << ", \"simd\": " << json_string(simd)
              << ", \"compiler\": " << json_string(__VERSION__)
              << ", \"build_type\": " << json_string(build_type)
              << ", \"build_stamp\": " << json_string(core::build_stamp())
              << ", \"pool_threads\": " << parallel_thread_count()
              << ", \"host_class\": " << json_string(host_class.str())
              << "}}\n";
}

void print_result(Result& result, bool trace) {
    std::ostringstream metrics;
    bool first = true;
    const auto emit = [&](const MetricSpec& spec, bool required) {
        auto it = result.metrics.find(spec.name);
        double value = 0.0;
        if (it != result.metrics.end()) {
            value = it->second;
        } else {
            result.check(!required,
                         std::string("metric not measured: ") + spec.name);
        }
        if (!std::isfinite(value)) {
            result.check(false, std::string("non-finite metric: ") + spec.name);
            value = 0.0;
        }
        metrics << (first ? "" : ", ") << json_string(spec.name)
                << ": {\"value\": " << json_number(value)
                << ", \"unit\": " << json_string(spec.unit) << "}";
        first = false;
    };
    if (trace) {
        for (const MetricSpec& spec : kPerLayer) emit(spec, false);
    } else {
        for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
    }
    if (result.attempted == 0) result.attempted = 1;
    std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
}

int usage() {
    std::cerr << "usage: perfbench --workload <fig3b_lenet|search_long> "
                 "--seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --self-test\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            self_test = true;
            continue;
        }
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else {
            return usage();
        }
    }
    if (self_test) {
        const int failures = perfbench::self_test();
        std::cout << "perfbench self-test: "
                  << (failures == 0 ? "ok" : "FAILED") << "\n";
        return failures == 0 ? 0 : 1;
    }
    if (options.seconds <= 0.0) return usage();

    bayesft::set_log_level(bayesft::LogLevel::Warn);
    Result result;
    try {
        print_host();
        if (options.workload == "fig3b_lenet") {
            result = perfbench::run_fig3b(options);
        } else if (options.workload == "search_long") {
            result = perfbench::run_search(options);
        } else {
            perfbench::remove_scratch_dir();
            return usage();
        }
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << options.workload << ": " << error.what()
                  << "\n";
        perfbench::remove_scratch_dir();
        return 1;
    }
    perfbench::remove_scratch_dir();
    print_result(result, options.trace);
    return result.correct ? 0 : 1;
}
