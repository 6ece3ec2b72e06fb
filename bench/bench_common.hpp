#pragma once
// Shared infrastructure of the qualitative figure benches (fig1, fig4).
//
// The tabular figures are registry scenarios (src/core/registry.cpp) run
// through `experiments --run <name>`; these two benches draw the paper's
// visual panels, so this header only carries the smoke-run scaling and
// the standard main.
//
// Set BAYESFT_QUICK=1 to shrink datasets/epochs for a fast smoke run.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "utils/logging.hpp"

namespace bayesft::bench {

/// True when the BAYESFT_QUICK environment variable requests a smoke run.
inline bool quick_mode() {
    const char* env = std::getenv("BAYESFT_QUICK");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Dataset sizing shared by the figure benches.
inline std::size_t default_sample_count(std::size_t full) {
    return quick_mode() ? full / 4 : full;
}

/// Common main body: quiet logging unless verbose.
inline void configure_bench_logging() {
    set_log_level(quick_mode() ? LogLevel::Error : LogLevel::Info);
}

}  // namespace bayesft::bench

/// Standard main for every bench binary.
#define BAYESFT_BENCH_MAIN()                                   \
    int main(int argc, char** argv) {                         \
        bayesft::bench::configure_bench_logging();            \
        benchmark::Initialize(&argc, argv);                   \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
        benchmark::RunSpecifiedBenchmarks();                  \
        benchmark::Shutdown();                                \
        return 0;                                             \
    }
