// Self-test of the benchmark's own arithmetic: medians, the tail
// percentile rule, open-loop lateness, the deltas of the server's `stats`
// lines and span coverage.  run.py runs it before every measurement.

#include <cmath>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::cerr << "self-test failed: " << what << "\n";
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    return values;
}

}  // namespace

int self_test() {
    g_failures = 0;

    expect(near(median({3, 1, 2}), 2.0), "median of an odd count");
    expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
    expect(near(median({}), 0.0), "median of nothing");
    expect(near(fastest({9.5, 8.25, 10.0}), 8.25), "fastest repeat");
    expect(near(fastest({}), 0.0), "fastest of nothing");

    Tail t = tail_percentile(one_to(1000));
    expect(near(t.p, 0.99) && near(t.value, 990.0) && t.count == 1000,
           "p99 of 1000 samples leaves ten beyond it");
    t = tail_percentile(one_to(100));
    expect(near(t.p, 0.90) && near(t.value, 90.0),
           "100 samples support only p90");
    t = tail_percentile(one_to(11));
    expect(near(t.value, 1.0), "11 samples: the lowest keeps ten beyond");
    t = tail_percentile(one_to(5));
    expect(near(t.p, 0.5) && near(t.value, 3.0),
           "ten samples or fewer fall back to the median");
    t = tail_percentile({5, 1, 4, 2, 3, 10, 9, 8, 7, 6, 12, 11, 13, 15, 14,
                         16, 17, 18, 19, 20});
    expect(near(t.value, 10.0), "tail percentile sorts its input");

    // A generator stall: requests 1 and 2 were sent late, so timed from
    // when they were due they carry the stall; lateness says how late.
    const OpenLoopTimes times = open_loop_times(
        {0.000, 0.001, 0.002}, {0.000, 0.009, 0.010}, {0.010, 0.011, 0.012});
    expect(near(times.latency_ms[0], 10.0) && near(times.latency_ms[1], 10.0) &&
               near(times.latency_ms[2], 10.0),
           "open-loop latency counts from the due time");
    expect(near(times.lag_ms[0], 0.0) && near(times.lag_ms[1], 8.0) &&
               near(times.lag_ms[2], 8.0),
           "open-loop lateness is sent minus due");
    bool threw = false;
    try {
        open_loop_times({0.0}, {}, {0.0});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "open-loop timing rejects mismatched vectors");

    serve::ServeStats a;
    a.requests = 10;
    a.completed = 8;
    a.cache_hits = 3;
    a.busy = 1;
    a.batches = 2;
    a.cache_size = 5;
    serve::ServeStats b = a;
    b.requests = 25;
    b.completed = 20;
    b.cache_hits = 9;
    b.cache_evictions = 4;
    b.cache_size = 7;
    serve::ServeStats pa, pb;
    expect(serve::parse_stats(serve::stats_json(a), pa) &&
               serve::parse_stats(serve::stats_json(b), pb),
           "stats lines parse");
    const serve::ServeStats d = stats_delta(pa, pb);
    expect(d.requests == 15 && d.completed == 12 && d.cache_hits == 6 &&
               d.busy == 0 && d.batches == 0 && d.cache_evictions == 4 &&
               d.cache_size == 7,
           "stats deltas subtract counters and keep the latest level");
    threw = false;
    try {
        stats_delta(pb, pa);
    } catch (const std::runtime_error&) {
        threw = true;
    }
    expect(threw, "a counter going backwards is an error");
    serve::ServeStats junk;
    expect(!serve::parse_stats("{\"kind\":\"trial\"}", junk),
           "a non-stats line is rejected");

    const std::vector<std::pair<double, double>> spans = {
        {0.0, 1.0}, {0.5, 2.0}, {3.0, 4.0}, {3.5, 3.6}};
    expect(near(covered_seconds(spans, 0.0, 5.0), 3.0),
           "span coverage is the union of the intervals");
    expect(near(covered_seconds(spans, 1.5, 3.5), 1.0),
           "span coverage is clipped to the window");
    return g_failures;
}

}  // namespace perfbench
