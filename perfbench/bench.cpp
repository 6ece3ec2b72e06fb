#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

void note(const std::string& text) { std::cout << "# " << text << "\n"; }

std::string seconds_list(const std::vector<double>& seconds) {
    std::string text = std::to_string(seconds.size()) + " (";
    char buffer[32];
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        std::snprintf(buffer, sizeof buffer, "%s%.2f", i ? " " : "",
                      seconds[i]);
        text += buffer;
    }
    return text + ") s";
}

// ---------------------------------------------------------------- stats --

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fastest(const std::vector<double>& seconds) {
    return seconds.empty() ? 0.0
                           : *std::min_element(seconds.begin(), seconds.end());
}

Tail tail_percentile(std::vector<double> values, double wanted) {
    Tail tail;
    tail.count = values.size();
    if (values.empty()) return tail;
    const std::size_t n = values.size();
    if (n <= 10) {
        tail.p = 0.5;
        tail.value = median(std::move(values));
        return tail;
    }
    // Nearest rank: the value at 1-based rank ceil(p * n) has n - rank
    // samples beyond it, so p may be at most (n - 10) / n.
    const double highest =
        static_cast<double>(n - 10) / static_cast<double>(n);
    tail.p = std::min(wanted, highest);
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(tail.p * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::sort(values.begin(), values.end());
    tail.value = values[rank - 1];
    return tail;
}

OpenLoopTimes open_loop_times(const std::vector<double>& due_s,
                              const std::vector<double>& sent_s,
                              const std::vector<double>& done_s) {
    if (due_s.size() != sent_s.size() || due_s.size() != done_s.size()) {
        throw std::invalid_argument("open_loop_times: size mismatch");
    }
    OpenLoopTimes times;
    times.latency_ms.reserve(due_s.size());
    times.lag_ms.reserve(due_s.size());
    for (std::size_t i = 0; i < due_s.size(); ++i) {
        times.latency_ms.push_back(1e3 * (done_s[i] - due_s[i]));
        times.lag_ms.push_back(1e3 * (sent_s[i] - due_s[i]));
    }
    return times;
}

serve::ServeStats stats_delta(const serve::ServeStats& before,
                              const serve::ServeStats& after) {
    const auto sub = [](std::uint64_t a, std::uint64_t b, const char* name) {
        if (b < a) {
            throw std::runtime_error(std::string("stats counter '") + name +
                                     "' went backwards");
        }
        return b - a;
    };
    serve::ServeStats d;
    d.connections = sub(before.connections, after.connections, "connections");
    d.requests = sub(before.requests, after.requests, "requests");
    d.protocol_errors =
        sub(before.protocol_errors, after.protocol_errors, "protocol_errors");
    d.accepted = sub(before.accepted, after.accepted, "accepted");
    d.busy = sub(before.busy, after.busy, "busy");
    d.completed = sub(before.completed, after.completed, "completed");
    d.failed = sub(before.failed, after.failed, "failed");
    d.batches = sub(before.batches, after.batches, "batches");
    d.cache_hits = sub(before.cache_hits, after.cache_hits, "cache_hits");
    d.cache_evictions =
        sub(before.cache_evictions, after.cache_evictions, "cache_evictions");
    // cache_size is a level, not a counter: report the later value.
    d.cache_size = after.cache_size;
    return d;
}

// ---------------------------------------------------------------- trace --

namespace {

using Clock = std::chrono::steady_clock;

struct TraceState {
    std::mutex mutex;
    std::map<std::string, Trace::Aggregate> aggregates;
    std::vector<std::pair<double, double>> top;
};

TraceState& state() {
    static TraceState s;
    return s;
}

std::atomic<bool> g_enabled{false};
thread_local Span* t_current = nullptr;

}  // namespace

double now_s() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

void Trace::set_enabled(bool on) {
    g_enabled.store(on, std::memory_order_relaxed);
}

void Trace::reset() {
    std::lock_guard<std::mutex> lock(state().mutex);
    state().aggregates.clear();
    state().top.clear();
}

std::map<std::string, Trace::Aggregate> Trace::aggregates() {
    std::lock_guard<std::mutex> lock(state().mutex);
    return state().aggregates;
}

std::vector<std::pair<double, double>> Trace::top_intervals() {
    std::lock_guard<std::mutex> lock(state().mutex);
    return state().top;
}

Span::Span(const char* name)
    : name_(name), on_(g_enabled.load(std::memory_order_relaxed)) {
    if (!on_) return;
    parent_ = t_current;
    t_current = this;
    start_ = now_s();
}

Span::~Span() {
    if (!on_) return;
    const double end = now_s();
    const double duration = end - start_;
    t_current = parent_;
    std::lock_guard<std::mutex> lock(state().mutex);
    Trace::Aggregate& agg = state().aggregates[name_];
    ++agg.calls;
    agg.total_s += duration;
    agg.durations_s.push_back(duration);
    if (parent_ == nullptr) state().top.emplace_back(start_, end);
}

double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi) {
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : intervals) {
        const double start = std::max(a, reach);
        const double end = std::min(b, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

// ---------------------------------------------------------------- misc --

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
    }
    return 0.0;
}

const std::string& scratch_dir() {
    static const std::string dir = [] {
        const std::string path =
            ".bench_tmp/run-" + std::to_string(::getpid());
        std::filesystem::create_directories(path);
        return path;
    }();
    return dir;
}

void remove_scratch_dir() {
    std::error_code ignored;
    std::filesystem::remove_all(scratch_dir(), ignored);
    std::filesystem::remove(".bench_tmp", ignored);  // only when empty
}

}  // namespace perfbench
