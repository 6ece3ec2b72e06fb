// The serve/ layer probe of the traced search_long run: an in-process
// serve::EvalServer on the toy_mlp target, persisting to a run store,
// loaded open loop over four connections from one generator thread.  Half
// the requests repeat a hot pool (cache reads), half are fresh points
// (engine evaluations plus run-store writes); variants mix drift and
// stuck-at in float32 with the DAC12 deployment in int12.
//
// Serving latency is not an end-to-end metric of the benchmark: on a
// shared 4-vCPU VM its p50, p99 and max-rate figures moved 30-50% between
// runs of the same code with the load of other tenants (p50 doubled in
// slow spells), so only these per-layer figures, which carry no bound,
// are measured.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/targets.hpp"

namespace perfbench {

using namespace bayesft;

namespace {

/// Offered rate of the probe: about three quarters of this mix's capacity
/// on a 4-vCPU AVX-512 VM (8.4k requests per second over four closed-loop
/// connections).
constexpr double kRate = 6000.0;
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kHotPool = 64;
constexpr std::size_t kVerifySample = 24;

struct Request {
    const serve::FaultVariant* variant = nullptr;
    nn::InferenceMode mode = nn::InferenceMode::kFloat32;
    core::Alpha point;
    std::string line;
};

/// The seeded request stream: 50% hot-pool repeats, 50% fresh points;
/// 60% drift/float32, 20% stuckat/float32, 20% dac12/int12.
class Mix {
public:
    Mix(const serve::ServeTarget& target, std::uint64_t seed)
        : target_(target), rng_(0x5e7e + seed) {
        for (std::size_t i = 0; i < kHotPool; ++i) hot_.push_back(fresh());
    }

    Request next() {
        return rng_.uniform() < 0.5 ? hot_[rng_.uniform_int(hot_.size())]
                                    : fresh();
    }
    std::vector<Request> take(std::size_t n) {
        std::vector<Request> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) out.push_back(next());
        return out;
    }
    const std::vector<Request>& hot() const { return hot_; }

private:
    Request fresh() {
        Request request;
        const double u = rng_.uniform();
        const char* name = u < 0.6 ? "drift" : u < 0.8 ? "stuckat" : "dac12";
        for (const serve::FaultVariant& v : target_.variants) {
            if (v.name == name) request.variant = &v;
        }
        request.mode = u < 0.8 ? nn::InferenceMode::kFloat32
                               : nn::InferenceMode::kInt12;
        request.point = target_.bounds.sample(rng_);
        serve::EvalRequest eval;
        eval.target = target_.digest;
        eval.fault = request.variant->digest;
        eval.inference = request.mode;
        eval.point = request.point;
        request.line = serve::format_eval_request(eval);
        return request;
    }

    const serve::ServeTarget& target_;
    Rng rng_;
    std::vector<Request> hot_;
};

/// What came back for one batch of requests.
struct Phase {
    std::vector<std::string> responses;     ///< by request
    std::vector<std::size_t> conn_index;    ///< per-connection eval index
    std::vector<double> latency_ms, lag_ms;
};

/// Request i goes to connection i % kConnections, so its index there (the
/// server's per-connection trial counter) is i / kConnections.
Phase assign(std::size_t n) {
    Phase phase;
    phase.responses.assign(n, std::string());
    phase.conn_index.resize(n);
    for (std::size_t i = 0; i < n; ++i) phase.conn_index[i] = i / kConnections;
    return phase;
}

/// A non-blocking Unix-socket connection read by the open-loop generator.
class Connection {
public:
    explicit Connection(const std::string& path)
        : fd_(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
            throw std::runtime_error("cannot open a socket to " + path);
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size());
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
            ::close(fd_);
            throw std::runtime_error("cannot connect to " + path);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const { return fd_; }

    void send_line(const std::string& line) {
        const std::string bytes = line + '\n';
        for (std::size_t at = 0; at < bytes.size();) {
            const ssize_t wrote =
                ::send(fd_, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
            if (wrote < 0 && errno == EINTR) continue;
            if (wrote <= 0) throw std::runtime_error("server connection broke");
            at += static_cast<std::size_t>(wrote);
        }
    }

    /// Appends every complete line readable now to `lines`.
    void read_lines(std::vector<std::string>& lines) {
        char chunk[65536];
        const ssize_t got = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got == 0) throw std::runtime_error("server closed a connection");
        if (got < 0) return;
        buffer_.append(chunk, static_cast<std::size_t>(got));
        std::size_t at;
        while ((at = buffer_.find('\n')) != std::string::npos) {
            lines.push_back(buffer_.substr(0, at));
            buffer_.erase(0, at + 1);
        }
    }

private:
    int fd_;
    std::string buffer_;
};

/// Open loop: request i is due `due_s[i]` after the start, whatever the
/// server is doing.  One thread sends each request when due and, between
/// sends, reads the replies of all connections.
Phase open_loop(const std::string& socket, const std::vector<Request>& reqs,
                const std::vector<double>& due_s) {
    const std::size_t n = reqs.size();
    Phase phase = assign(n);
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<pollfd> fds;
    for (std::size_t c = 0; c < kConnections; ++c) {
        conns.push_back(std::make_unique<Connection>(socket));
        fds.push_back({conns.back()->fd(), POLLIN, 0});
    }
    std::vector<double> due(n), sent(n), done(n, 0.0);
    std::vector<std::size_t> received(kConnections, 0);
    std::vector<std::string> lines;
    const double base = now_s() + 0.002;
    const double give_up = base + due_s.back() + 30.0;
    std::size_t next = 0, answered = 0;
    while (answered < n && now_s() < give_up) {
        while (next < n && base + due_s[next] <= now_s()) {
            due[next] = base + due_s[next];
            sent[next] = now_s();
            conns[next % kConnections]->send_line(reqs[next].line);
            ++next;
        }
        const double wait = next < n ? base + due_s[next] - now_s() : 0.05;
        timespec timeout{};
        if (wait > 0) {
            timeout.tv_sec = static_cast<time_t>(wait);
            timeout.tv_nsec = static_cast<long>(
                (wait - static_cast<double>(timeout.tv_sec)) * 1e9);
        }
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
        for (std::size_t c = 0; c < kConnections; ++c) {
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            lines.clear();
            conns[c]->read_lines(lines);
            const double stamp = now_s();
            for (std::string& line : lines) {
                const std::size_t i = c + kConnections * received[c]++;
                if (i >= n) throw std::runtime_error("unrequested reply");
                phase.responses[i] = std::move(line);
                done[i] = stamp;
                ++answered;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= next) due[i] = sent[i] = base + due_s[i];
        if (phase.responses[i].empty()) done[i] = sent[i] + 30.0;
    }
    const OpenLoopTimes times = open_loop_times(due, sent, done);
    phase.latency_ms = times.latency_ms;
    phase.lag_ms = times.lag_ms;
    return phase;
}

/// Seeded Poisson arrival times for `n` requests at `rate` per second.
std::vector<double> poisson_schedule(std::size_t n, double rate, Rng& rng) {
    std::vector<double> due(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = t;
        t += -std::log(1.0 - rng.uniform()) / rate;
    }
    return due;
}

serve::ServeStats fetch_stats(const std::string& socket) {
    serve::ServeClient client = serve::ServeClient::connect_unix(socket);
    serve::ServeStats stats;
    const std::string line = client.request("stats");
    if (!serve::parse_stats(line, stats)) {
        throw std::runtime_error("bad stats response: " + line);
    }
    return stats;
}

serve::ServeConfig server_config() {
    serve::ServeConfig config;
    config.socket_path = scratch_dir() + "/serve.sock";
    config.runs_dir = scratch_dir() + "/runs";
    return config;
}

/// Starts a server and waits for its first `pong`.
std::unique_ptr<serve::EvalServer> start_server(
    std::vector<serve::ServeTarget> targets) {
    auto server = std::make_unique<serve::EvalServer>(server_config(),
                                                      std::move(targets));
    server->start();
    serve::ServeClient client =
        serve::ServeClient::connect_unix(server_config().socket_path);
    if (client.request("ping") != "pong") {
        throw std::runtime_error("server did not answer ping");
    }
    return server;
}

const serve::ServeTarget& toy_mlp(const std::vector<serve::ServeTarget>& all) {
    for (const serve::ServeTarget& target : all) {
        if (target.name == "toy_mlp") return target;
    }
    throw std::runtime_error("no toy_mlp serve target");
}

/// Byte-compares about kVerifySample served responses of `phase` with
/// direct in-process evaluation; returns the mismatches.  A `busy` refusal
/// is backpressure, not a wrong answer, so it is not compared.
std::size_t verify(const serve::ServeTarget& target,
                   const std::vector<Request>& reqs, const Phase& phase) {
    std::map<std::pair<const serve::FaultVariant*, nn::InferenceMode>,
             std::vector<std::size_t>>
        groups;
    const std::size_t stride = std::max<std::size_t>(1, reqs.size() /
                                                            kVerifySample);
    for (std::size_t i = 0; i < reqs.size(); i += stride) {
        if (phase.responses[i] == serve::kBusyResponse) continue;
        groups[{reqs[i].variant, reqs[i].mode}].push_back(i);
    }
    std::size_t mismatches = 0;
    for (const auto& [bucket, indices] : groups) {
        std::vector<core::Alpha> points;
        std::vector<std::uint64_t> trials;
        for (std::size_t i : indices) {
            points.push_back(reqs[i].point);
            trials.push_back(phase.conn_index[i]);
        }
        const std::vector<std::string> expected = serve::reference_responses(
            target, *bucket.first, bucket.second, points, trials);
        for (std::size_t j = 0; j < indices.size(); ++j) {
            if (phase.responses[indices[j]] != expected[j]) ++mismatches;
        }
    }
    return mismatches;
}

void add_layer_stats(Result& result, const serve::ServeStats& d) {
    const double completed = static_cast<double>(d.completed);
    result.metrics["serve.batch_mean"] =
        d.batches ? (completed - static_cast<double>(d.cache_hits)) /
                        static_cast<double>(d.batches)
                  : 0.0;
    result.metrics["serve.cache_hit_ratio"] =
        completed > 0 ? static_cast<double>(d.cache_hits) / completed : 0.0;
    result.metrics["serve.busy_ratio"] =
        static_cast<double>(d.busy) /
        std::max(1.0, completed + static_cast<double>(d.busy));
    result.metrics["serve.evictions"] = static_cast<double>(d.cache_evictions);
}

}  // namespace

void serve_probe(Result& result, std::uint64_t seed) {
    const std::vector<serve::ServeTarget> targets =
        serve::builtin_targets(false);
    const std::string socket = server_config().socket_path;
    const std::unique_ptr<serve::EvalServer> server = start_server(targets);
    const serve::ServeTarget& target = toy_mlp(targets);
    Mix mix(target, seed);
    {
        // The hot pool enters the cache.
        serve::ServeClient client = serve::ServeClient::connect_unix(socket);
        for (const Request& req : mix.hot()) client.request(req.line, 30.0);
    }

    Rng schedule_rng(0xd0e + seed);
    const std::vector<Request> reqs =
        mix.take(static_cast<std::size_t>(kRate * kProbeSeconds));
    const serve::ServeStats before = fetch_stats(socket);
    const Phase phase =
        open_loop(socket, reqs, poisson_schedule(reqs.size(), kRate,
                                                 schedule_rng));
    const serve::ServeStats delta = stats_delta(before, fetch_stats(socket));
    add_layer_stats(result, delta);
    result.metrics["gen.lag_ms_p99"] = tail_percentile(phase.lag_ms).value;
    note("serve probe: " + std::to_string(reqs.size()) + " requests at " +
         std::to_string(kRate) + " req/s, p50 " +
         std::to_string(median(phase.latency_ms)) + " ms, p99 " +
         std::to_string(tail_percentile(phase.latency_ms).value) + " ms");

    const std::size_t mismatches = verify(target, reqs, phase);
    result.check(mismatches == 0, std::to_string(mismatches) +
                                      " served responses differ from "
                                      "in-process evaluation");
    result.check(delta.protocol_errors == 0,
                 std::to_string(delta.protocol_errors) + " protocol errors");

    // The protocol parser replayed on the generated lines.
    constexpr int kParseReps = 5;
    serve::Request parsed;
    std::string error;
    const double start = now_s();
    for (int r = 0; r < kParseReps; ++r) {
        for (const Request& req : reqs) {
            result.check(serve::parse_request(req.line, parsed, error),
                         "generated request does not parse: " + error);
        }
    }
    result.metrics["serve.parse_us"] =
        1e6 * (now_s() - start) / (kParseReps * reqs.size());
}

}  // namespace perfbench
