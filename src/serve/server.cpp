#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/engine.hpp"
#include "core/runstore.hpp"
#include "serve/protocol.hpp"
#include "utils/logging.hpp"
#include "utils/signals.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define BAYESFT_HAS_SOCKETS 1
#endif

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace bayesft::serve {

namespace {

namespace fs = std::filesystem;

bool read_counter(const std::string& line, const char* key,
                  std::uint64_t& out) {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return false;
    try {
        out = std::stoull(line.substr(at + needle.size()));
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

#ifdef BAYESFT_HAS_SOCKETS

bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

#endif  // BAYESFT_HAS_SOCKETS

}  // namespace

std::string stats_json(const ServeStats& s) {
    std::string out = "{\"kind\":\"stats\"";
    out += ",\"connections\":" + std::to_string(s.connections);
    out += ",\"requests\":" + std::to_string(s.requests);
    out += ",\"protocol_errors\":" + std::to_string(s.protocol_errors);
    out += ",\"accepted\":" + std::to_string(s.accepted);
    out += ",\"busy\":" + std::to_string(s.busy);
    out += ",\"completed\":" + std::to_string(s.completed);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"batches\":" + std::to_string(s.batches);
    out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
    out += ",\"cache_evictions\":" + std::to_string(s.cache_evictions);
    out += ",\"cache_size\":" + std::to_string(s.cache_size);
    out += "}";
    return out;
}

bool parse_stats(const std::string& line, ServeStats& out) {
    if (line.find("\"kind\":\"stats\"") == std::string::npos) return false;
    return read_counter(line, "connections", out.connections) &&
           read_counter(line, "requests", out.requests) &&
           read_counter(line, "protocol_errors", out.protocol_errors) &&
           read_counter(line, "accepted", out.accepted) &&
           read_counter(line, "busy", out.busy) &&
           read_counter(line, "completed", out.completed) &&
           read_counter(line, "failed", out.failed) &&
           read_counter(line, "batches", out.batches) &&
           read_counter(line, "cache_hits", out.cache_hits) &&
           read_counter(line, "cache_evictions", out.cache_evictions) &&
           read_counter(line, "cache_size", out.cache_size);
}

#ifdef BAYESFT_HAS_SOCKETS

struct EvalServer::Impl {
    const ServeConfig config;
    const std::vector<ServeTarget>& targets;

    int unix_fd = -1;
    int tcp_fd = -1;
    int bound_tcp_port = 0;
    int wake_read = -1;
    int wake_write = -1;

    std::thread io_thread;
    std::thread dispatch_thread;

    mutable std::mutex mutex;
    std::condition_variable queue_cv;
    /// Service accepting work; cleared by the `shutdown` verb (I/O loop
    /// then drains pending responses and exits) and by stop().
    bool running = false;
    /// Hard stop: both loops exit as soon as they observe it.
    bool stop_requested = false;

    /// One response slot per request, claimed in request order.  `line`
    /// and `ready` are guarded by `mutex` (the dispatch thread fills
    /// them); the deque itself is touched only by the I/O thread.
    struct Slot {
        std::string line;
        bool ready = false;
    };
    struct Connection {
        int fd = -1;
        std::string in;
        std::string out;
        std::deque<std::shared_ptr<Slot>> slots;
        std::uint64_t evals = 0;  ///< well-formed eval requests seen
        bool overlong = false;    ///< discarding until the next newline
        bool closed = false;
    };
    std::map<int, Connection> connections;  // I/O thread only

    struct Job {
        std::shared_ptr<Slot> slot;
        const ServeTarget* target = nullptr;
        core::ObjectiveConfig objective;  ///< variant's, with mode applied
        core::Alpha point;
        core::EvalContext context;
        std::uint64_t cseed = 0;
        std::uint64_t trial = 0;
    };
    std::deque<Job> queue;

    /// Cross-client LRU result cache: (bucket context key, point) ->
    /// utility of a *successful* evaluation.  Failures are never cached —
    /// same policy as the engine memo cache.
    struct LruEntry {
        std::uint64_t context = 0;
        core::Alpha point;
        double utility = 0.0;
    };
    std::list<LruEntry> lru;  // front = most recently used
    std::map<std::pair<std::uint64_t, core::Alpha>,
             std::list<LruEntry>::iterator>
        lru_index;

    ServeStats counters;
    core::EvaluationEngine engine;
    std::unique_ptr<core::RunStore> store;

    Impl(const ServeConfig& config_in,
         const std::vector<ServeTarget>& targets_in)
        : config(config_in),
          targets(targets_in),
          engine([&] {
              core::EngineConfig engine_config;
              engine_config.threads = config_in.threads;
              // The server's LRU is the authoritative cross-client cache;
              // the engine's map would be dropped on every bucket switch
              // anyway (it keeps one active context).  Within-batch
              // duplicate coalescing still applies unconditionally.
              engine_config.cache = false;
              engine_config.resilience = config_in.resilience;
              engine_config.chaos = config_in.chaos;
              return engine_config;
          }()) {}

    // ----- lifecycle ---------------------------------------------------

    void start() {
        ignore_sigpipe_once();
        int pipe_fds[2] = {-1, -1};
        if (::pipe(pipe_fds) != 0) {
            throw std::runtime_error("serve: cannot create wake pipe");
        }
        wake_read = pipe_fds[0];
        wake_write = pipe_fds[1];
        set_nonblocking(wake_read);
        set_nonblocking(wake_write);
        try {
            if (!config.socket_path.empty()) bind_unix();
            if (config.tcp_port != 0) bind_tcp();
        } catch (...) {
            close_endpoints();
            throw;
        }
        running = true;
        dispatch_thread = std::thread([this] { dispatch_loop(); });
        io_thread = std::thread([this] { io_loop(); });
    }

    void stop() {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop_requested = true;
            running = false;
        }
        queue_cv.notify_all();
        wake_io();
        if (io_thread.joinable()) io_thread.join();
        if (dispatch_thread.joinable()) dispatch_thread.join();
        close_endpoints();
    }

    void close_endpoints() {
        if (unix_fd >= 0) ::close(unix_fd);
        if (tcp_fd >= 0) ::close(tcp_fd);
        if (wake_read >= 0) ::close(wake_read);
        if (wake_write >= 0) ::close(wake_write);
        unix_fd = tcp_fd = wake_read = wake_write = -1;
        if (!config.socket_path.empty()) {
            std::error_code error;
            fs::remove(config.socket_path, error);
        }
    }

    void bind_unix() {
        unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unix_fd < 0) {
            throw std::runtime_error("serve: cannot create Unix socket");
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, config.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr) != 0 ||
            ::listen(unix_fd, 64) != 0) {
            throw std::runtime_error("serve: cannot bind Unix socket '" +
                                     config.socket_path + "': " +
                                     std::strerror(errno));
        }
        set_nonblocking(unix_fd);
    }

    void bind_tcp() {
        tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd < 0) {
            throw std::runtime_error("serve: cannot create TCP socket");
        }
        const int one = 1;
        ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(std::max(config.tcp_port, 0)));
        if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr) != 0 ||
            ::listen(tcp_fd, 64) != 0) {
            throw std::runtime_error(
                "serve: cannot bind 127.0.0.1:" +
                std::to_string(config.tcp_port) + ": " +
                std::strerror(errno));
        }
        socklen_t len = sizeof addr;
        if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0) {
            bound_tcp_port = static_cast<int>(ntohs(addr.sin_port));
        }
        set_nonblocking(tcp_fd);
    }

    void wake_io() {
        if (wake_write >= 0) {
            const char byte = 'w';
            (void)!::write(wake_write, &byte, 1);
        }
    }

    // ----- I/O thread --------------------------------------------------

    void io_loop() {
        using Clock = std::chrono::steady_clock;
        bool draining = false;
        Clock::time_point drain_deadline{};
        std::vector<pollfd> fds;
        std::vector<int> fd_of;  // poll index -> connection fd (or -1)
        while (true) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (stop_requested) break;
                if (!running && !draining) {
                    // `shutdown` verb: answer everything in flight, then
                    // exit — bounded so a never-reading client cannot
                    // wedge the shutdown.
                    draining = true;
                    drain_deadline = Clock::now() + std::chrono::seconds(5);
                }
            }
            flush_connections();
            reap_closed();
            if (draining) {
                bool pending = false;
                for (const auto& [fd, conn] : connections) {
                    (void)fd;
                    if (!conn.slots.empty() || !conn.out.empty()) {
                        pending = true;
                        break;
                    }
                }
                if (!pending || Clock::now() > drain_deadline) break;
            }

            fds.clear();
            fd_of.clear();
            const auto add = [&](int fd, short events, int conn_fd) {
                fds.push_back({fd, events, 0});
                fd_of.push_back(conn_fd);
            };
            if (wake_read >= 0) add(wake_read, POLLIN, -1);
            if (unix_fd >= 0 && !draining) add(unix_fd, POLLIN, -1);
            if (tcp_fd >= 0 && !draining) add(tcp_fd, POLLIN, -1);
            for (const auto& [fd, conn] : connections) {
                short events = POLLIN;
                if (!conn.out.empty()) events |= POLLOUT;
                add(fd, events, fd);
            }
            if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) {
                break;
            }
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents == 0) continue;
                const int fd = fds[i].fd;
                if (fd == wake_read) {
                    char sink[64];
                    while (::read(wake_read, sink, sizeof sink) > 0) {
                    }
                } else if (fd == unix_fd || fd == tcp_fd) {
                    accept_clients(fd);
                } else {
                    auto it = connections.find(fd_of[i]);
                    if (it == connections.end()) continue;
                    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                        handle_readable(it->second);
                    }
                    if (fds[i].revents & POLLOUT) try_write(it->second);
                }
            }
        }
        for (auto& [fd, conn] : connections) {
            (void)conn;
            ::close(fd);
        }
        connections.clear();
    }

    void accept_clients(int listener) {
        while (true) {
            const int fd = ::accept(listener, nullptr, nullptr);
            if (fd < 0) return;
            set_nonblocking(fd);
            Connection conn;
            conn.fd = fd;
            connections.emplace(fd, std::move(conn));
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.connections;
        }
    }

    void handle_readable(Connection& conn) {
        char buffer[4096];
        while (true) {
            const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, 0);
            if (got > 0) {
                conn.in.append(buffer, static_cast<std::size_t>(got));
                if (got < static_cast<ssize_t>(sizeof buffer)) break;
            } else if (got == 0) {
                conn.closed = true;
                break;
            } else if (errno == EINTR) {
                continue;
            } else {
                if (errno != EAGAIN && errno != EWOULDBLOCK) {
                    conn.closed = true;
                }
                break;
            }
        }
        process_input(conn);
    }

    void process_input(Connection& conn) {
        while (true) {
            const std::size_t at = conn.in.find('\n');
            if (at == std::string::npos) {
                if (conn.overlong) {
                    conn.in.clear();
                } else if (conn.in.size() > kMaxRequestBytes) {
                    // Un-terminated flood: answer once, then discard up
                    // to the next newline so the connection re-syncs on
                    // the client's next request.
                    conn.overlong = true;
                    push_error(conn, "request line too long");
                    conn.in.clear();
                }
                break;
            }
            std::string line = conn.in.substr(0, at);
            conn.in.erase(0, at + 1);
            if (conn.overlong) {
                conn.overlong = false;  // the flood's terminator
                continue;
            }
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.size() > kMaxRequestBytes) {
                push_error(conn, "request line too long");
                continue;
            }
            handle_line(conn, line);
        }
    }

    std::shared_ptr<Slot> push_slot(Connection& conn) {
        auto slot = std::make_shared<Slot>();
        conn.slots.push_back(slot);
        return slot;
    }

    void push_error(Connection& conn, const std::string& reason) {
        auto slot = push_slot(conn);
        std::lock_guard<std::mutex> lock(mutex);
        slot->line = error_response(reason);
        slot->ready = true;
        ++counters.protocol_errors;
    }

    void handle_line(Connection& conn, const std::string& line) {
        Request request;
        std::string reason;
        if (!parse_request(line, request, reason)) {
            push_error(conn, reason);
            return;
        }
        auto slot = push_slot(conn);
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.requests;
        switch (request.kind) {
            case Request::Kind::kPing:
                slot->line = "pong";
                slot->ready = true;
                break;
            case Request::Kind::kStats: {
                ServeStats snapshot = counters;
                snapshot.cache_size = lru.size();
                slot->line = stats_json(snapshot);
                slot->ready = true;
                break;
            }
            case Request::Kind::kShutdown:
                slot->line = "ok";
                slot->ready = true;
                running = false;
                queue_cv.notify_all();
                break;
            case Request::Kind::kEval:
                handle_eval(conn, request.eval, slot);
                break;
        }
    }

    /// mutex held.
    void handle_eval(Connection& conn, const EvalRequest& request,
                     const std::shared_ptr<Slot>& slot) {
        const ServeTarget* target = find_target(targets, request.target);
        if (target == nullptr) {
            slot->line = error_response("unknown target");
            slot->ready = true;
            ++counters.protocol_errors;
            return;
        }
        const FaultVariant* variant =
            find_variant(*target, request.fault);
        if (variant == nullptr) {
            slot->line = error_response("unknown fault variant");
            slot->ready = true;
            ++counters.protocol_errors;
            return;
        }
        if (request.point.size() != target->bounds.dims()) {
            slot->line = error_response("coordinate dimension mismatch");
            slot->ready = true;
            ++counters.protocol_errors;
            return;
        }
        // The per-connection trial index counts every VALID eval request
        // — served, busy-rejected, or failed — so the index (and hence
        // the response bytes) of an accepted job never depends on how
        // earlier requests were disposed of; the client can predict it.
        const std::uint64_t trial = conn.evals++;
        const core::EvalContext context =
            bucket_context(*target, *variant, request.inference);
        const std::uint64_t cseed =
            core::candidate_seed(context, request.point);
        if (const double* utility = lru_find(context.key, request.point)) {
            ++counters.cache_hits;
            ++counters.completed;
            slot->line = core::RunStore::to_json(make_trial_record(
                *target, request.point, cseed, trial, *utility,
                TrialStatus::kOk));
            slot->ready = true;
            return;
        }
        if (queue.size() >= config.queue_depth) {
            slot->line = kBusyResponse;
            slot->ready = true;
            ++counters.busy;
            return;
        }
        Job job;
        job.slot = slot;
        job.target = target;
        job.objective = variant->objective;
        job.objective.inference = request.inference;
        job.point = request.point;
        job.context = context;
        job.cseed = cseed;
        job.trial = trial;
        queue.push_back(std::move(job));
        ++counters.accepted;
        queue_cv.notify_one();
    }

    /// Moves ready front slots into the write buffers and pushes bytes.
    void flush_connections() {
        for (auto& [fd, conn] : connections) {
            (void)fd;
            {
                std::lock_guard<std::mutex> lock(mutex);
                while (!conn.slots.empty() && conn.slots.front()->ready) {
                    conn.out += conn.slots.front()->line;
                    conn.out += '\n';
                    conn.slots.pop_front();
                }
            }
            if (!conn.out.empty()) try_write(conn);
        }
    }

    void try_write(Connection& conn) {
        while (!conn.out.empty()) {
            const ssize_t wrote = ::send(conn.fd, conn.out.data(),
                                         conn.out.size(), MSG_NOSIGNAL);
            if (wrote > 0) {
                conn.out.erase(0, static_cast<std::size_t>(wrote));
            } else if (wrote < 0 && errno == EINTR) {
                continue;
            } else {
                if (wrote < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    return;  // POLLOUT resumes the flush
                }
                conn.closed = true;
                return;
            }
        }
    }

    void reap_closed() {
        for (auto it = connections.begin(); it != connections.end();) {
            if (it->second.closed) {
                ::close(it->second.fd);
                // In-flight jobs keep their slots alive via shared_ptr;
                // their results are simply discarded.
                it = connections.erase(it);
            } else {
                ++it;
            }
        }
    }

    // ----- dispatch thread ---------------------------------------------

    void dispatch_loop() {
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            queue_cv.wait(lock, [this] {
                return !queue.empty() || stop_requested;
            });
            if (stop_requested) break;
            // Coalesce queued jobs of the front job's bucket (same
            // context key <=> same target, fault variant, and mode) into
            // one engine batch.
            std::vector<Job> batch;
            batch.push_back(std::move(queue.front()));
            queue.pop_front();
            const std::size_t limit = std::max<std::size_t>(
                std::size_t{1}, config.max_batch);
            for (auto it = queue.begin();
                 it != queue.end() && batch.size() < limit;) {
                if (it->context.key == batch.front().context.key) {
                    batch.push_back(std::move(*it));
                    it = queue.erase(it);
                } else {
                    ++it;
                }
            }
            // A batch completed while these jobs queued may have cached
            // their points already.
            std::vector<Job> live;
            for (Job& job : batch) {
                if (const double* utility =
                        lru_find(job.context.key, job.point)) {
                    ++counters.cache_hits;
                    finalize(job, *utility, TrialStatus::kOk);
                } else {
                    live.push_back(std::move(job));
                }
            }
            if (live.empty()) {
                wake_io();
                continue;
            }
            std::vector<core::Alpha> points;
            points.reserve(live.size());
            for (const Job& job : live) points.push_back(job.point);
            const ServeTarget* target = live.front().target;
            const core::ObjectiveConfig objective = live.front().objective;
            const core::EvalContext context = live.front().context;
            lock.unlock();
            const auto evaluator = [&](const core::Alpha& encoded,
                                       Rng& rng) {
                return target->evaluate(objective, encoded, rng);
            };
            const core::BatchOutcome outcome =
                engine.evaluate_points(points, evaluator, context);
            std::vector<core::RunRecord> records;
            records.reserve(live.size());
            lock.lock();
            ++counters.batches;
            counters.cache_hits += outcome.cache_hits;  // in-batch dedup
            for (std::size_t i = 0; i < live.size(); ++i) {
                const TrialStatus status = outcome.statuses[i];
                const double utility = outcome.utilities[i];
                records.push_back(make_trial_record(
                    *target, live[i].point, live[i].cseed, live[i].trial,
                    utility, status));
                finalize(live[i], utility, status,
                         core::RunStore::to_json(records.back()));
                if (status == TrialStatus::kOk) {
                    lru_insert(context.key, live[i].point, utility);
                }
            }
            wake_io();
            if (store) {
                lock.unlock();
                try {
                    store->append(target->name, records);
                } catch (const std::exception& error) {
                    log_warn() << "serve: run-store append failed: "
                               << error.what();
                }
                lock.lock();
            }
        }
    }

    /// mutex held.  Builds the response line when not supplied.
    void finalize(Job& job, double utility, TrialStatus status,
                  std::string line = {}) {
        if (line.empty()) {
            line = core::RunStore::to_json(
                make_trial_record(*job.target, job.point, job.cseed,
                                  job.trial, utility, status));
        }
        job.slot->line = std::move(line);
        job.slot->ready = true;
        ++counters.completed;
        if (status != TrialStatus::kOk) ++counters.failed;
    }

    // ----- LRU (mutex held) --------------------------------------------

    const double* lru_find(std::uint64_t context, const core::Alpha& point) {
        const auto it = lru_index.find({context, point});
        if (it == lru_index.end()) return nullptr;
        lru.splice(lru.begin(), lru, it->second);
        return &it->second->utility;
    }

    void lru_insert(std::uint64_t context, const core::Alpha& point,
                    double utility) {
        if (config.cache_entries == 0) return;
        const auto key = std::make_pair(context, point);
        const auto it = lru_index.find(key);
        if (it != lru_index.end()) {
            it->second->utility = utility;
            lru.splice(lru.begin(), lru, it->second);
            return;
        }
        lru.push_front({context, point, utility});
        lru_index[key] = lru.begin();
        if (lru.size() > config.cache_entries) {
            const auto last = std::prev(lru.end());
            lru_index.erase({last->context, last->point});
            lru.pop_back();
            ++counters.cache_evictions;
        }
    }
};

#endif  // BAYESFT_HAS_SOCKETS

EvalServer::EvalServer(ServeConfig config, std::vector<ServeTarget> targets)
    : config_(std::move(config)), targets_(std::move(targets)) {}

EvalServer::~EvalServer() { stop(); }

#ifdef BAYESFT_HAS_SOCKETS

void EvalServer::start() {
    if (impl_ != nullptr) {
        throw std::runtime_error("serve: server already started");
    }
    if (config_.socket_path.empty() && config_.tcp_port == 0) {
        throw std::runtime_error(
            "serve: configure --socket and/or --tcp (no endpoint given)");
    }
    // Fail fast, before anything listens: a server that dies at the
    // first append would have accepted (and lost) work.
    if (!config_.runs_dir.empty()) {
        core::RunStore(config_.runs_dir).probe();
    }
    if (!config_.socket_path.empty()) {
        validate_socket_path(config_.socket_path);
    }
    auto impl = std::make_unique<Impl>(config_, targets_);
    if (!config_.runs_dir.empty()) {
        impl->store = std::make_unique<core::RunStore>(config_.runs_dir);
    }
    impl->start();
    impl_ = impl.release();
}

void EvalServer::stop() {
    if (impl_ == nullptr) return;
    impl_->stop();
    delete impl_;
    impl_ = nullptr;
}

bool EvalServer::running() const {
    if (impl_ == nullptr) return false;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->running;
}

ServeStats EvalServer::stats() const {
    if (impl_ == nullptr) return {};
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ServeStats snapshot = impl_->counters;
    snapshot.cache_size = impl_->lru.size();
    return snapshot;
}

int EvalServer::tcp_port() const {
    return impl_ == nullptr ? 0 : impl_->bound_tcp_port;
}

void EvalServer::validate_socket_path(const std::string& path) {
    if (path.empty()) {
        throw std::runtime_error("serve: empty socket path");
    }
    sockaddr_un probe_addr{};
    if (path.size() >= sizeof(probe_addr.sun_path)) {
        throw std::runtime_error(
            "serve: socket path '" + path +
            "' is too long for a Unix socket (max " +
            std::to_string(sizeof(probe_addr.sun_path) - 1) + " bytes)");
    }
    std::error_code error;
    if (fs::is_directory(path, error)) {
        throw std::runtime_error("serve: socket path '" + path +
                                 "' is a directory, not a socket");
    }
    if (fs::exists(path, error)) {
        if (!fs::is_socket(path, error)) {
            throw std::runtime_error(
                "serve: socket path '" + path +
                "' exists and is not a socket; refusing to replace it");
        }
        // Live or stale?  Only a connect() can tell.
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd >= 0) {
            probe_addr.sun_family = AF_UNIX;
            std::strncpy(probe_addr.sun_path, path.c_str(),
                         sizeof(probe_addr.sun_path) - 1);
            const bool live =
                ::connect(fd, reinterpret_cast<sockaddr*>(&probe_addr),
                          sizeof probe_addr) == 0;
            ::close(fd);
            if (live) {
                throw std::runtime_error(
                    "serve: socket '" + path +
                    "' is live (another server is answering on it)");
            }
        }
        fs::remove(path, error);
        if (error) {
            throw std::runtime_error("serve: cannot remove stale socket '" +
                                     path + "': " + error.message());
        }
    }
    // Parent-directory writability, probed with the append-mode idiom
    // that never truncates (core/runstore.hpp validate_output_file); the
    // probe file is removed again, leaving a bindable path.
    core::validate_output_file(path);
}

#else  // !BAYESFT_HAS_SOCKETS

void EvalServer::start() {
    throw std::runtime_error(
        "serve: POSIX sockets are unavailable on this platform");
}
void EvalServer::stop() {}
bool EvalServer::running() const { return false; }
ServeStats EvalServer::stats() const { return {}; }
int EvalServer::tcp_port() const { return 0; }
void EvalServer::validate_socket_path(const std::string&) {
    throw std::runtime_error(
        "serve: POSIX sockets are unavailable on this platform");
}

#endif  // BAYESFT_HAS_SOCKETS

}  // namespace bayesft::serve
