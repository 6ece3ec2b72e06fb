#include "utils/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif

namespace bayesft {

namespace {

thread_local bool tls_inside_worker = false;

/// Set in a process forked while the pool existed.  The child inherits the
/// pool's mutex and condition-variable state but none of its worker
/// threads, so a parallel_for there could block forever on a lock a
/// vanished worker held at fork time; the child runs every loop inline
/// instead (thread count never changes results, see the header).
bool forked_child = false;

std::size_t configured_thread_count() {
    if (const char* env = std::getenv("BAYESFT_NUM_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// One parallel_for invocation.  Chunks are claimed through an atomic cursor
/// so fast threads steal work from slow ones; `pending` counts unfinished
/// chunks and releases the calling thread when it reaches zero.  The batch is
/// shared_ptr-owned: straggler workers that wake up late keep it alive until
/// they observe the exhausted cursor.
struct Batch {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> pending{0};  // chunks not yet completed
    std::mutex error_mutex;
    std::exception_ptr error;
    std::mutex done_mutex;
    std::condition_variable done;

    void run_chunks() {
        for (;;) {
            const std::size_t lo = begin + cursor.fetch_add(grain);
            if (lo >= end) return;
            const std::size_t hi = std::min(end, lo + grain);
            try {
                (*fn)(lo, hi);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error) error = std::current_exception();
            }
            if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                // Last chunk: release the caller blocked in wait_done().
                const std::lock_guard<std::mutex> lock(done_mutex);
                done.notify_all();
            }
        }
    }

    void wait_done() {
        std::unique_lock<std::mutex> lock(done_mutex);
        done.wait(lock, [&] {
            return pending.load(std::memory_order_acquire) == 0;
        });
    }
};

class ThreadPool {
public:
    static ThreadPool& instance() {
        static ThreadPool pool(configured_thread_count());
        return pool;
    }

    std::size_t width() const { return workers_.size() + 1; }

    void run(const std::shared_ptr<Batch>& batch) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            batch_ = batch;
            ++generation_;
        }
        wake_.notify_all();
        batch->run_chunks();  // the caller is a full participant
        // Block until straggler workers finish their last chunk; all fn()
        // effects are published by the acq_rel decrements.
        batch->wait_done();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (batch_ == batch) batch_.reset();
        }
        if (batch->error) std::rethrow_exception(batch->error);
    }

    ~ThreadPool() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread& t : workers_) t.join();
    }

private:
    explicit ThreadPool(std::size_t width) {
#if defined(__unix__) || defined(__APPLE__)
        ::pthread_atfork(nullptr, nullptr, [] { forked_child = true; });
#endif
        for (std::size_t i = 1; i < width; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }

    void worker_loop() {
        tls_inside_worker = true;
        std::uint64_t seen_generation = 0;
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen_generation;
                });
                if (stop_) return;
                seen_generation = generation_;
                batch = batch_;  // shared ownership keeps the batch alive
            }
            if (batch != nullptr) batch->run_chunks();
        }
    }

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::shared_ptr<Batch> batch_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

}  // namespace

std::size_t parallel_thread_count() { return ThreadPool::instance().width(); }

bool inside_parallel_worker() { return tls_inside_worker; }

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const std::size_t n = end - begin;
    if (n <= grain || tls_inside_worker || forked_child ||
        ThreadPool::instance().width() == 1) {
        fn(begin, end);
        return;
    }
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->begin = begin;
    batch->end = end;
    batch->grain = grain;
    batch->pending.store((n + grain - 1) / grain, std::memory_order_relaxed);
    ThreadPool::instance().run(batch);
}

}  // namespace bayesft
