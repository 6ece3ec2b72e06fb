#pragma once
// Shared parallel-compute runtime.
//
// A single lazily-initialized global thread pool backs every hot loop in the
// library (blocked GEMM row/column panels, batched im2col assembly, Monte-
// Carlo drift evaluation).  Work is expressed as `parallel_for` over an index
// range; the pool splits the range into chunks of at least `grain` indices,
// the calling thread participates, and the call returns when every chunk has
// finished.  Exceptions thrown inside chunks are captured and rethrown on the
// calling thread.
//
// Determinism: parallel_for only changes *which thread* runs a chunk, never
// the iteration order inside a chunk, so any kernel whose chunks touch
// disjoint outputs produces bit-identical results for every thread count.
//
// The pool width is `std::thread::hardware_concurrency()` unless the
// `BAYESFT_NUM_THREADS` environment variable overrides it (read once, at
// first use).  Width 1 short-circuits to a plain serial loop.  Nested calls
// from inside a pool worker also run serially, so kernels may freely use
// parallel_for even when their caller is already parallel.  So does every
// call in a process forked after the pool started (an isolated or worker
// evaluation): the child inherits the pool's locks but not its threads.

#include <cstddef>
#include <functional>

namespace bayesft {

/// Width of the global pool (callers + workers): max(1, override or
/// hardware_concurrency).  This is the maximum useful `num_threads` for any
/// parallel API in the library.
std::size_t parallel_thread_count();

/// True while the current thread is a pool worker executing a chunk (used
/// internally to serialize nested parallelism; exposed for tests).
bool inside_parallel_worker();

/// Splits [begin, end) into contiguous chunks of at least `grain` indices
/// (grain 0 is treated as 1) and invokes `fn(lo, hi)` once per chunk, in
/// parallel.  Every index in [begin, end) is covered by exactly one chunk.
/// Runs serially when the range is a single chunk, the pool width is 1, the
/// caller is itself a pool worker, or the process is a forked child.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace bayesft
