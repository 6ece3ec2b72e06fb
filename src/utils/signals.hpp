#pragma once
// Process-wide signal policy shared by every pipe and socket writer (the
// worker pool's request pipes, the evaluation server and its client).

namespace bayesft {

/// Ignores SIGPIPE, once per process, so a write to a peer that vanished (a
/// dead worker, a closed client socket) fails with EPIPE instead of killing
/// the writer.  Call before the first such write.
void ignore_sigpipe_once();

}  // namespace bayesft
