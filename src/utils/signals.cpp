#include "utils/signals.hpp"

#include <csignal>

namespace bayesft {

void ignore_sigpipe_once() {
#ifdef SIGPIPE
    static const bool done = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)done;
#endif
}

}  // namespace bayesft
