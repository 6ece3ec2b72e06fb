#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "utils/signals.hpp"

#if defined(__unix__) || defined(__APPLE__)
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

#ifdef BAYESFT_HAS_SOCKETS

ServeClient::~ServeClient() { close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = std::exchange(other.fd_, -1);
        buffer_ = std::move(other.buffer_);
    }
    return *this;
}

ServeClient ServeClient::connect_unix(const std::string& path) {
    ignore_sigpipe_once();
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("serve client: bad socket path '" + path +
                                 "'");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error("serve client: cannot create socket");
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("serve client: cannot connect to '" +
                                 path + "': " + reason);
    }
    return ServeClient(fd);
}

ServeClient ServeClient::connect_tcp(int port) {
    ignore_sigpipe_once();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error("serve client: cannot create socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("serve client: cannot connect to 127.0.0.1:" +
                                 std::to_string(port) + ": " + reason);
    }
    return ServeClient(fd);
}

void ServeClient::send_raw(const std::string& bytes) {
    if (fd_ < 0) {
        throw std::runtime_error("serve client: not connected");
    }
    const char* cursor = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t wrote = ::send(fd_, cursor, left, MSG_NOSIGNAL);
        if (wrote <= 0) {
            if (wrote < 0 && errno == EINTR) continue;
            throw std::runtime_error("serve client: connection broken");
        }
        cursor += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
}

void ServeClient::send_line(const std::string& line) {
    send_raw(line + '\n');
}

std::string ServeClient::read_line(double timeout_seconds) {
    if (fd_ < 0) {
        throw std::runtime_error("serve client: not connected");
    }
    while (true) {
        const std::size_t at = buffer_.find('\n');
        if (at != std::string::npos) {
            std::string line = buffer_.substr(0, at);
            buffer_.erase(0, at + 1);
            return line;
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int timeout_ms =
            timeout_seconds <= 0.0
                ? -1
                : static_cast<int>(timeout_seconds * 1000.0);
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready == 0) {
            throw std::runtime_error(
                "serve client: timed out waiting for a response");
        }
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error("serve client: poll failed");
        }
        char chunk[4096];
        const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
        if (got > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(got));
        } else if (got == 0) {
            throw std::runtime_error(
                "serve client: server closed the connection");
        } else if (errno != EINTR && errno != EAGAIN) {
            throw std::runtime_error("serve client: read failed");
        }
    }
}

std::string ServeClient::request(const std::string& line,
                                 double timeout_seconds) {
    send_line(line);
    return read_line(timeout_seconds);
}

std::string ServeClient::eval(const EvalRequest& request_in,
                              double timeout_seconds) {
    return request(format_eval_request(request_in), timeout_seconds);
}

void ServeClient::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

#else  // !BAYESFT_HAS_SOCKETS

ServeClient::~ServeClient() = default;
ServeClient::ServeClient(ServeClient&&) noexcept {}
ServeClient& ServeClient::operator=(ServeClient&&) noexcept {
    return *this;
}
ServeClient ServeClient::connect_unix(const std::string&) {
    throw std::runtime_error(
        "serve client: POSIX sockets are unavailable on this platform");
}
ServeClient ServeClient::connect_tcp(int) {
    throw std::runtime_error(
        "serve client: POSIX sockets are unavailable on this platform");
}
void ServeClient::send_raw(const std::string&) {
    throw std::runtime_error("serve client: not connected");
}
void ServeClient::send_line(const std::string&) {
    throw std::runtime_error("serve client: not connected");
}
std::string ServeClient::read_line(double) {
    throw std::runtime_error("serve client: not connected");
}
std::string ServeClient::request(const std::string&, double) {
    throw std::runtime_error("serve client: not connected");
}
std::string ServeClient::eval(const EvalRequest&, double) {
    throw std::runtime_error("serve client: not connected");
}
void ServeClient::close() {}

#endif  // BAYESFT_HAS_SOCKETS

}  // namespace bayesft::serve
