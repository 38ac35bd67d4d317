// Counts the socket-path system calls that /proc/self/io cannot see. Its
// syscr/syscw fields count only vfs read/write calls; the wire client and
// server move bytes with send/recv and wait in poll, which bypass those
// counters. The harness links with -Wl,--wrap for exactly these three
// symbols, so every call the library makes lands here first. Each thread
// bumps its own counter (a plain store, no shared read-modify-write), so
// the wrapper adds no contention to the path it measures.

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <mutex>
#include <vector>

#include "harness.h"

extern "C" {
ssize_t __real_send(int fd, const void* buf, size_t len, int flags);
ssize_t __real_recv(int fd, void* buf, size_t len, int flags);
int __real_poll(struct pollfd* fds, nfds_t nfds, int timeout);
}

namespace pdmbench {

namespace {

struct ThreadCount {
  std::atomic<uint64_t> calls{0};
};

std::mutex g_mu;
/// Every thread's counter; entries live for the whole process so a count
/// survives its thread.
std::vector<ThreadCount*>* g_counts = new std::vector<ThreadCount*>();

void CountCall() {
  thread_local ThreadCount* mine = [] {
    auto* count = new ThreadCount();
    std::lock_guard<std::mutex> lock(g_mu);
    g_counts->push_back(count);
    return count;
  }();
  mine->calls.store(mine->calls.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

}  // namespace

int64_t SocketSyscalls() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t total = 0;
  for (const ThreadCount* count : *g_counts) {
    total += count->calls.load(std::memory_order_relaxed);
  }
  return static_cast<int64_t>(total);
}

}  // namespace pdmbench

extern "C" {

ssize_t __wrap_send(int fd, const void* buf, size_t len, int flags) {
  pdmbench::CountCall();
  return __real_send(fd, buf, len, flags);
}

ssize_t __wrap_recv(int fd, void* buf, size_t len, int flags) {
  pdmbench::CountCall();
  return __real_recv(fd, buf, len, flags);
}

int __wrap_poll(struct pollfd* fds, nfds_t nfds, int timeout) {
  pdmbench::CountCall();
  return __real_poll(fds, nfds, timeout);
}

}  // extern "C"
