#include "io/uring_store.hpp"

#if !defined(CLIO_HAVE_URING)
#define CLIO_HAVE_URING 0
#endif

#if CLIO_HAVE_URING
#include <linux/io_uring.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace clio::io {

bool UringStore::supported() {
#if CLIO_HAVE_URING
  static const bool ok = [] {
    io_uring_params params{};
    const int fd =
        static_cast<int>(::syscall(__NR_io_uring_setup, 4u, &params));
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return ok;
#else
  return false;
#endif
}

}  // namespace clio::io
