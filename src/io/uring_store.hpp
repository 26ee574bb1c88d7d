#pragma once

namespace clio::io {

/// Probe for the kernel's io_uring interface.  The storage stack has one,
/// synchronous face (see docs/STORAGE.md, "Removed"); this probe stays so
/// benchmark reports can record whether io_uring was available on the
/// machine they ran on.
class UringStore {
 public:
  UringStore() = delete;

  /// True when the running kernel accepts io_uring_setup (cached probe).
  /// False when the build found no <linux/io_uring.h> (CLIO_HAVE_URING=0).
  [[nodiscard]] static bool supported();
};

}  // namespace clio::io
