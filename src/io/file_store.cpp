#include "io/file_store.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace clio::io {

using util::check;
using util::IoError;

namespace {

/// Throws for a failed data-path syscall, classified by errno: a flaky
/// medium (EIO) or a transiently unready descriptor (EAGAIN/EWOULDBLOCK)
/// is retryable — TransientIoError — while anything else (EBADF, EFBIG,
/// ENOSPC...) is a definitive answer and stays a plain IoError.
[[noreturn]] void throw_syscall_error(const char* what, int err) {
  const std::string msg =
      std::string("RealFileStore: ") + what + " failed: " + std::strerror(err);
  if (err == EIO || err == EAGAIN || err == EWOULDBLOCK) {
    throw util::TransientIoError(msg);
  }
  throw IoError(msg);
}

}  // namespace

// ---------------------------------------------------------------- base ----

void BackingStore::writev(FileId id, std::uint64_t offset,
                          std::span<const std::span<const std::byte>> parts) {
  writev_fallback(id, offset, parts);
}

std::size_t BackingStore::readv(FileId id, std::uint64_t offset,
                                std::span<const std::span<std::byte>> parts) {
  return readv_fallback(id, offset, parts);
}

void BackingStore::writev_fallback(
    FileId id, std::uint64_t offset,
    std::span<const std::span<const std::byte>> parts) {
  // Portable fallback: stores that cannot gather natively still see the
  // parts in order, one write per part.
  for (const auto& part : parts) {
    write(id, offset, part);
    offset += part.size();
  }
}

std::size_t BackingStore::readv_fallback(
    FileId id, std::uint64_t offset,
    std::span<const std::span<std::byte>> parts) {
  // Portable fallback: one read per part, stopping at the first short read
  // so the caller sees exactly the EOF semantics of read().
  std::size_t total = 0;
  for (const auto& part : parts) {
    const std::size_t n = read(id, offset + total, part);
    total += n;
    if (n < part.size()) break;
  }
  return total;
}

// ---------------------------------------------------------------- Real ----

RealFileStore::RealFileStore(std::filesystem::path root,
                             std::size_t idle_fd_cache)
    : idle_fd_cache_(idle_fd_cache), root_(std::move(root)) {
  std::filesystem::create_directories(root_);
}

RealFileStore::~RealFileStore() {
  for (auto& e : entries_) {
    if (e.fd >= 0) ::close(e.fd);
  }
}

FileId RealFileStore::open(const std::string& name, bool create) {
  check<IoError>(!name.empty() && name.find('/') == std::string::npos,
                 "RealFileStore: file names must be flat and non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  // The path is built only for open(2): a cached descriptor needs none.
  const auto open_fd = [&](const char* what) {
    const auto path = root_ / name;
    const int fd = ::open(path.c_str(), create ? O_RDWR | O_CREAT : O_RDWR,
                          0644);
    if (fd < 0) {
      throw IoError(std::string("RealFileStore: ") + what + "('" +
                    path.string() + "') failed: " + std::strerror(errno));
    }
    return fd;
  };
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    Entry& e = entries_[it->second];
    if (e.fd < 0) {
      // Re-binding a retired-but-remembered name: same id, fresh fd, so
      // buffer-pool pages cached under this id stay valid.
      e.fd = open_fd("reopen");
    }
    e.idle = false;  // leaving the idle cache (stale queue entry is skipped)
    e.refs++;
    return it->second;
  }
  const int fd = open_fd("open");
  const auto id = static_cast<FileId>(entries_.size());
  entries_.push_back(Entry{fd, name, 1});
  by_name_.emplace(name, id);
  return id;
}

void RealFileStore::close(FileId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  check<IoError>(id < entries_.size() && entries_[id].fd >= 0,
                 "RealFileStore: close of invalid id");
  Entry& e = entries_[id];
  if (--e.refs > 0) return;
  if (idle_fd_cache_ == 0) {
    ::close(e.fd);
    e.fd = -1;
    // The name->id binding survives so a reopen finds warm cache pages.
    return;
  }
  // Keep the descriptor in the idle cache instead of closing: the serving
  // hot path reopens the same files every request, and an open(2)/close(2)
  // pair per request is pure overhead.  The cache is capped so a stream of
  // one-shot files (POST uploads) cannot exhaust descriptors.  The
  // name->id binding survives either way, so a reopen finds warm pages.
  e.idle = true;
  ++e.idle_gen;
  idle_fds_.emplace_back(id, e.idle_gen);
  trim_idle();
}

void RealFileStore::trim_idle() {
  while (idle_fds_.size() > idle_fd_cache_) {
    const auto [id, gen] = idle_fds_.front();
    idle_fds_.pop_front();
    Entry& e = entries_[id];
    // Stale entry: reopened (no longer idle) or re-idled since it was
    // queued (a newer queue entry carries the current generation) — in
    // either case this one must not evict the descriptor.
    if (!e.idle || e.idle_gen != gen) continue;
    ::close(e.fd);
    e.fd = -1;
    e.idle = false;
  }
}

int RealFileStore::fd_of(FileId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  check<IoError>(id < entries_.size() && entries_[id].fd >= 0,
                 "RealFileStore: invalid file id");
  return entries_[id].fd;
}

std::uint64_t RealFileStore::size(FileId id) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    check<IoError>(id < entries_.size() && entries_[id].fd >= 0,
                   "RealFileStore: invalid file id");
    if (entries_[id].size >= 0) {
      return static_cast<std::uint64_t>(entries_[id].size);
    }
  }
  struct stat st {};
  check<IoError>(::fstat(fd_of(id), &st) == 0, "RealFileStore: fstat failed");
  std::lock_guard<std::mutex> lock(mutex_);
  // A write may have extended the file between the fstat above and
  // re-taking the lock — never let a stale stat shrink what is already
  // known, whether the concurrent writer filled the cache (size >= 0) or
  // only raised the floor (cache still unset).
  const Entry& e = entries_[id];
  if (e.size < 0) {
    // `size` is mutable: filling the cache is the one write a const
    // accessor performs.
    e.size = std::max<std::int64_t>(st.st_size, e.size_floor);
  }
  return static_cast<std::uint64_t>(e.size);
}

void RealFileStore::truncate(FileId id, std::uint64_t new_size) {
  check<IoError>(::ftruncate(fd_of(id), static_cast<off_t>(new_size)) == 0,
                 "RealFileStore: ftruncate failed");
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[id].size = static_cast<std::int64_t>(new_size);
  entries_[id].size_floor = static_cast<std::int64_t>(new_size);
}

/// Extends the cached size after bytes were written up to `end_offset`.
/// While the cache is unset only the floor moves — the true size may be
/// larger than any write seen through this store instance (pre-existing
/// file), so the first size() still fstats and maxes with the floor.
void RealFileStore::grow_cached_size(FileId id, std::uint64_t end_offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[id];
  const auto end = static_cast<std::int64_t>(end_offset);
  if (e.size >= 0) {
    e.size = std::max(e.size, end);
  } else {
    e.size_floor = std::max(e.size_floor, end);
  }
}

std::size_t RealFileStore::read(FileId id, std::uint64_t offset,
                                std::span<std::byte> out) {
  std::size_t total = 0;
  while (total < out.size()) {
    const ssize_t n =
        ::pread(fd_of(id), out.data() + total, out.size() - total,
                static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_syscall_error("pread", errno);
    }
    if (n == 0) break;  // EOF
    total += static_cast<std::size_t>(n);
  }
  return total;
}

void RealFileStore::write(FileId id, std::uint64_t offset,
                          std::span<const std::byte> data) {
  std::size_t total = 0;
  while (total < data.size()) {
    const ssize_t n =
        ::pwrite(fd_of(id), data.data() + total, data.size() - total,
                 static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_syscall_error("pwrite", errno);
    }
    total += static_cast<std::size_t>(n);
  }
  grow_cached_size(id, offset + data.size());
}

void RealFileStore::writev(FileId id, std::uint64_t offset,
                           std::span<const std::span<const std::byte>> parts) {
  const int fd = fd_of(id);
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const auto& part : parts) {
    if (part.empty()) continue;
    iov.push_back(iovec{const_cast<std::byte*>(part.data()), part.size()});
  }
  std::size_t next = 0;  // first iovec not fully written yet
  while (next < iov.size()) {
    const int cnt =
        static_cast<int>(std::min<std::size_t>(iov.size() - next, IOV_MAX));
    const ssize_t n =
        ::pwritev(fd, iov.data() + next, cnt, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_syscall_error("pwritev", errno);
    }
    offset += static_cast<std::uint64_t>(n);
    // Consume fully-written iovecs; trim a partially-written one.
    std::size_t done = static_cast<std::size_t>(n);
    while (next < iov.size() && done >= iov[next].iov_len) {
      done -= iov[next].iov_len;
      next++;
    }
    if (done > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + done;
      iov[next].iov_len -= done;
    }
  }
  // `offset` has advanced past every byte written.
  grow_cached_size(id, offset);
}

std::size_t RealFileStore::readv(FileId id, std::uint64_t offset,
                                 std::span<const std::span<std::byte>> parts) {
  const int fd = fd_of(id);
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const auto& part : parts) {
    if (part.empty()) continue;
    iov.push_back(iovec{part.data(), part.size()});
  }
  std::size_t total = 0;
  std::size_t next = 0;  // first iovec not fully filled yet
  while (next < iov.size()) {
    const int cnt =
        static_cast<int>(std::min<std::size_t>(iov.size() - next, IOV_MAX));
    const ssize_t n =
        ::preadv(fd, iov.data() + next, cnt, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_syscall_error("preadv", errno);
    }
    if (n == 0) break;  // EOF
    offset += static_cast<std::uint64_t>(n);
    total += static_cast<std::size_t>(n);
    // Consume fully-filled iovecs; trim a partially-filled one.
    std::size_t done = static_cast<std::size_t>(n);
    while (next < iov.size() && done >= iov[next].iov_len) {
      done -= iov[next].iov_len;
      next++;
    }
    if (done > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + done;
      iov[next].iov_len -= done;
    }
  }
  return total;
}

bool RealFileStore::exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // A live name->id binding proves existence without a stat: remove()
  // erases the binding, and all mutations flow through this store.  This
  // turns the per-GET existence probe into a hash lookup.
  if (by_name_.contains(name)) return true;
  return std::filesystem::exists(root_ / name);
}

FileId RealFileStore::lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFile : it->second;
}

void RealFileStore::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    Entry& e = entries_[it->second];
    check<IoError>(e.refs == 0, "RealFileStore: cannot remove an open file");
    if (e.fd >= 0) {
      // Idle-cached descriptor: release it before unlinking.
      ::close(e.fd);
      e.fd = -1;
      e.idle = false;
    }
    by_name_.erase(it);  // retire the id; it is never reused
  }
  std::filesystem::remove(root_ / name);
}

// ----------------------------------------------------------------- Sim ----

SimFileStore::SimFileStore(std::size_t num_disks, std::uint64_t stripe_bytes,
                           const DiskParams& params)
    : array_(num_disks, stripe_bytes, params) {}

FileId SimFileStore::open(const std::string& name, bool create) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    Entry& e = entries_[it->second];
    e.refs++;
    return it->second;
  }
  check<IoError>(create, "SimFileStore: no such file '" + name + "'");
  const auto id = static_cast<FileId>(entries_.size());
  Entry e;
  e.name = name;
  // Scatter files across the modeled address space so inter-file seeks have
  // non-trivial distance, like separate regions of a real platter.
  util::SplitMix64 hash(std::hash<std::string>{}(name));
  e.base_address = hash.next() % (32ULL << 30);
  e.refs = 1;
  e.live = true;
  entries_.push_back(std::move(e));
  by_name_.emplace(name, id);
  return id;
}

void SimFileStore::close(FileId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: close of closed id");
  e.refs--;
}

SimFileStore::Entry& SimFileStore::entry_of(FileId id) {
  check<IoError>(id < entries_.size() && entries_[id].live,
                 "SimFileStore: invalid file id");
  return entries_[id];
}

const SimFileStore::Entry& SimFileStore::entry_of(FileId id) const {
  check<IoError>(id < entries_.size() && entries_[id].live,
                 "SimFileStore: invalid file id");
  return entries_[id];
}

std::uint64_t SimFileStore::size(FileId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: size of closed id");
  return e.data.size();
}

void SimFileStore::truncate(FileId id, std::uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: truncate of closed id");
  e.data.resize(static_cast<std::size_t>(new_size));
}

std::size_t SimFileStore::read(FileId id, std::uint64_t offset,
                               std::span<std::byte> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: read of closed id");
  if (offset >= e.data.size()) {
    // Charge the arm movement even for a miss past EOF.
    pending_model_ms_ += array_.access_ms(e.base_address + offset, 0);
    return 0;
  }
  const std::size_t n = std::min<std::size_t>(
      out.size(), e.data.size() - static_cast<std::size_t>(offset));
  // n == 0 leaves an empty span's null data() untouched (UB for memcpy).
  if (n > 0) std::memcpy(out.data(), e.data.data() + offset, n);
  pending_model_ms_ += array_.access_ms(e.base_address + offset, n);
  return n;
}

void SimFileStore::write(FileId id, std::uint64_t offset,
                         std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: write of closed id");
  const std::uint64_t end = offset + data.size();
  if (end > e.data.size()) e.data.resize(static_cast<std::size_t>(end));
  if (!data.empty()) {
    std::memcpy(e.data.data() + offset, data.data(), data.size());
  }
  pending_model_ms_ += array_.access_ms(e.base_address + offset, data.size());
}

void SimFileStore::writev(FileId id, std::uint64_t offset,
                          std::span<const std::span<const std::byte>> parts) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: write of closed id");
  std::uint64_t total = 0;
  for (const auto& part : parts) total += part.size();
  const std::uint64_t end = offset + total;
  if (end > e.data.size()) e.data.resize(static_cast<std::size_t>(end));
  std::uint64_t pos = offset;
  for (const auto& part : parts) {
    if (part.empty()) continue;  // null data() is UB for memcpy
    std::memcpy(e.data.data() + pos, part.data(), part.size());
    pos += part.size();
  }
  // One modeled access for the whole gather: coalescing saves the per-page
  // seek + rotational cost, exactly the effect the paper's Tables measure.
  pending_model_ms_ += array_.access_ms(e.base_address + offset, total);
}

std::size_t SimFileStore::readv(FileId id, std::uint64_t offset,
                                std::span<const std::span<std::byte>> parts) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_of(id);
  check<IoError>(e.refs > 0, "SimFileStore: read of closed id");
  if (offset >= e.data.size()) {
    // Charge the arm movement even for a miss past EOF.
    pending_model_ms_ += array_.access_ms(e.base_address + offset, 0);
    return 0;
  }
  std::size_t total = 0;
  for (const auto& part : parts) {
    const std::uint64_t pos = offset + total;
    if (pos >= e.data.size()) break;
    const std::size_t n = std::min<std::size_t>(
        part.size(), e.data.size() - static_cast<std::size_t>(pos));
    if (n > 0) std::memcpy(part.data(), e.data.data() + pos, n);
    total += n;
    if (n < part.size()) break;
  }
  // One modeled access for the whole scatter: coalescing saves the per-page
  // seek + rotational cost, mirroring writev on the read side.
  pending_model_ms_ += array_.access_ms(e.base_address + offset, total);
  return total;
}

bool SimFileStore::exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.find(name) != by_name_.end();
}

FileId SimFileStore::lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFile : it->second;
}

void SimFileStore::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return;
  check<IoError>(entries_[it->second].refs == 0,
                 "SimFileStore: cannot remove an open file");
  entries_[it->second].live = false;
  entries_[it->second].data.clear();
  by_name_.erase(it);
}

double SimFileStore::consume_model_ms() {
  std::lock_guard<std::mutex> lock(mutex_);
  const double t = pending_model_ms_;
  pending_model_ms_ = 0.0;
  return t;
}

}  // namespace clio::io
