#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/disk_array.hpp"

namespace clio::io {

/// Opaque handle to a file within a BackingStore.
using FileId = std::uint32_t;
inline constexpr FileId kInvalidFile = UINT32_MAX;

/// Abstract block storage beneath the buffer pool.
///
/// Two implementations: RealFileStore does real kernel I/O against files in
/// a directory (used by all replay/web-server benchmarks), SimFileStore
/// keeps bytes in memory and charges a DiskArray cost model (used by the
/// discrete-event experiments, where modeled time, not wall time, matters).
class BackingStore {
 public:
  virtual ~BackingStore() = default;

  /// Opens (or creates, if `create`) the named file; returns its id.
  /// Opening the same name twice returns the same id.
  virtual FileId open(const std::string& name, bool create) = 0;

  /// Closes the id.  Later open() of the same name re-yields a valid id.
  virtual void close(FileId id) = 0;

  [[nodiscard]] virtual std::uint64_t size(FileId id) const = 0;

  virtual void truncate(FileId id, std::uint64_t new_size) = 0;

  /// Reads up to out.size() bytes at `offset`; returns bytes actually read
  /// (short at EOF, 0 past EOF).
  virtual std::size_t read(FileId id, std::uint64_t offset,
                           std::span<std::byte> out) = 0;

  /// Writes all bytes at `offset`, extending the file if needed.
  virtual void write(FileId id, std::uint64_t offset,
                     std::span<const std::byte> data) = 0;

  /// Writes several buffers contiguously starting at `offset` — the buffer
  /// pool's coalesced write-back path.  Implementations should treat the
  /// whole gather as one storage access (pwritev / a single modeled seek);
  /// the default falls back to one write() per part.
  virtual void writev(FileId id, std::uint64_t offset,
                      std::span<const std::span<const std::byte>> parts);

  /// Reads contiguous bytes starting at `offset`, scattering them into
  /// `parts` in order — the buffer pool's request gather (pin_span).  Returns
  /// total bytes read (short at EOF, 0 past EOF).  Implementations should
  /// treat the whole scatter as one storage access (preadv / a single
  /// modeled seek); the default falls back to one read() per part.
  virtual std::size_t readv(FileId id, std::uint64_t offset,
                            std::span<const std::span<std::byte>> parts);

  /// Returns true if the named file exists in the store.
  [[nodiscard]] virtual bool exists(const std::string& name) const = 0;

  /// The id the name is (or was) bound to, kInvalidFile if never opened.
  /// Ids are stable across close/reopen of the same name — like an inode —
  /// so buffer-pool pages stay warm between uses; remove() retires the id.
  [[nodiscard]] virtual FileId lookup(const std::string& name) const = 0;

  virtual void remove(const std::string& name) = 0;

 protected:
  /// The de-vectorized fallbacks behind the default readv/writev bodies,
  /// as named non-virtual helpers so a decorator that cannot (or must not)
  /// forward a gather natively can *say so* — `writev_fallback(...)` — and
  /// reviewers can tell a deliberate de-vectorization from a forgotten
  /// override.  writev_fallback issues one write() per part;
  /// readv_fallback one read() per part, stopping at the first short read
  /// so the caller sees exactly the EOF semantics of read().
  void writev_fallback(FileId id, std::uint64_t offset,
                       std::span<const std::span<const std::byte>> parts);
  std::size_t readv_fallback(FileId id, std::uint64_t offset,
                             std::span<const std::span<std::byte>> parts);
};

/// BackingStore over a real directory using POSIX descriptors and
/// pread/pwrite/pwritev (thread-safe positioned I/O).  Metadata operations
/// are mutex-guarded, so concurrent opens/reads from worker threads are
/// safe.
class RealFileStore final : public BackingStore {
 public:
  /// `idle_fd_cache` > 0 keeps up to that many descriptors open after
  /// their last close (see trim_idle), so re-opening hot files costs a
  /// hash lookup instead of an open(2)/close(2) pair — the serving layer
  /// opts in.  0 (default) retires descriptors eagerly, preserving the
  /// strict "operations on a closed id fail" contract.
  explicit RealFileStore(std::filesystem::path root,
                         std::size_t idle_fd_cache = 0);
  ~RealFileStore() override;

  RealFileStore(const RealFileStore&) = delete;
  RealFileStore& operator=(const RealFileStore&) = delete;

  FileId open(const std::string& name, bool create) override;
  void close(FileId id) override;
  [[nodiscard]] std::uint64_t size(FileId id) const override;
  void truncate(FileId id, std::uint64_t new_size) override;
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override;
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override;
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override;
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  [[nodiscard]] FileId lookup(const std::string& name) const override;
  void remove(const std::string& name) override;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  struct Entry {
    int fd = -1;
    std::string name;
    std::uint32_t refs = 0;
    bool idle = false;  ///< refs == 0 but fd kept open in the idle cache
    /// Bumped each time the entry enters the idle queue, so trim_idle can
    /// tell a live queue entry from one left stale by an interleaved
    /// reopen + re-close (which must not evict the freshly re-idled fd).
    std::uint64_t idle_gen = 0;
    /// Cached file size (-1 = unknown).  Every mutation flows through this
    /// store, so write/writev/truncate keep it coherent; size() then costs
    /// a map lookup instead of an fstat(2) per call — the serving path
    /// asks for the size on every GET.  mutable: size() is const and may
    /// fill the cache on first use (under mutex_).
    mutable std::int64_t size = -1;
    /// Lower bound on the size while the cache is unset: a write that
    /// ended at byte E proves size >= E even before anyone fstats.  Lets
    /// size() resist caching a stale fstat that raced an extending write
    /// (the stat runs outside mutex_).
    std::int64_t size_floor = 0;
  };

  int fd_of(FileId id) const;
  void trim_idle();  ///< mutex held
  void grow_cached_size(FileId id, std::uint64_t end_offset);

  std::size_t idle_fd_cache_ = 0;
  std::filesystem::path root_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, FileId> by_name_;
  /// FIFO of (id, idle_gen) pairs; entries whose generation no longer
  /// matches are stale (reopened since queueing) and skipped by trim.
  std::deque<std::pair<FileId, std::uint64_t>> idle_fds_;
  mutable std::mutex mutex_;
};

/// In-memory BackingStore that charges every access to a striped DiskArray
/// cost model.  `consume_model_ms()` drains the accumulated modeled time so
/// a simulator can advance its clock by it.
///
/// Thread-safe: BufferPool is documented thread-safe over any BackingStore,
/// so metadata, file bytes, and the modeled-time accumulator are all guarded
/// by one mutex (the work under it is memcpy-scale, never kernel I/O).
class SimFileStore final : public BackingStore {
 public:
  /// The store places file f's byte b at array address hash(f)+b, so
  /// distinct files live in distinct regions of the address space.
  SimFileStore(std::size_t num_disks, std::uint64_t stripe_bytes,
               const DiskParams& params = DiskParams{});

  FileId open(const std::string& name, bool create) override;
  void close(FileId id) override;
  [[nodiscard]] std::uint64_t size(FileId id) const override;
  void truncate(FileId id, std::uint64_t new_size) override;
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override;
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override;
  void writev(FileId id, std::uint64_t offset,
              std::span<const std::span<const std::byte>> parts) override;
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  [[nodiscard]] FileId lookup(const std::string& name) const override;
  void remove(const std::string& name) override;

  /// Returns and clears the modeled time accumulated since the last call.
  double consume_model_ms();

  [[nodiscard]] const DiskArray& array() const { return array_; }

 private:
  struct Entry {
    std::vector<std::byte> data;
    std::string name;
    std::uint64_t base_address = 0;
    std::uint32_t refs = 0;
    bool live = false;
  };

  Entry& entry_of(FileId id);
  const Entry& entry_of(FileId id) const;

  DiskArray array_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, FileId> by_name_;
  double pending_model_ms_ = 0.0;
  mutable std::mutex mutex_;
};

}  // namespace clio::io
