#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "io/buffer_pool.hpp"
#include "io/io_stats.hpp"

namespace clio::io {

/// How a ManagedFile is opened, mirroring .NET FileMode semantics.
enum class OpenMode {
  kRead,       ///< existing file, read-only intent
  kReadWrite,  ///< existing file, read/write
  kCreate,     ///< create if absent, keep content if present
  kTruncate,   ///< create or wipe
};

/// Knobs of the managed I/O stack.  docs/STORAGE.md ("Options") names
/// each field's callers and the measurement that keeps it.
struct ManagedFsOptions {
  std::size_t page_size = 4096;
  std::size_t pool_pages = 4096;      ///< 16 MiB cache by default
  std::size_t pool_shards = 0;        ///< lock stripes; 0 = auto (see BufferPoolConfig)
  /// The paper's stack always touches the target page on seek and always
  /// flushes on close; nothing is loaded in the background.  Constants,
  /// not knobs, kept as names for reports that record them.
  static constexpr bool prefetch_on_seek = true;
  static constexpr bool async_prefetch = false;
  static constexpr bool writeback_on_close = true;
};

class ManagedFile;

/// Facade owning the backing store, the buffer pool and the latency
/// accounting.  This is the C++ analogue of the System.IO stack the
/// paper's benchmarks run on: every open/close/read/write/seek goes through
/// the pool and is counted in IoStats, which times a sample of them.
class ManagedFileSystem {
 public:
  ManagedFileSystem(std::unique_ptr<BackingStore> store,
                    ManagedFsOptions options = {});
  ~ManagedFileSystem();

  ManagedFileSystem(const ManagedFileSystem&) = delete;
  ManagedFileSystem& operator=(const ManagedFileSystem&) = delete;

  /// Opens a managed file (accounted as an Open operation).
  [[nodiscard]] ManagedFile open(const std::string& name, OpenMode mode);

  [[nodiscard]] bool exists(const std::string& name) const;
  void remove(const std::string& name);

  [[nodiscard]] IoStats& stats() { return stats_; }
  [[nodiscard]] const IoStats& stats() const { return stats_; }
  [[nodiscard]] BufferPool& pool() { return *pool_; }
  [[nodiscard]] BackingStore& store() { return *store_; }

  [[nodiscard]] const ManagedFsOptions& options() const { return options_; }

  /// Drops every cached page (flushing dirty ones first).  Benchmarks call
  /// this to re-create a cold cache between trials.
  void drop_caches();

 private:
  friend class ManagedFile;

  [[nodiscard]] BufferPoolConfig pool_config() const;

  // Declaration order is destruction-critical: the pool's destructor
  // flushes through pool_store_ into stats_, so both must outlive pool_
  // (i.e. be declared before it).
  std::unique_ptr<BackingStore> store_;
  ManagedFsOptions options_;
  IoStats stats_;  ///< internally synchronized
  /// The store the pool actually talks to: `store_` wrapped in a decorator
  /// that times every vectored backing call into stats_ (IoOp::kReadv /
  /// kWritev), so coalescing ratios show up in the op table.
  std::unique_ptr<BackingStore> pool_store_;
  std::unique_ptr<BufferPool> pool_;
};

/// A position-tracking stream over one file, in the style of .NET
/// FileStream.  Movable, auto-closes on destruction.  Not thread-safe per
/// instance (each server thread opens its own stream, as in the paper).
class ManagedFile {
 public:
  ManagedFile() = default;
  ManagedFile(ManagedFile&& other) noexcept;
  ManagedFile& operator=(ManagedFile&& other) noexcept;
  ManagedFile(const ManagedFile&) = delete;
  ManagedFile& operator=(const ManagedFile&) = delete;
  ~ManagedFile();

  /// Reads up to out.size() bytes from the current position and advances
  /// it by the count read: read_at(position(), out) plus the move.
  std::size_t read(std::span<std::byte> out);

  /// Reads exactly `out.size()` bytes or throws IoError.
  void read_exact(std::span<std::byte> out);

  /// Writes all bytes at the current position and advances it past them:
  /// write_at(position(), data) plus the move.
  std::size_t write(std::span<const std::byte> data);

  /// Reads up to out.size() bytes at `offset`, like pread: returns the
  /// count actually read (short at EOF, 0 past it) and leaves the
  /// position alone.  Counted as one Read and no Seek.  A span of fewer
  /// than BufferPool::kCoalescePages pages first copies its leading pages
  /// that are resident, not mid-I/O and valid over the bytes asked of
  /// them (BufferPool::read_resident: one shard-lock hold per run, no pin,
  /// no allocation).  Only when that stops short is the file sized: the
  /// rest is pinned page by page, its cold pages loaded by pin_span's
  /// gather, and a span of kCoalescePages pages or more goes around the
  /// pool (BufferPool::read_around).  The warm copy needs no clamp at EOF
  /// because a resident page's valid bytes never run past the logical
  /// file size: loads stop at the store's EOF, writes raise the size
  /// with the bytes, and a truncating open discards the file's pages
  /// before it truncates.  So the file must not be read on another handle
  /// while a truncating open of it runs: pages reloaded between the
  /// discard and the truncate would outlive it.
  std::size_t read_at(std::uint64_t offset, std::span<std::byte> out);

  /// Writes all bytes at `offset`, like pwrite, extending the file, and
  /// leaves the position alone.  Counted as one Write and no Seek.
  /// Returns the count actually accepted into the stream — callers that
  /// report bytes written (e.g. the VM's file_write syscall) must echo
  /// this, not the requested count.  A span of BufferPool::kCoalescePages
  /// pages or more goes around the pool (BufferPool::write_around, one
  /// store write whose error surfaces here); a shorter one is pinned page
  /// by page and reaches the store at eviction or flush.
  std::size_t write_at(std::uint64_t offset, std::span<const std::byte> data);

  /// Moves the stream position (absolute, from the beginning — the paper's
  /// replay semantics) and makes sure the target page is resident.  The
  /// target page is probed first: if it is resident (or mid-load) the
  /// seek is done and never asks for the file size.  Only on a miss does
  /// it size the file and touch the target page, clamped to the last
  /// page.  So a seek past EOF touches the last page, unless a page past
  /// the logical end is resident — which only a raw BufferPool::pin past
  /// EOF can cause — and then it touches nothing.  The touch is a hint: a
  /// pool with no free frame skips it.  Counted as one Seek.
  ///
  /// Every transfer and seek that throws leaves the position unchanged.
  void seek(std::uint64_t pos);

  /// Flushes this file's dirty pages and releases the handle.  Timed as a
  /// Close.  Idempotent.
  void close();

  [[nodiscard]] bool is_open() const { return fs_ != nullptr; }
  [[nodiscard]] std::uint64_t position() const { return position_; }
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  /// The backing-store id behind this stream — the seam the serving
  /// layer's page-gather path needs to pin this file's pages directly
  /// (BufferPool::pin).  Valid while the file is open.
  [[nodiscard]] FileId id() const { return id_; }

 private:
  friend class ManagedFileSystem;
  ManagedFile(ManagedFileSystem* fs, FileId id, std::string name);

  ManagedFileSystem* fs_ = nullptr;
  FileId id_ = kInvalidFile;
  std::string name_;
  std::uint64_t position_ = 0;
};

}  // namespace clio::io
