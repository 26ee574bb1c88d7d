#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "io/file_store.hpp"

namespace clio::io {

/// Buffer pool configuration.  Defaults give a 16 MiB cache of 4 KiB pages,
/// mirroring the OS-level I/O buffers the paper's SSCLI experiments observe.
struct BufferPoolConfig {
  std::size_t page_size = 4096;
  std::size_t capacity_pages = 4096;

  /// Number of lock-striped sub-pools.  Pages are distributed across shards
  /// by a mixed hash of (file, page_no); each shard has its own mutex, page
  /// table, LRU list, and stats, so concurrent accesses to different pages
  /// contend only when they land on the same shard.  0 = auto: one shard
  /// per 256 capacity pages, clamped to [1, 16] — small pools (tests,
  /// tight-cache ablations) keep a single shard and therefore exact global
  /// LRU order; default-sized pools get 16-way striping.
  std::size_t shards = 0;
};

/// Counters exposed for tests and ablation benches.  With sharding enabled
/// these are exact totals: every hit/miss/eviction/writeback/prefetch is
/// counted under its shard's lock and summed on stats().
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< pages a request needed that were not resident
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetches = 0;  ///< pages loaded by prefetch (not in misses)
  // Vectored-transfer accounting: how many backing calls the coalesced
  // paths issued and how many pages rode them, so batching ratios
  // (pages / call) are observable from stats instead of only from bench
  // counters.  flush_write_* covers every flush_file/flush_all backing
  // call (all runs go out as writev, single-page runs as a one-part
  // gather); gather_read_* covers the readv gathers of prefetch_range and
  // of pin_span's demand spans.  Eviction write-backs are never coalesced
  // and count only in `writebacks`.
  std::uint64_t flush_write_calls = 0;
  std::uint64_t flush_write_pages = 0;
  std::uint64_t gather_read_calls = 0;
  std::uint64_t gather_read_pages = 0;
  // read_around's store reads: one backing `read` per run of non-resident
  // pages, and the pages those runs delivered without a frame.  Such
  // pages are neither misses nor prefetches: no frame was loaded.
  std::uint64_t direct_read_calls = 0;
  std::uint64_t direct_read_pages = 0;
  // write_around's store writes: one backing `write` per call, and the
  // pages it covered.  Resident pages of the range take the bytes in
  // place and count nowhere else; no frame is loaded or evicted.
  std::uint64_t direct_write_calls = 0;
  std::uint64_t direct_write_pages = 0;
};

/// Key of a cached page and its hash.  The hash feeds both the per-shard
/// page tables and shard selection, so it must mix *both* fields into the
/// low bits: the previous `(file << 48) ^ page_no` scheme degenerated under
/// modulo — page N of every file shared a bucket and a shard.  This is a
/// SplitMix64-style finalizer over both fields.
struct PageKey {
  FileId file;
  std::uint64_t page_no;
  bool operator==(const PageKey&) const = default;
};
struct PageKeyHash {
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t operator()(const PageKey& k) const {
    return static_cast<std::size_t>(
        mix(k.page_no + 0x9e3779b97f4a7c15ULL * (k.file + 1)));
  }
};

/// Page-granular LRU cache over a BackingStore.
///
/// This is the component responsible for every first-touch effect in the
/// paper: cold pages pay a backing-store access ("a page fault occurs,
/// resulting in the corresponding page being fetched from the disk into the
/// buffers"), warm pages are served from memory, and dirty pages are written
/// back on eviction or flush — which is why closing a file costs more than
/// opening it (Tables 1-4).
///
/// Concurrency structure: the pool is split into `config.shards` lock
/// stripes, each owning its mutex, page table, LRU list and stats.  A
/// pin/prefetch takes only its shard's mutex, and all backing-store I/O —
/// miss loads and eviction write-backs — happens *outside* that mutex, with
/// the frame held by a per-frame "io busy" latch: a second thread faulting
/// the same page waits on the shard's condition variable instead of
/// repeating the load, while unrelated pages (same shard or not) proceed.
/// Warm hits on different shards never contend.
///
/// Frames themselves are pooled globally (one free list), not split
/// statically across shards: a shard borrows a frame on demand and only
/// evicts — locally first, then from sibling shards — once all
/// capacity_pages frames are in use.  This keeps the capacity guarantee
/// exact (a working set of capacity_pages stays fully resident regardless
/// of how its pages hash) and means "all frames pinned" can only happen
/// when every frame in the pool is truly pinned.
///
/// Both bulk transfer directions are coalesced: flush merges adjacent dirty
/// pages into vectored writev gathers, and prefetch_range and pin_span merge
/// adjacent cold pages into vectored readv scatters — one backing access per
/// run of at most kCoalescePages pages instead of one per page.  A read or
/// write of kCoalescePages pages or more skips the frames altogether.  A
/// read (read_around) copies out the pages that are resident and reads the
/// rest straight into the caller's buffer; a write (write_around) is one
/// store write of the caller's bytes, which the resident pages of its
/// range also take in place.  Every transfer is a synchronous BackingStore
/// call made by the thread that needs it; the pool starts no thread.
///
/// Pinned pages are never evicted; data access through a PageGuard is
/// lock-free and safe provided no two threads write the same page
/// concurrently (the benchmarks never do — POST creates uniquely-named
/// files, as in the paper).  Mutating a page's bytes while a flush or
/// eviction is writing that page back counts as such a conflict: the
/// write-back may persist a torn snapshot, though the page stays dirty
/// and the next flush writes the final bytes.  write_around is the
/// exception: it waits out a page's pins before copying into it, so a
/// large write may run beside readers of the same pages.
class BufferPool {
 public:
  /// Most adjacent pages one vectored backing call carries, on both the
  /// flush (writev) and the gather (readv) side.  64 pages is 256 KiB at
  /// the default page size; RealFileStore splits longer calls at IOV_MAX
  /// anyway.  A request span of at least this many pages is a full
  /// backing transfer of its own, so ManagedFile::read and write send it
  /// through read_around and write_around instead of staging it through
  /// frames.
  static constexpr std::size_t kCoalescePages = 64;

  BufferPool(BackingStore& store, BufferPoolConfig config = {});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// RAII pin on a cached page.  While alive the frame cannot be evicted.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(BufferPool* pool, std::size_t shard, std::size_t frame);
    PageGuard(PageGuard&& other) noexcept;
    PageGuard& operator=(PageGuard&& other) noexcept;
    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;
    ~PageGuard();

    /// Whole page bytes (page_size long, zero-filled past EOF).
    [[nodiscard]] std::span<std::byte> data() const;

    /// Bytes of the page that hold real file content.
    [[nodiscard]] std::size_t valid_bytes() const;

    /// Marks the page dirty and extends its valid extent to `up_to` bytes.
    void mark_dirty(std::size_t up_to);

    [[nodiscard]] bool empty() const { return pool_ == nullptr; }

   private:
    BufferPool* pool_ = nullptr;
    std::size_t shard_ = 0;
    std::size_t frame_ = 0;
  };

  /// Pins page `page_no` of `file`, loading it on a miss.
  PageGuard pin(FileId file, std::uint64_t page_no);

  /// Pins page `page_no` of a request that goes on through `last_page`.
  /// A resident page is pinned as by pin(), under one shard lock.  On a
  /// miss, every cold page of [page_no, last_page] is loaded first, as by
  /// prefetch_range — one readv per contiguous cold run, clamped at EOF,
  /// the tail dropped under frame pressure — but counted as misses, since
  /// the request needs them; their first pins then count no hit.
  /// ManagedFile::read/write pin every page of a span through this, so a
  /// cold span costs one gather per run instead of one read per page.
  PageGuard pin_span(FileId file, std::uint64_t page_no,
                     std::uint64_t last_page);

  /// Copies out.size() bytes of `file` from `offset` into `out` without
  /// staging them through frames.  Each resident page (clean or dirty;
  /// one mid-load or mid-write-back is waited out, as pin() does) is
  /// copied from its frame under its shard lock and counts as a hit.
  /// Each maximal run of non-resident pages is one backing `read`
  /// straight into `out`, its bytes past the store's EOF zero-filled.  No
  /// frame is installed or evicted.
  /// A dirty page keeps its page-table entry until its write-back has
  /// reached the store, so the result holds every write that returned
  /// before the call began.  A store error propagates with `out`'s
  /// contents unspecified and no frame touched.  The caller keeps the
  /// range inside logical_file_size().
  void read_around(FileId file, std::uint64_t offset, std::span<std::byte> out);

  /// Writes `data` to `file` at `offset` as one backing `write`, without
  /// staging it through frames: no frame is claimed, loaded or evicted.
  /// The resident pages of the range stay coherent in two passes.  Before
  /// the store write, each one waits out its in-flight I/O, flush hold
  /// and pins, then takes the new bytes into its frame, so no write-back
  /// in flight or to come can land older bytes over them.  After it, each
  /// page resident again (one a concurrent reader loaded meanwhile, too)
  /// takes them once more.  A dirty page stays dirty, a clean one clean.
  /// On a store error the resident pages of the range hold the new bytes
  /// and are marked dirty, so a later flush retries them, and the error
  /// propagates; pages that are not resident hold what the store kept.
  /// Because it waits for pins, the calling thread must hold no PageGuard
  /// on a page of the range.
  void write_around(FileId file, std::uint64_t offset,
                    std::span<const std::byte> data);

  /// Loads a page into the cache without pinning it, if absent.
  /// Returns true if the page was actually loaded (i.e. it was cold).  A
  /// prefetch is a hint: when no frame can be had right now (every frame
  /// pinned or mid-I/O) it returns false instead of waiting or throwing.
  bool prefetch(FileId file, std::uint64_t page_no);

  /// Prefetches `count` consecutive pages starting at `first_page`;
  /// returns how many were cold and actually loaded.  The window is clamped
  /// to end-of-file (pages wholly past EOF are never faulted in), cold
  /// pages are claimed up front across shards with io_busy latches, and
  /// each contiguous cold run is loaded by a single vectored
  /// BackingStore::readv issued outside any lock (runs are capped at
  /// kCoalescePages).  Under frame pressure the tail of the window
  /// is dropped rather than waited for — prefetch is a hint.
  std::size_t prefetch_range(FileId file, std::uint64_t first_page,
                             std::size_t count);

  /// No-op: every prefetch gather is synchronous and has finished before
  /// prefetch_range returns, so there is never readahead to wait for.
  /// Kept because clio_bench calls it at the end of every workload.
  void drain_prefetches() {}

  /// True if the page is resident or being loaded (test/diagnostic helper).
  [[nodiscard]] bool contains(FileId file, std::uint64_t page_no) const;

  /// Writes back all dirty pages of `file`, coalescing adjacent pages into
  /// vectored backing-store writes.
  void flush_file(FileId file);

  /// Writes back every dirty page (coalesced).
  void flush_all();

  /// Drops all pages of `file` without write-back (used after remove).
  void discard_file(FileId file);

  /// Best-effort cache drop: evicts every resident page that is clean and
  /// unreferenced (no pins, no flush holds, no in-flight I/O).  Unlike
  /// discard_file it never throws on a pinned page — pages in active use
  /// simply stay resident — so it is safe to call while other threads are
  /// serving requests (ManagedFileSystem::drop_caches / make_cold racing
  /// live traffic).  Flush first for a fully cold cache.  Returns the
  /// number of pages dropped.
  std::size_t evict_clean();

  /// Logical size of the file as seen through the cache: the backing
  /// store's size extended by any dirty page not yet written back.
  [[nodiscard]] std::uint64_t logical_file_size(FileId file) const;

  /// Exhaustively checks the pool's internal invariants, throwing
  /// util::IoError with a description of the first violation found:
  /// frame accounting (every frame is free xor resident in exactly one
  /// shard's page table), LRU integrity (links consistent, every resident
  /// frame reachable), no leaked io_busy latches or flush_pins, per-frame
  /// sanity (valid_bytes <= page_size, buffers sized), and stats
  /// consistency.  Requires quiescence: no other thread may be using the
  /// pool.  With `expect_unpinned` (the default) any surviving PageGuard
  /// pin is reported too — pass false while guards are live.
  /// This is the stress harness's post-run oracle; it is cheap enough to
  /// call after every test.
  void debug_validate(bool expect_unpinned = true) const;

  [[nodiscard]] PoolStats stats() const;
  [[nodiscard]] std::size_t page_size() const { return config_.page_size; }
  [[nodiscard]] std::size_t capacity_pages() const {
    return config_.capacity_pages;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t resident_pages() const;
  [[nodiscard]] BackingStore& store() { return store_; }

 private:
  static constexpr std::size_t kNoFrame = SIZE_MAX;

  struct Frame {
    FileId file = kInvalidFile;
    std::uint64_t page_no = 0;
    std::vector<std::byte> data;
    std::size_t valid_bytes = 0;
    std::uint32_t pins = 0;
    /// Transient holds taken by flush while its coalesced write runs
    /// outside the lock.  Kept separate from `pins` so eviction can tell
    /// "caller holds a PageGuard" (throw when no frame is free) from
    /// "flush is briefly using this frame" (wait, it will be released).
    std::uint32_t flush_pins = 0;
    bool dirty = false;
    bool in_use = false;
    /// Set when a demand gather (pin_span) loaded this page and counted
    /// its miss: the first pin then counts no hit.
    bool miss_counted = false;
    /// Set while a miss load or eviction write-back runs outside the shard
    /// lock; such frames are skipped by eviction and waited on by faulters.
    bool io_busy = false;
    /// Refines io_busy: set only while an eviction *write-back* is in
    /// flight.  Flush waits on this (a failed write-back re-dirties the
    /// page, which flush must then pick up) but not on plain io_busy, so
    /// a stream of clean demand loads cannot stall a flush.
    bool io_write = false;
    // Intrusive LRU links (indices into the shard's frame vector): no
    // allocator traffic on touch, unlike the former std::list.
    std::size_t lru_prev = kNoFrame;
    std::size_t lru_next = kNoFrame;
  };

  /// One lock stripe: page table, LRU and stats for the pages that hash
  /// here.  Frames are drawn from the pool-wide free list on demand.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable io_cv;  ///< signalled when io_busy clears
    std::size_t lru_head = kNoFrame;  ///< most recently used
    std::size_t lru_tail = kNoFrame;  ///< least recently used
    std::unordered_map<PageKey, std::size_t, PageKeyHash> page_table;
    PoolStats stats;
  };

  /// A dirty page captured for flush: pinned so it cannot be evicted while
  /// the (lock-free) coalesced write runs.
  struct FlushEntry {
    FileId file;
    std::uint64_t page_no;
    std::size_t shard;
    std::size_t frame;
    std::size_t valid_bytes;
  };

  /// A cold page claimed for a gather: its frame sits in the page table
  /// io_busy-latched while the coalesced gather read runs outside the lock.
  struct GatherTarget {
    std::uint64_t page_no;
    std::size_t shard;
    std::size_t frame;
  };

  [[nodiscard]] std::size_t shard_of(const PageKey& key) const;

  // Shard-local helpers; all assume the shard's mutex is held by `lk` /
  // the caller unless stated otherwise.
  /// Returns the frame of (file, page_no), loading it if absent.  With
  /// `span_last` > page_no an absent page first gathers the cold pages of
  /// [page_no, span_last] (pin_span).  A prefetch (`count_as_prefetch`)
  /// returns kNoFrame instead of waiting when no frame is free.
  std::size_t find_or_load(Shard& sh, std::unique_lock<std::mutex>& lk,
                           FileId file, std::uint64_t page_no,
                           bool count_as_prefetch, bool pin_result,
                           std::uint64_t span_last = 0);
  void install_loading_frame(Shard& sh, FileId file, std::uint64_t page_no,
                             std::size_t idx, std::uint32_t pins);
  std::size_t acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk);
  std::size_t try_acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk,
                                bool& transient_holds);
  std::size_t try_evict_from(Shard& sh, std::unique_lock<std::mutex>& lk,
                             bool& transient_holds);
  void abort_gather_frames(FileId file, std::span<const GatherTarget> targets,
                           bool demand);

  /// The gather behind prefetch_range (demand = false: pages count as
  /// prefetches) and pin_span (demand = true: pages count as misses).
  std::size_t load_range(FileId file, std::uint64_t first_page,
                         std::size_t count, bool demand);
  /// Phase 1 of a gather window: clamps to EOF and claims every cold
  /// frame io_busy-latched, with buffers sized.  Unwinds and rethrows on a
  /// claim failure.
  [[nodiscard]] std::vector<GatherTarget> claim_gather_targets(
      FileId file, std::uint64_t first_page, std::size_t count, bool demand);
  /// Publishes one gathered run's frames: valid extents from `got`, stale
  /// tails zeroed, io_busy latches released, gather stats credited.
  void publish_gather_run(std::span<const GatherTarget> run, std::size_t got);
  /// read_around's per-page step: copies `out` from offset `within` of
  /// the resident page (file, page_no) and returns true, or returns false
  /// if the page is not resident.  Waits out in-flight I/O on the page.
  bool copy_if_resident(FileId file, std::uint64_t page_no,
                        std::size_t within, std::span<std::byte> out);
  /// read_around's store step: one backing read of a non-resident run
  /// into `out`, zero-filling what the store does not have.
  void read_direct(FileId file, std::uint64_t offset,
                   std::span<std::byte> out);
  /// write_around's per-range pass: every resident page of the range
  /// waits out in-flight I/O, flush holds and pins, then takes its part
  /// of `data` into its frame.  With `dirty` the pages are also marked
  /// dirty; returns the furthest byte such a page now holds (0 if none).
  std::uint64_t copy_into_resident(FileId file, std::uint64_t offset,
                                   std::span<const std::byte> data,
                                   bool dirty);
  void release_frame(std::size_t idx);
  void lru_push_front(Shard& sh, std::size_t idx);
  void lru_remove(Shard& sh, std::size_t idx);
  void lru_touch(Shard& sh, std::size_t idx);
  void unpin(std::size_t shard, std::size_t frame);

  void collect_dirty(Shard& sh, std::size_t shard_idx, FileId file,
                     bool match_all, std::vector<FlushEntry>& out);
  void write_back_coalesced(std::vector<FlushEntry>& entries);

  BackingStore& store_;
  BufferPoolConfig config_;
  std::vector<Shard> shards_;
  std::vector<Frame> frames_;  ///< all capacity_pages frames, shard-agnostic
  std::vector<std::size_t> free_frames_;
  mutable std::mutex free_mutex_;  ///< mutable: debug_validate() is const
  /// Furthest byte ever dirtied per file; only grows, erased on discard.
  std::unordered_map<FileId, std::uint64_t> dirty_extent_;
  mutable std::mutex extent_mutex_;

  friend class PageGuard;
};

}  // namespace clio::io
