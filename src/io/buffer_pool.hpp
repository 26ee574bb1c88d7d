#pragma once

#include <array>
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

  /// Number of lock-striped sub-pools.  Runs of BufferPool::kRunPages
  /// consecutive pages are distributed across shards by a mixed hash of
  /// (file, page_no / kRunPages); each shard has its own mutex, page table,
  /// LRU list, and stats, so concurrent accesses to pages of different runs
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
  std::uint64_t prefetches = 0;  ///< pages a seek's one-page touch loaded
  // Vectored-transfer accounting: how many backing calls the coalesced
  // paths issued and how many pages rode them, so batching ratios
  // (pages / call) are observable from stats instead of only from bench
  // counters.  flush_write_* covers every flush_file/flush_all backing
  // call (all runs go out as writev, single-page runs as a one-part
  // gather); gather_read_* covers the readv gathers of pin_span's request
  // spans.  Eviction write-backs are never coalesced and count only in
  // `writebacks`.
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

/// Key of a run (BufferPool::kRunPages consecutive pages of one file,
/// `run` = page_no / kRunPages) and its hash, which feeds both the page
/// tables and shard selection, so a run lives in one shard.  It mixes
/// *both* fields into the low bits (a SplitMix64-style finalizer): under
/// `(file << 48) ^ run`, run N of every file shared a bucket and a shard.
struct RunKey {
  FileId file;
  std::uint64_t run;
  bool operator==(const RunKey&) const = default;
};
struct RunKeyHash {
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t operator()(const RunKey& k) const {
    return static_cast<std::size_t>(
        mix(k.run + 0x9e3779b97f4a7c15ULL * (k.file + 1)));
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
/// pages into vectored writev gathers, and pin_span merges a request's
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

  /// Pages per run, the unit of the page tables and of shard selection:
  /// one lookup finds a run's resident pages.
  static constexpr std::size_t kRunPages = 16;

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
  /// miss, every cold page of [page_no, last_page] is loaded first: one
  /// readv per contiguous cold run of at most kCoalescePages pages, clamped
  /// at the store's EOF, the tail dropped under frame pressure.  They count
  /// as misses, since the request needs them; their first pins count no hit.
  /// This gather is the only way a multi-page load enters the pool.
  /// ManagedFile::read/write pin every page of a span through this, so a
  /// cold span costs one gather per run instead of one read per page.
  PageGuard pin_span(FileId file, std::uint64_t page_no,
                     std::uint64_t last_page);

  /// Pins every page of [first_page, last_page] of `file` if each one is
  /// resident with no load or eviction write-back in flight, and returns
  /// the guards in page order, each counted as pin_span counts it.
  /// Otherwise it returns none and leaves the pool, its stats and every
  /// miss_counted as it found them.  It never loads and never waits: the
  /// probe of a thread that must not block (the serving loop).
  std::vector<PageGuard> try_pin_span(FileId file, std::uint64_t first_page,
                                      std::uint64_t last_page);

  /// Copies the leading pages of [offset, offset + out.size()) that the
  /// pool can answer alone into `out`, and returns the bytes copied.  A
  /// page qualifies while it is resident, not mid-I/O (io_busy), and its
  /// valid bytes cover every byte asked of it; the copy stops at the first
  /// page that does not.  Each page is copied under its shard lock, one
  /// hold per run, counts as pin() counts it and is LRU-touched.  It never
  /// loads, waits, pins or sizes the file, and allocates nothing:
  /// ManagedFile::read_at's warm path, correct without a clamp at EOF
  /// because no resident page's valid bytes run past the logical file
  /// size.
  std::size_t read_resident(FileId file, std::uint64_t offset,
                            std::span<std::byte> out);

  /// Copies out.size() bytes of `file` from `offset` into `out` without
  /// staging them through frames.  Each resident page (clean or dirty;
  /// one mid-load or mid-write-back is waited out, as pin() does) is
  /// copied from its frame under its shard lock and counts as pin()
  /// counts it.
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

  /// Loads a page into the cache without pinning it, if absent: the seek
  /// touch (ManagedFile::seek), counted in `prefetches`.  Returns true if
  /// the page was actually loaded (i.e. it was cold).  A touch is a hint:
  /// when no frame can be had right now (every frame pinned or mid-I/O) it
  /// returns false instead of waiting or throwing.
  bool prefetch(FileId file, std::uint64_t page_no);

  /// No-op: every load is synchronous and has finished when the call that
  /// made it returns, so there is never readahead to wait for.  Kept
  /// because clio_bench calls it at the end of every workload.
  void drain_prefetches() {}

  /// True if the page is resident or being loaded.  One shard probe that
  /// counts nothing and leaves the LRU alone: ManagedFile::seek's warm
  /// test, and a test helper.
  [[nodiscard]] bool contains(FileId file, std::uint64_t page_no) const;

  /// Writes back all dirty pages of `file`, coalescing adjacent pages into
  /// vectored backing-store writes.  An error-free write-back also forgets
  /// the file's dirty extent, unless a page was dirtied meanwhile.
  void flush_file(FileId file);

  /// True from the first write that dirtied a page of `file` until a
  /// flush_file that wrote them all back, or a discard_file.
  [[nodiscard]] bool may_be_dirty(FileId file) const;

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
  /// shard's page table), every occupied run slot holding a frame of its
  /// own page, every dirty page's file known to may_be_dirty,
  /// LRU integrity (links consistent, every resident frame reachable), the
  /// per-file index (every resident frame listed once, under its own file,
  /// links consistent), no leaked io_busy latches or flush_pins, per-frame
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
    /// Set when pin_span's gather loaded this page and counted its miss:
    /// the first pin then counts no hit.
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
    // Intrusive links of the shard's per-file list (Shard::file_head): set
    // while the frame has a page-table entry, mid-eviction included.
    std::size_t file_prev = kNoFrame;
    std::size_t file_next = kNoFrame;
  };

  /// A page-table entry: bit i of `occupied` is set while page
  /// run * kRunPages + i has a frame, and `frame[i]` is then its index.
  /// A run with no such page has no entry.
  struct Run {
    std::array<std::size_t, kRunPages> frame{};
    std::uint32_t occupied = 0;
  };

  /// One lock stripe: page table, per-file lists, LRU and stats for the
  /// runs that hash here.  Frames are drawn from the pool-wide free list
  /// on demand.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable io_cv;  ///< signalled when io_busy clears
    std::size_t lru_head = kNoFrame;  ///< most recently used
    std::size_t lru_tail = kNoFrame;  ///< least recently used
    std::unordered_map<RunKey, Run, RunKeyHash> page_table;
    /// The run the shard's last lookup found (null if none): a read after
    /// a seek, or the next page of a scan, finds its run without a hash
    /// probe.  Map nodes stay put until erased, and table_erase clears it.
    mutable const Run* hot_run = nullptr;
    mutable RunKey hot_key{};
    std::size_t resident = 0;  ///< occupied slots of page_table
    /// First frame of each file's list of this shard's page-table entries,
    /// so per-file work (flush_file, discard_file) visits only that file's
    /// frames.  A file with no entry here has no page in this shard.
    std::unordered_map<FileId, std::size_t> file_head;
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

  [[nodiscard]] std::size_t shard_of(FileId file, std::uint64_t page_no) const;
  /// The run `key` in `sh`'s page table, or null; remembered as the
  /// shard's hot run.
  [[nodiscard]] static const Run* find_run(const Shard& sh, RunKey key);
  /// The frame of (file, page_no) in `sh`'s page table, or kNoFrame.
  [[nodiscard]] static std::size_t lookup(const Shard& sh, FileId file,
                                          std::uint64_t page_no);

  // Shard-local helpers; all assume the shard's mutex is held by `lk` /
  // the caller unless stated otherwise.
  /// Returns the frame of (file, page_no), loading it if absent.  A `pin`
  /// (pin_span) counts a hit or a miss and pins the frame; with
  /// `span_last` > page_no an absent page first gathers the cold pages of
  /// [page_no, span_last].  A seek touch (prefetch, !pin) counts a load in
  /// `prefetches`, pins nothing, and returns kNoFrame instead of waiting
  /// when no frame is free.
  std::size_t find_or_load(Shard& sh, std::unique_lock<std::mutex>& lk,
                           FileId file, std::uint64_t page_no, bool pin,
                           std::uint64_t span_last = 0);
  void install_loading_frame(Shard& sh, FileId file, std::uint64_t page_no,
                             std::size_t idx, std::uint32_t pins);
  std::size_t acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk);
  std::size_t try_acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk,
                                bool& transient_holds);
  std::size_t try_evict_from(Shard& sh, std::unique_lock<std::mutex>& lk,
                             bool& transient_holds);
  void abort_gather_frames(std::span<const GatherTarget> targets);

  /// pin_span's gather: loads the cold pages of `count` pages from
  /// `first_page`, counting each as a miss.
  void load_range(FileId file, std::uint64_t first_page, std::size_t count);
  /// Phase 1 of a gather window: clamps to EOF and claims every cold
  /// frame io_busy-latched, with buffers sized.  Unwinds and rethrows on a
  /// claim failure.
  [[nodiscard]] std::vector<GatherTarget> claim_gather_targets(
      FileId file, std::uint64_t first_page, std::size_t count);
  /// Publishes one gathered run's frames: valid extents from `got`, stale
  /// tails zeroed, io_busy latches released, gather stats credited.
  void publish_gather_run(std::span<const GatherTarget> run, std::size_t got);
  /// Which resident pages for_each_resident visits, and what it does
  /// with one it cannot visit yet.
  enum class Walk {
    kAll,       ///< every one; a page mid-I/O is waited out
    kUnpinned,  ///< every one; a page mid-I/O, pinned or flush-held is
                ///< waited out
    kNoWait,    ///< every one; the pass ends at a page mid-I/O
  };
  /// The pass over the resident pages of `file` that hold bytes of
  /// [offset, offset + length), shared by read_resident and the around
  /// paths: `visit(sh, frame, lo, hi)` runs under the page's shard lock,
  /// once for each page `walk` admits, in page order, with the file bytes
  /// [lo, hi) it holds of the span; a visit that returns false ends the
  /// pass.  One lookup under one lock hold per run of the span.
  template <typename Visit>
  void for_each_resident(FileId file, std::uint64_t offset,
                         std::uint64_t length, Walk walk, Visit visit);
  /// A request's touch of resident frame `idx`: counts a hit unless a
  /// gather already counted the page's miss (miss_counted, cleared here),
  /// and moves the frame to the LRU front.
  void count_touch(Shard& sh, std::size_t idx);
  /// read_around's store step: one backing read of a non-resident run
  /// into `out`, zero-filling what the store does not have.
  void read_direct(FileId file, std::uint64_t offset,
                   std::span<std::byte> out);
  /// write_around's per-range pass (for_each_resident): every resident
  /// page of the range waits out in-flight I/O, flush holds and pins, then
  /// takes its part of `data` into its frame.  With `dirty` the pages are
  /// also marked dirty; returns the furthest byte such a page now holds
  /// (0 if none).
  std::uint64_t copy_into_resident(FileId file, std::uint64_t offset,
                                   std::span<const std::byte> data,
                                   bool dirty);
  /// Raises `file`'s dirty extent and restamps it.  Caller holds
  /// extent_mutex_ and sets no dirty bit the extent covers before this.
  void note_dirty(FileId file, std::uint64_t extent);
  /// Enters frame `idx` (its file and page_no set) into its run's slot in
  /// `sh`'s page table and into its file's list; table_erase takes it out
  /// of both, and erases the run when its last slot empties.
  void table_insert(Shard& sh, std::size_t idx);
  void table_erase(Shard& sh, std::size_t idx);
  /// True if some frame of `file` resident in `sh` satisfies `pred`.
  template <typename Pred>
  bool any_file_frame(const Shard& sh, FileId file, Pred pred) const;
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
  /// Per file that may hold dirty pages: the furthest byte ever dirtied
  /// and the stamp of the last dirtying (see flush_file).
  struct DirtyExtent {
    std::uint64_t bytes = 0;
    std::uint64_t stamp = 0;
  };
  std::unordered_map<FileId, DirtyExtent> dirty_extent_;
  std::uint64_t dirty_stamp_ = 0;  ///< pool-wide; guarded by extent_mutex_
  mutable std::mutex extent_mutex_;

  friend class PageGuard;
};

}  // namespace clio::io
