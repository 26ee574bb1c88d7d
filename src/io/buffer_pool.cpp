#include "io/buffer_pool.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace clio::io {

using util::check;
using util::IoError;

namespace {

std::size_t auto_shards(std::size_t capacity_pages) {
  return std::clamp<std::size_t>(capacity_pages / 256, 1, 16);
}

}  // namespace

BufferPool::BufferPool(BackingStore& store, BufferPoolConfig config)
    : store_(store), config_(config) {
  check<util::ConfigError>(config_.page_size >= 64,
                           "BufferPool: page_size must be >= 64");
  check<util::ConfigError>(config_.capacity_pages >= 1,
                           "BufferPool: capacity must be >= 1 page");
  if (config_.shards == 0) config_.shards = auto_shards(config_.capacity_pages);
  check<util::ConfigError>(config_.shards <= config_.capacity_pages,
                           "BufferPool: more shards than capacity pages");
  shards_ = std::vector<Shard>(config_.shards);
  frames_.resize(config_.capacity_pages);
  free_frames_.reserve(config_.capacity_pages);
  for (std::size_t i = config_.capacity_pages; i > 0; --i) {
    free_frames_.push_back(i - 1);
  }
}

BufferPool::~BufferPool() {
  // Best effort: persist dirty pages.  Failures are swallowed because a
  // destructor must not throw; callers who care flush explicitly.
  try {
    flush_all();
  } catch (...) {
  }
}

std::size_t BufferPool::shard_of(FileId file, std::uint64_t page_no) const {
  // A mask where the shard count allows one, as the default 16 does: the
  // same shard as the remainder, without a division on every lookup.
  const std::size_t hash = RunKeyHash{}(RunKey{file, page_no / kRunPages});
  const std::size_t n = shards_.size();
  return std::has_single_bit(n) ? hash & (n - 1) : hash % n;
}

// ------------------------------------------------------------- guards ----

BufferPool::PageGuard::PageGuard(BufferPool* pool, std::size_t shard,
                                 std::size_t frame)
    : pool_(pool), shard_(shard), frame_(frame) {}

BufferPool::PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), shard_(other.shard_), frame_(other.frame_) {
  other.pool_ = nullptr;
}

BufferPool::PageGuard& BufferPool::PageGuard::operator=(
    PageGuard&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->unpin(shard_, frame_);
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
  }
  return *this;
}

BufferPool::PageGuard::~PageGuard() {
  if (pool_ != nullptr) pool_->unpin(shard_, frame_);
}

std::span<std::byte> BufferPool::PageGuard::data() const {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  return pool_->frames_[frame_].data;
}

std::size_t BufferPool::PageGuard::valid_bytes() const {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  return pool_->frames_[frame_].valid_bytes;
}

void BufferPool::PageGuard::mark_dirty(std::size_t up_to) {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  Shard& sh = pool_->shards_[shard_];
  // The extent lock is held ACROSS the dirty-bit publication: flush_file's
  // clean-file fast path reads dirty_extent_ alone, so any observer of
  // f.dirty == true must see this file's entry, its stamp already moved.
  // (Publishing the bit first and the entry second let the fast path skip
  // a just-dirtied page.)  Lock order extent -> shard is safe: no path
  // acquires extent_mutex_ while holding a shard mutex.
  std::lock_guard<std::mutex> extent_lock(pool_->extent_mutex_);
  std::uint64_t new_extent = 0;
  FileId file = kInvalidFile;
  {
    // Frame fields are read under the shard lock: an unlocked read of
    // data.size() here raced with load_frame in the pre-sharding pool.
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = pool_->frames_[frame_];
    check<IoError>(up_to <= f.data.size(), "PageGuard: dirty extent > page");
    f.dirty = true;
    f.valid_bytes = std::max(f.valid_bytes, up_to);
    file = f.file;
    new_extent = f.page_no * pool_->config_.page_size + f.valid_bytes;
  }
  pool_->note_dirty(file, new_extent);
}

void BufferPool::note_dirty(FileId file, std::uint64_t extent) {
  DirtyExtent& e = dirty_extent_[file];
  e.bytes = std::max(e.bytes, extent);
  e.stamp = ++dirty_stamp_;
}

// ---------------------------------------------------------- LRU intrusive ----

void BufferPool::lru_push_front(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  f.lru_prev = kNoFrame;
  f.lru_next = sh.lru_head;
  if (sh.lru_head != kNoFrame) frames_[sh.lru_head].lru_prev = idx;
  sh.lru_head = idx;
  if (sh.lru_tail == kNoFrame) sh.lru_tail = idx;
}

void BufferPool::lru_remove(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    sh.lru_head = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    sh.lru_tail = f.lru_prev;
  }
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
}

void BufferPool::lru_touch(Shard& sh, std::size_t idx) {
  if (sh.lru_head == idx) return;
  lru_remove(sh, idx);
  lru_push_front(sh, idx);
}

// ------------------------------------------------------ per-file index ----

const BufferPool::Run* BufferPool::find_run(const Shard& sh, RunKey key) {
  if (sh.hot_run == nullptr || !(sh.hot_key == key)) {
    const auto it = sh.page_table.find(key);
    if (it == sh.page_table.end()) return nullptr;
    sh.hot_run = &it->second;
    sh.hot_key = key;
  }
  return sh.hot_run;
}

std::size_t BufferPool::lookup(const Shard& sh, FileId file,
                              std::uint64_t page_no) {
  const Run* run = find_run(sh, RunKey{file, page_no / kRunPages});
  const std::size_t slot = page_no % kRunPages;
  const bool held = run != nullptr && (run->occupied >> slot & 1u) != 0;
  return held ? run->frame[slot] : kNoFrame;
}

void BufferPool::table_insert(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  Run& run = sh.page_table[RunKey{f.file, f.page_no / kRunPages}];
  const std::size_t slot = f.page_no % kRunPages;
  run.frame[slot] = idx;
  run.occupied |= 1u << slot;
  sh.resident++;
  const auto [head, first] = sh.file_head.try_emplace(f.file, idx);
  f.file_prev = kNoFrame;
  f.file_next = first ? kNoFrame : std::exchange(head->second, idx);
  if (f.file_next != kNoFrame) frames_[f.file_next].file_prev = idx;
}

void BufferPool::table_erase(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  const auto run = sh.page_table.find(RunKey{f.file, f.page_no / kRunPages});
  run->second.occupied &= ~(1u << f.page_no % kRunPages);
  if (run->second.occupied == 0) {
    if (sh.hot_run == &run->second) sh.hot_run = nullptr;
    sh.page_table.erase(run);
  }
  sh.resident--;
  if (f.file_next != kNoFrame) frames_[f.file_next].file_prev = f.file_prev;
  if (f.file_prev != kNoFrame) {
    frames_[f.file_prev].file_next = f.file_next;
  } else if (f.file_next != kNoFrame) {
    sh.file_head[f.file] = f.file_next;
  } else {
    sh.file_head.erase(f.file);
  }
  f.file_prev = kNoFrame;
  f.file_next = kNoFrame;
}

template <typename Pred>
bool BufferPool::any_file_frame(const Shard& sh, FileId file,
                                Pred pred) const {
  const auto head = sh.file_head.find(file);
  if (head == sh.file_head.end()) return false;
  for (std::size_t i = head->second; i != kNoFrame; i = frames_[i].file_next) {
    if (pred(frames_[i])) return true;
  }
  return false;
}

// --------------------------------------------------------------- pool ----

BufferPool::PageGuard BufferPool::pin(FileId file, std::uint64_t page_no) {
  return pin_span(file, page_no, page_no);
}

BufferPool::PageGuard BufferPool::pin_span(FileId file, std::uint64_t page_no,
                                           std::uint64_t last_page) {
  const std::size_t s = shard_of(file, page_no);
  Shard& sh = shards_[s];
  std::unique_lock<std::mutex> lk(sh.mutex);
  const std::size_t idx =
      find_or_load(sh, lk, file, page_no, /*pin=*/true, last_page);
  return PageGuard(this, s, idx);
}

std::vector<BufferPool::PageGuard> BufferPool::try_pin_span(
    FileId file, std::uint64_t first_page, std::uint64_t last_page) {
  std::vector<PageGuard> guards;
  std::vector<std::pair<std::size_t, std::size_t>> pinned;  // shard, frame
  guards.reserve(last_page - first_page + 1);
  // Pass 1 pins and nothing else, so a miss can hand every pin back and
  // leave no trace; pass 2 counts.  A pinned frame stays put between.
  for (std::uint64_t p = first_page; p <= last_page; ++p) {
    const std::size_t s = shard_of(file, p);
    Shard& sh = shards_[s];
    std::unique_lock<std::mutex> lock(sh.mutex);
    const std::size_t idx = lookup(sh, file, p);
    if (idx == kNoFrame || frames_[idx].io_busy) return {};  // guards unpin
    frames_[idx].pins++;
    lock.unlock();
    guards.emplace_back(this, s, idx);
    pinned.emplace_back(s, idx);
  }
  for (const auto& [s, idx] : pinned) {
    Shard& sh = shards_[s];
    std::lock_guard<std::mutex> lock(sh.mutex);
    count_touch(sh, idx);
  }
  return guards;
}

bool BufferPool::prefetch(FileId file, std::uint64_t page_no) {
  Shard& sh = shards_[shard_of(file, page_no)];
  std::unique_lock<std::mutex> lk(sh.mutex);
  // Resident or already being loaded by someone else: nothing to do.
  if (lookup(sh, file, page_no) != kNoFrame) return false;
  return find_or_load(sh, lk, file, page_no, /*pin=*/false) != kNoFrame;
}

/// Phase 1 of every gather window: clamp to end-of-file, then claim a
/// frame for every cold page, entering it into its shard's page table
/// io_busy-latched — a concurrent faulter of the same page waits on the
/// shard CV instead of duplicating the read.  Resident and in-flight pages
/// are skipped (they split the gather runs); under frame pressure the rest
/// of the window is dropped, never waited for: pin_span loads those pages
/// one by one as the copy reaches them.  Each claimed page counts as a
/// miss, and its first pin counts no hit.  Frame buffers are sized here so
/// the gather phase cannot hit bad_alloc mid-publication.  On error every
/// claimed frame is unwound before rethrowing (a pin would otherwise hang
/// on the leaked latch).
std::vector<BufferPool::GatherTarget> BufferPool::claim_gather_targets(
    FileId file, std::uint64_t first_page, std::size_t count) {
  std::vector<GatherTarget> targets;
  // Clamp the window to end-of-file: faulting zero-filled pages past EOF
  // into the pool wastes frames and pollutes the LRU.  A page past the
  // store's size that holds unflushed dirty data is necessarily resident,
  // so it is skipped below anyway.
  const std::uint64_t file_size = store_.size(file);
  if (file_size == 0) return targets;
  const std::uint64_t last_page = (file_size - 1) / config_.page_size;
  if (first_page > last_page) return targets;
  count = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, last_page - first_page + 1));
  targets.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t page_no = first_page + i;
      const std::size_t s = shard_of(file, page_no);
      Shard& sh = shards_[s];
      std::unique_lock<std::mutex> lk(sh.mutex);
      if (lookup(sh, file, page_no) != kNoFrame) continue;
      bool transient_holds = false;
      const std::size_t idx = try_acquire_frame(sh, lk, transient_holds);
      if (idx == kNoFrame) break;
      if (lookup(sh, file, page_no) != kNoFrame) {
        // Lost a race while try_acquire_frame released the lock.
        release_frame(idx);
        continue;
      }
      install_loading_frame(sh, file, page_no, idx, /*pins=*/0);
      Frame& f = frames_[idx];
      if (f.data.size() != config_.page_size) {
        f.data.resize(config_.page_size);  // can throw bad_alloc
      }
      sh.stats.misses++;
      f.miss_counted = true;
      targets.push_back(GatherTarget{page_no, s, idx});
    }
  } catch (...) {
    abort_gather_frames(targets);
    throw;
  }
  return targets;
}

void BufferPool::publish_gather_run(std::span<const GatherTarget> run,
                                    std::size_t got) {
  // Set each frame's valid extent, zero any stale tail of a reused frame,
  // then release the io_busy latch under the lock.
  for (std::size_t k = 0; k < run.size(); ++k) {
    Frame& f = frames_[run[k].frame];
    const std::size_t skip = k * config_.page_size;
    const std::size_t valid =
        got > skip ? std::min(config_.page_size, got - skip) : 0;
    if (valid < config_.page_size) {
      std::memset(f.data.data() + valid, 0, config_.page_size - valid);
    }
    Shard& sh = shards_[run[k].shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    f.valid_bytes = valid;
    f.io_busy = false;
    if (k == 0) {
      // Credit the whole gather to the run's first shard; stats() sums.
      sh.stats.gather_read_calls++;
      sh.stats.gather_read_pages += run.size();
    }
    sh.io_cv.notify_all();
  }
}

void BufferPool::load_range(FileId file, std::uint64_t first_page,
                            std::size_t count) {
  const std::vector<GatherTarget> targets =
      claim_gather_targets(file, first_page, count);
  const std::span<const GatherTarget> all(targets);

  // Phase 2: one vectored gather per contiguous run of claimed pages, all
  // I/O outside any lock (the io_busy latches own the frames).  Runs are
  // capped at kCoalescePages, mirroring the write-back side.
  std::vector<std::span<std::byte>> parts;
  for (std::size_t i = 0; i < targets.size();) {
    std::size_t j = i + 1;
    while (j < targets.size() && j - i < kCoalescePages &&
           targets[j].page_no == targets[j - 1].page_no + 1) {
      j++;
    }
    const std::span<const GatherTarget> run = all.subspan(i, j - i);
    std::size_t got = 0;
    try {
      parts.clear();
      for (const GatherTarget& t : run) {
        parts.emplace_back(frames_[t.frame].data.data(), config_.page_size);
      }
      got = store_.readv(file, run.front().page_no * config_.page_size, parts);
    } catch (...) {
      // Unwind this run and everything not yet issued: a failed gather
      // must leave no half-valid frame resident.  Runs already published
      // stay — their data is complete.
      abort_gather_frames(all.subspan(i));
      throw;
    }
    publish_gather_run(run, got);
    i = j;
  }
}

/// Drops the claimed-but-unloaded frames of a failed gather: page-table
/// entries are erased and the frames returned to the free list, so faulters
/// waiting on them retry from a clean slate.  Their misses stay counted, as
/// a failed single-page load's does: the request needed these pages and
/// they were not resident.
void BufferPool::abort_gather_frames(std::span<const GatherTarget> targets) {
  for (const GatherTarget& t : targets) {
    Shard& sh = shards_[t.shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = frames_[t.frame];
    table_erase(sh, t.frame);
    lru_remove(sh, t.frame);
    f.in_use = false;
    f.io_busy = false;
    release_frame(t.frame);
    sh.io_cv.notify_all();
  }
}

// -------------------------------------------------------- read around ----

template <typename Visit>
void BufferPool::for_each_resident(FileId file, std::uint64_t offset,
                                   std::uint64_t length, Walk walk,
                                   Visit visit) {
  const std::size_t page_size = config_.page_size;
  const std::uint64_t first_page = offset / page_size;
  const std::uint64_t end = offset + length;
  const std::uint64_t last_page = (end - 1) / page_size;
  // The span's runs in order, each under one hold of its shard's lock, so
  // a long span keeps no shard from pin and the event loop for more than
  // kRunPages page copies at a time.
  for (std::uint64_t r = first_page / kRunPages; r <= last_page / kRunPages;
       ++r) {
    const std::uint64_t base = r * kRunPages;
    const std::uint64_t lo = std::max(first_page, base) - base;
    const std::uint64_t hi = std::min(last_page, base + kRunPages - 1) - base;
    std::uint32_t want = ((2u << hi) - 1) & ~((1u << lo) - 1);  // in span
    const RunKey key{file, r};
    Shard& sh = shards_[shard_of(file, base)];
    std::unique_lock<std::mutex> lk(sh.mutex);
    const Run* run = find_run(sh, key);
    while (run != nullptr && (want & run->occupied) != 0) {
      const int slot = std::countr_zero(want & run->occupied);
      const std::size_t idx = run->frame[slot];
      const Frame& f = frames_[idx];
      if (f.io_busy) {
        // Mid-load, or a dirty page mid-write-back: its bytes reach the
        // frame or the store when the latch clears, so look again then.
        if (walk == Walk::kNoWait) return;
        sh.io_cv.wait(lk);
      } else if (walk == Walk::kUnpinned && (f.flush_pins > 0 || f.pins > 0)) {
        // The wait is bounded because an unpin does not signal, which
        // keeps the hot unpin path free of a notify: a reader's last
        // unpin is seen within a millisecond.
        sh.io_cv.wait_for(lk, std::chrono::milliseconds(1));
      } else {
        const std::uint64_t page_begin = (base + slot) * page_size;
        if (!visit(sh, idx, std::max(offset, page_begin),
                   std::min(end, page_begin + page_size))) {
          return;
        }
        want &= ~(1u << slot);
        continue;
      }
      run = find_run(sh, key);  // the wait let go of the lock
    }
  }
}

void BufferPool::count_touch(Shard& sh, std::size_t idx) {
  if (!std::exchange(frames_[idx].miss_counted, false)) sh.stats.hits++;
  lru_touch(sh, idx);
}

std::size_t BufferPool::read_resident(FileId file, std::uint64_t offset,
                                      std::span<std::byte> out) {
  if (out.empty()) return 0;
  const std::size_t page_size = config_.page_size;
  std::size_t copied = 0;
  // The copy ends at the first page not visited in turn (not resident, or
  // mid-I/O), and at one whose valid bytes stop short of the span: a hole
  // or the file's end, which only the logical size can tell apart.
  for_each_resident(
      file, offset, out.size(), Walk::kNoWait,
      [&](Shard& sh, std::size_t idx, std::uint64_t lo, std::uint64_t hi) {
        const Frame& f = frames_[idx];
        const std::size_t within = lo - f.page_no * page_size;
        if (lo != offset + copied || f.valid_bytes < hi - lo + within) {
          return false;
        }
        count_touch(sh, idx);
        std::memcpy(out.data() + copied, f.data.data() + within, hi - lo);
        copied += hi - lo;
        return true;
      });
  return copied;
}

void BufferPool::read_around(FileId file, std::uint64_t offset,
                             std::span<std::byte> out) {
  if (out.empty()) return;
  const std::size_t page_size = config_.page_size;
  const std::uint64_t first_page = offset / page_size;
  const std::uint64_t end = offset + out.size();
  // Each resident page's part of `out`, copied under its shard lock: that
  // keeps the frame resident as a pin would, without the pin.
  std::vector<std::uint8_t> resident(
      static_cast<std::size_t>((end - 1) / page_size - first_page + 1), 0);
  for_each_resident(
      file, offset, out.size(), Walk::kAll,
      [&](Shard& sh, std::size_t idx, std::uint64_t lo, std::uint64_t hi) {
        count_touch(sh, idx);
        std::memcpy(out.data() + (lo - offset),
                    frames_[idx].data.data() + lo % page_size, hi - lo);
        resident[lo / page_size - first_page] = 1;
        return true;
      });
  // Each maximal run of the other pages is one store read.
  for (std::size_t i = 0, j = 0; i < resident.size(); i = j) {
    for (j = i + 1; j < resident.size() && resident[j] == resident[i];) ++j;
    if (resident[i] != 0) continue;
    const std::uint64_t lo = std::max(offset, (first_page + i) * page_size);
    const std::uint64_t hi = std::min(end, (first_page + j) * page_size);
    read_direct(file, lo, out.subspan(lo - offset, hi - lo));
  }
}

void BufferPool::read_direct(FileId file, std::uint64_t offset,
                             std::span<std::byte> out) {
  // Past the store's EOF the logical file is a hole: any page there that
  // holds written data is dirty, hence resident, hence not in this run.
  const std::size_t got = store_.read(file, offset, out);
  if (got < out.size()) {
    std::memset(out.data() + got, 0, out.size() - got);
  }
  const std::uint64_t first_page = offset / config_.page_size;
  // Credit the call to the run's first shard; stats() sums.
  Shard& sh = shards_[shard_of(file, first_page)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  sh.stats.direct_read_calls++;
  sh.stats.direct_read_pages +=
      (offset + out.size() - 1) / config_.page_size - first_page + 1;
}

// ------------------------------------------------------- write around ----

void BufferPool::write_around(FileId file, std::uint64_t offset,
                              std::span<const std::byte> data) {
  // Before the store write: a dirty page's write-back, in flight now or
  // started later, carries the new bytes, never older ones.
  static_cast<void>(copy_into_resident(file, offset, data, /*dirty=*/false));
  try {
    store_.write(file, offset, data);
  } catch (...) {
    // The store may hold any part of the bytes, so the resident pages keep
    // them dirty for a later flush.  The file's extent entry is restamped
    // before any dirty bit is set, as mark_dirty orders it, so no flush
    // can skip them or forget the file.
    {
      std::lock_guard<std::mutex> lock(extent_mutex_);
      note_dirty(file, 0);
    }
    const std::uint64_t extent =
        copy_into_resident(file, offset, data, /*dirty=*/true);
    std::lock_guard<std::mutex> lock(extent_mutex_);
    note_dirty(file, extent);
    throw;
  }
  // After it: a page loaded while the write ran may hold the old bytes;
  // a page loaded from here on reads the new ones from the store.
  static_cast<void>(copy_into_resident(file, offset, data, /*dirty=*/false));
  const std::uint64_t first_page = offset / config_.page_size;
  // Credit the call to the range's first shard; stats() sums.
  Shard& sh = shards_[shard_of(file, first_page)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  sh.stats.direct_write_calls++;
  sh.stats.direct_write_pages +=
      (offset + data.size() - 1) / config_.page_size - first_page + 1;
}

std::uint64_t BufferPool::copy_into_resident(FileId file, std::uint64_t offset,
                                             std::span<const std::byte> data,
                                             bool dirty) {
  if (data.empty()) return 0;
  const std::size_t page_size = config_.page_size;
  std::uint64_t extent = 0;
  // A load, a write-back or a reader's copy uses a frame's bytes outside
  // the lock, so each page waits those out before it takes the bytes.
  for_each_resident(
      file, offset, data.size(), Walk::kUnpinned,
      [&](Shard&, std::size_t idx, std::uint64_t lo, std::uint64_t hi) {
        Frame& f = frames_[idx];
        const auto within = static_cast<std::size_t>(lo % page_size);
        const auto n = static_cast<std::size_t>(hi - lo);
        std::memcpy(f.data.data() + within, data.data() + (lo - offset), n);
        f.valid_bytes = std::max(f.valid_bytes, within + n);
        if (dirty) {
          f.dirty = true;
          extent = std::max(extent, f.page_no * page_size + f.valid_bytes);
        }
        return true;
      });
  return extent;
}

bool BufferPool::contains(FileId file, std::uint64_t page_no) const {
  const Shard& sh = shards_[shard_of(file, page_no)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  return lookup(sh, file, page_no) != kNoFrame;
}

std::size_t BufferPool::find_or_load(Shard& sh,
                                     std::unique_lock<std::mutex>& lk,
                                     FileId file, std::uint64_t page_no,
                                     bool pin, std::uint64_t span_last) {
  for (;;) {
    if (const std::size_t found = lookup(sh, file, page_no);
        found != kNoFrame) {
      Frame& f = frames_[found];
      if (f.io_busy) {
        // Another thread is faulting or writing back this very page: wait
        // for its I/O instead of issuing a conflicting backing access.
        sh.io_cv.wait(lk);
        continue;
      }
      // A page a gather loaded had its miss counted then: its first pin
      // is that miss, not a hit.
      if (pin) {
        count_touch(sh, found);
        f.pins++;
      } else {
        lru_touch(sh, found);
      }
      return found;
    }
    if (span_last > page_no) {
      // The first cold page of a multi-page request: load every cold page
      // from here to the end of the span now, one readv per contiguous
      // run, instead of one read per page as the copy reaches it.  Then
      // look again; a page the gather had to drop loads alone below.
      lk.unlock();
      load_range(file, page_no, span_last - page_no + 1);
      lk.lock();
      span_last = page_no;
      continue;
    }
    // A seek touch is a hint: it takes a frame only if one is free or
    // evictable right now, as the gather does.
    bool transient_holds = false;
    const std::size_t idx = pin ? acquire_frame(sh, lk)
                                : try_acquire_frame(sh, lk, transient_holds);
    if (idx == kNoFrame) return kNoFrame;
    if (lookup(sh, file, page_no) != kNoFrame) {
      // Someone claimed the page while acquire_frame let go of the lock.
      release_frame(idx);
      continue;
    }
    install_loading_frame(sh, file, page_no, idx, pin ? 1u : 0u);
    Frame& f = frames_[idx];
    (pin ? sh.stats.misses : sh.stats.prefetches)++;
    // The actual disk read happens outside the shard lock; the io_busy
    // latch keeps the frame from being evicted or double-loaded.
    lk.unlock();
    std::exception_ptr error;
    std::size_t got = 0;
    try {
      if (f.data.size() != config_.page_size) {
        f.data.resize(config_.page_size);  // zero-filled on first allocation
      }
      // A page wholly past the store's EOF loads as zeros, unread.  Sized
      // under the latch: a write_around extending the file meanwhile
      // waits this frame out in its second pass, then copies in.
      const std::uint64_t at = page_no * config_.page_size;
      if (at < store_.size(file)) got = store_.read(file, at, f.data);
      if (got < config_.page_size) {
        // Only the stale tail needs zeroing; full-page loads skip the
        // page-sized memset the old code paid on every load.
        std::memset(f.data.data() + got, 0, config_.page_size - got);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error) {
      table_erase(sh, idx);
      lru_remove(sh, idx);
      f.in_use = false;
      f.io_busy = false;
      f.pins = 0;
      // Seek touches count pages actually loaded; a miss stays counted —
      // the demand fault did happen even though its load failed.
      if (!pin) sh.stats.prefetches--;
      release_frame(idx);
      sh.io_cv.notify_all();
      std::rethrow_exception(error);
    }
    f.valid_bytes = got;
    f.io_busy = false;
    sh.io_cv.notify_all();
    return idx;
  }
}

/// Installs `idx` as the io_busy-latched frame for (file, page_no): resets
/// the frame's bookkeeping and enters it into `sh`'s page table and LRU.
/// Caller holds the shard lock, owns the load, and must either publish the
/// frame (valid_bytes + io_busy = false) or unwind it on failure.
void BufferPool::install_loading_frame(Shard& sh, FileId file,
                                       std::uint64_t page_no, std::size_t idx,
                                       std::uint32_t pins) {
  Frame& f = frames_[idx];
  f.file = file;
  f.page_no = page_no;
  f.valid_bytes = 0;
  f.pins = pins;
  f.dirty = false;
  f.in_use = true;
  f.io_busy = true;
  f.miss_counted = false;
  table_insert(sh, idx);
  lru_push_front(sh, idx);
}

/// Returns an unused frame to the pool-wide free list.
void BufferPool::release_frame(std::size_t idx) {
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_frames_.push_back(idx);
}

/// Tries to evict `sh`'s least recently used unpinned frame.  Returns the
/// detached frame index, or kNoFrame if nothing was evictable; sets
/// `transient_holds` if a frame was skipped only because of in-flight I/O
/// or a flush hold.  May release and reacquire `lk` for a dirty victim's
/// write-back.
std::size_t BufferPool::try_evict_from(Shard& sh,
                                       std::unique_lock<std::mutex>& lk,
                                       bool& transient_holds) {
  for (std::size_t idx = sh.lru_tail; idx != kNoFrame;
       idx = frames_[idx].lru_prev) {
    Frame& f = frames_[idx];
    if (f.pins > 0) continue;
    if (f.io_busy || f.flush_pins > 0) {
      // In-flight load or flush write: will be released shortly.
      transient_holds = true;
      continue;
    }
    if (f.dirty) {
      // Write the victim back before retiring its page-table entry: a
      // concurrent fault on the same page must find the io_busy entry
      // and wait, not race a fresh store read against this write.
      f.dirty = false;
      f.io_busy = true;
      f.io_write = true;
      lru_remove(sh, idx);
      const FileId file = f.file;
      const std::uint64_t offset = f.page_no * config_.page_size;
      const std::size_t n = f.valid_bytes;
      lk.unlock();
      std::exception_ptr error;
      try {
        store_.write(file, offset,
                     std::span<const std::byte>(f.data.data(), n));
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      f.io_busy = false;
      f.io_write = false;
      if (error) {
        // Failed write-back: keep the page resident and dirty so a later
        // flush or eviction can retry — its data must not be lost just
        // because this allocation failed.
        f.dirty = true;
        lru_push_front(sh, idx);
        sh.io_cv.notify_all();
        std::rethrow_exception(error);
      }
      sh.stats.writebacks++;
    } else {
      lru_remove(sh, idx);
    }
    table_erase(sh, idx);
    sh.stats.evictions++;
    f.in_use = false;
    sh.io_cv.notify_all();
    return idx;
  }
  return kNoFrame;
}

/// One allocation attempt, with `self`'s mutex held on entry and exit.
/// Order: pool-wide free list, then eviction from `self`, then eviction
/// from sibling shards (releasing `self`'s lock; at most one shard lock is
/// ever held, so shards cannot deadlock).  Returns kNoFrame when nothing
/// was obtainable right now; `transient_holds` is set if a frame was
/// skipped only because of in-flight I/O or a flush hold.
std::size_t BufferPool::try_acquire_frame(Shard& self,
                                          std::unique_lock<std::mutex>& lk,
                                          bool& transient_holds) {
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (!free_frames_.empty()) {
      const std::size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return idx;
    }
  }
  const std::size_t local = try_evict_from(self, lk, transient_holds);
  if (local != kNoFrame) return local;
  if (shards_.size() > 1) {
    const std::size_t self_idx = static_cast<std::size_t>(&self - shards_.data());
    std::size_t stolen = kNoFrame;
    lk.unlock();
    for (std::size_t off = 1; off < shards_.size() && stolen == kNoFrame;
         ++off) {
      Shard& other = shards_[(self_idx + off) % shards_.size()];
      std::unique_lock<std::mutex> other_lk(other.mutex);
      stolen = try_evict_from(other, other_lk, transient_holds);
    }
    lk.lock();
    if (stolen != kNoFrame) return stolen;
  }
  return kNoFrame;
}

/// Hands the caller a frame, retrying until one is available.  Throws only
/// when every frame in the pool is durably pinned.
std::size_t BufferPool::acquire_frame(Shard& self,
                                      std::unique_lock<std::mutex>& lk) {
  for (;;) {
    bool transient_holds = false;
    const std::size_t idx = try_acquire_frame(self, lk, transient_holds);
    if (idx != kNoFrame) return idx;
    // Only durable PageGuard pins justify failing; transient holds by a
    // concurrent flush or loader resolve, so wait and rescan.  The wait is
    // bounded because the hold may live in a sibling shard whose progress
    // signals that shard's CV, not ours.
    if (!transient_holds) {
      throw IoError("BufferPool: all frames pinned, cannot allocate");
    }
    self.io_cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

void BufferPool::unpin(std::size_t shard, std::size_t frame) {
  Shard& sh = shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mutex);
  Frame& f = frames_[frame];
  check<IoError>(f.pins > 0, "BufferPool: unpin of unpinned frame");
  f.pins--;
}

// ---------------------------------------------------------------- flush ----

void BufferPool::collect_dirty(Shard& sh, std::size_t shard_idx, FileId file,
                               bool match_all, std::vector<FlushEntry>& out) {
  std::unique_lock<std::mutex> lock(sh.mutex);
  // Wait out in-flight write-backs on matching pages before scanning.  A
  // dirty page mid-eviction (io_write) or mid-flush (flush_pins) is
  // invisible to the dirty scan below — both clear `dirty` before their
  // write runs — but if that write *fails* the page comes back dirty, and
  // a flush that already returned success would have silently skipped it:
  // a durability hole the fault-injection harness exposed (stress seed
  // 1014 for the eviction case; the flush_pins case is its concurrent-
  // flush twin).  Waiting until the in-flight write settles means every
  // failed write-back has re-dirtied its page before we scan, so flush
  // either persists the page or propagates an error — never neither.
  // Clean loads (io_busy without io_write) are irrelevant to durability
  // and are NOT waited on, so read storms cannot stall a flush.
  //
  // Deadlock-free: every flush collects shards in index order and only
  // holds flush_pins in shards it has finished collecting, so a flush
  // waiting here can only be waiting on a flush whose own wait (if any)
  // is in a strictly higher shard — wait chains cannot cycle.  Eviction
  // write-backs finish without taking further locks.
  //
  // One file's pages are found through its list in this shard, so a
  // flush_file costs per page of the file, not per page of the pool.  A
  // frame mid-eviction keeps its list entry until its table entry goes.
  const auto writing = [](const Frame& f) {
    return f.io_write || f.flush_pins > 0;
  };
  const auto take = [&](std::size_t i) {
    Frame& f = frames_[i];
    if (!f.dirty || f.io_busy) return;
    // Clear dirty now and take a transient hold: the coalesced write below
    // runs without the shard lock, and the hold keeps the frame from being
    // evicted (a concurrent mark_dirty simply re-dirties the page).
    f.dirty = false;
    f.flush_pins++;
    out.push_back(FlushEntry{f.file, f.page_no, shard_idx, i, f.valid_bytes});
  };
  if (match_all) {
    // The file lists index exactly the page table's frames.
    while (std::ranges::any_of(sh.file_head, [&](const auto& entry) {
      return any_file_frame(sh, entry.first, writing);
    })) {
      sh.io_cv.wait(lock);
    }
    for (std::size_t i = sh.lru_head; i != kNoFrame; i = frames_[i].lru_next) {
      take(i);
    }
    return;
  }
  while (any_file_frame(sh, file, writing)) sh.io_cv.wait(lock);
  const auto head = sh.file_head.find(file);
  if (head == sh.file_head.end()) return;
  for (std::size_t i = head->second; i != kNoFrame; i = frames_[i].file_next) {
    take(i);
  }
}

void BufferPool::write_back_coalesced(std::vector<FlushEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FlushEntry& a, const FlushEntry& b) {
              return a.file != b.file ? a.file < b.file
                                      : a.page_no < b.page_no;
            });
  std::exception_ptr error;
  std::vector<bool> written(entries.size(), false);
  // Runs extend while pages are adjacent in the same file and every page
  // except the last covers the full page (no holes in the middle).
  // Single-page runs go through writev too (one-part gather): every flush
  // backing call is then the same op class, so the coalescing ratio
  // computed from vectored-op stats (PoolStats here, IoStats at the
  // managed level) covers the whole flush path, not just the multi-page
  // gathers.
  std::vector<std::span<const std::byte>> parts;
  for (std::size_t i = 0; i < entries.size() && !error;) {
    std::size_t j = i + 1;
    while (j < entries.size() && j - i < kCoalescePages &&
           entries[j].file == entries[i].file &&
           entries[j].page_no == entries[j - 1].page_no + 1 &&
           entries[j - 1].valid_bytes == config_.page_size) {
      j++;
    }
    try {
      parts.clear();
      for (std::size_t k = i; k < j; ++k) {
        parts.emplace_back(frames_[entries[k].frame].data.data(),
                           entries[k].valid_bytes);
      }
      store_.writev(entries[i].file, entries[i].page_no * config_.page_size,
                    parts);
      std::fill(written.begin() + static_cast<std::ptrdiff_t>(i),
                written.begin() + static_cast<std::ptrdiff_t>(j), true);
      // Credit the backing call to the run's first shard; stats() sums.
      Shard& sh = shards_[entries[i].shard];
      std::lock_guard<std::mutex> lock(sh.mutex);
      sh.stats.flush_write_calls++;
      sh.stats.flush_write_pages += j - i;
    } catch (...) {
      error = std::current_exception();
    }
    i = j;
  }
  // Release the holds; credit write-backs that happened and re-dirty the
  // pages a failed write left behind, so a retried flush still sees them.
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const FlushEntry& e = entries[k];
    Shard& sh = shards_[e.shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = frames_[e.frame];
    f.flush_pins--;
    if (written[k]) {
      sh.stats.writebacks++;
    } else {
      f.dirty = true;
    }
    sh.io_cv.notify_all();
  }
  if (error) std::rethrow_exception(error);
}

void BufferPool::flush_file(FileId file) {
  std::uint64_t stamp = 0;
  {
    // Fast path: no page of this file was dirtied since its last
    // error-free flush or discard, so there is nothing to write back and
    // no failing in-flight write-back to wait out.  Read-only streams
    // close() through here on every request.
    std::lock_guard<std::mutex> lock(extent_mutex_);
    const auto it = dirty_extent_.find(file);
    if (it == dirty_extent_.end()) return;
    stamp = it->second.stamp;
  }
  std::vector<FlushEntry> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    collect_dirty(shards_[s], s, file, /*match_all=*/false, dirty);
  }
  write_back_coalesced(dirty);  // an error keeps the entry
  // Every page dirty when the stamp was read was collected above or sat in
  // a write-back collect_dirty waited out: the store holds the extent.  A
  // page dirtied since moved the stamp.
  std::lock_guard<std::mutex> lock(extent_mutex_);
  const auto it = dirty_extent_.find(file);
  if (it != dirty_extent_.end() && it->second.stamp == stamp) {
    dirty_extent_.erase(it);
  }
}

bool BufferPool::may_be_dirty(FileId file) const {
  std::lock_guard<std::mutex> lock(extent_mutex_);
  return dirty_extent_.contains(file);
}

void BufferPool::flush_all() {
  std::vector<FlushEntry> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    collect_dirty(shards_[s], s, kInvalidFile, /*match_all=*/true, dirty);
  }
  write_back_coalesced(dirty);
}

// ---------------------------------------------------------------- misc ----

std::uint64_t BufferPool::logical_file_size(FileId file) const {
  const std::uint64_t store_size = store_.size(file);
  std::lock_guard<std::mutex> lock(extent_mutex_);
  const auto it = dirty_extent_.find(file);
  if (it == dirty_extent_.end()) return store_size;
  return std::max(store_size, it->second.bytes);
}

void BufferPool::discard_file(FileId file) {
  {
    std::lock_guard<std::mutex> lock(extent_mutex_);
    dirty_extent_.erase(file);
  }
  for (Shard& sh : shards_) {
    std::unique_lock<std::mutex> lk(sh.mutex);
    // Wait out in-flight loads, eviction write-backs and flush writes of
    // this file so the drop is complete.  The file's list — not the LRU —
    // is the authoritative index: a frame mid-eviction is detached from
    // the LRU but keeps its table and list entries until its write-back
    // finishes.
    while (any_file_frame(sh, file, [](const Frame& f) {
      return f.io_busy || f.flush_pins > 0;
    })) {
      sh.io_cv.wait(lk);
    }
    for (auto head = sh.file_head.find(file); head != sh.file_head.end();
         head = sh.file_head.find(file)) {
      const std::size_t idx = head->second;
      Frame& f = frames_[idx];
      check<IoError>(f.pins == 0, "BufferPool: discard of pinned page");
      f.in_use = false;
      f.dirty = false;
      lru_remove(sh, idx);
      table_erase(sh, idx);
      release_frame(idx);
    }
  }
}

std::size_t BufferPool::evict_clean() {
  std::size_t dropped = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    // A frame mid-eviction is off the LRU, but io_busy: it would stay.
    for (std::size_t idx = sh.lru_head, next = kNoFrame; idx != kNoFrame;
         idx = next) {
      Frame& f = frames_[idx];
      next = f.lru_next;
      // Anything referenced, mid-I/O or dirty stays resident: this is a
      // cache hint, not a correctness operation.
      if (f.pins > 0 || f.flush_pins > 0 || f.io_busy || f.dirty) continue;
      f.in_use = false;
      lru_remove(sh, idx);
      table_erase(sh, idx);
      release_frame(idx);
      sh.stats.evictions++;
      ++dropped;
    }
  }
  return dropped;
}

namespace {

void add_shard_stats(PoolStats& total, const PoolStats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.evictions += s.evictions;
  total.writebacks += s.writebacks;
  total.prefetches += s.prefetches;
  total.flush_write_calls += s.flush_write_calls;
  total.flush_write_pages += s.flush_write_pages;
  total.gather_read_calls += s.gather_read_calls;
  total.gather_read_pages += s.gather_read_pages;
  total.direct_read_calls += s.direct_read_calls;
  total.direct_read_pages += s.direct_read_pages;
  total.direct_write_calls += s.direct_write_calls;
  total.direct_write_pages += s.direct_write_pages;
}

}  // namespace

PoolStats BufferPool::stats() const {
  PoolStats total;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    add_shard_stats(total, sh.stats);
  }
  return total;
}

void BufferPool::debug_validate(bool expect_unpinned) const {
  const auto fail = [](const std::string& what) {
    throw IoError("BufferPool::debug_validate: " + what);
  };
  // The extent lock, all shard locks (index order), then the free-list
  // lock — the order every other path uses, so this cannot deadlock
  // against concurrent stragglers while it waits for quiescence.
  std::lock_guard<std::mutex> extent_lock(extent_mutex_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& sh : shards_) locks.emplace_back(sh.mutex);
  std::lock_guard<std::mutex> free_lock(free_mutex_);

  std::vector<char> seen(frames_.size(), 0);  // reachable via some LRU list
  PoolStats total;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    // Walk the LRU forward, checking link symmetry and per-frame state.
    std::size_t count = 0;
    std::size_t prev = kNoFrame;
    for (std::size_t idx = sh.lru_head; idx != kNoFrame;
         idx = frames_[idx].lru_next) {
      if (idx >= frames_.size()) fail("LRU link out of range");
      if (++count > frames_.size()) fail("LRU list contains a cycle");
      const Frame& f = frames_[idx];
      if (f.lru_prev != prev) fail("LRU back-link mismatch");
      if (!f.in_use) fail("LRU frame not in_use");
      if (seen[idx] != 0) fail("frame linked into two LRU lists");
      seen[idx] = 1;
      if (lookup(sh, f.file, f.page_no) != idx) fail("LRU frame not in a slot");
      if (f.io_busy) fail("leaked io_busy latch on a quiescent pool");
      if (f.io_write) fail("leaked io_write flag on a quiescent pool");
      if (f.flush_pins != 0) fail("leaked flush_pin on a quiescent pool");
      if (expect_unpinned && f.pins != 0) fail("leaked PageGuard pin");
      if (f.data.size() != config_.page_size) fail("frame buffer not sized");
      if (f.valid_bytes > config_.page_size) fail("valid_bytes > page_size");
      if (f.dirty && !dirty_extent_.contains(f.file)) {
        fail("dirty page of a file with no dirty extent");
      }
      prev = idx;
    }
    if (prev != sh.lru_tail) fail("LRU tail does not terminate the list");
    // Each occupied slot holds a frame of its own page, so no frame sits in
    // two slots, and each LRU frame above sits in one.
    std::size_t slots = 0;
    if (sh.hot_run != nullptr) {
      const auto hot = sh.page_table.find(sh.hot_key);
      if (hot == sh.page_table.end() || &hot->second != sh.hot_run) {
        fail("hot run is not its key's run");
      }
    }
    for (const auto& [key, run] : sh.page_table) {
      if (run.occupied == 0) fail("empty run kept");
      if (shard_of(key.file, key.run * kRunPages) != s) fail("run misplaced");
      for (std::uint32_t bits = run.occupied; bits != 0; bits &= bits - 1) {
        const auto slot = static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t idx = run.frame[slot];
        if (idx >= frames_.size()) fail("run slot frame out of range");
        const Frame& f = frames_[idx];
        if (f.file != key.file || f.page_no != key.run * kRunPages + slot) {
          fail("run slot holds a frame of another page");
        }
        ++slots;
      }
    }
    // At quiescence no frame is detached mid-eviction, so the page table
    // and the LRU list must index exactly the same frames.
    if (count != slots) fail("page table entry not linked into the LRU");
    if (slots != sh.resident) fail("resident count differs from the slots");
    // The per-file lists: each listed frame is of its list's file and maps
    // back to itself through the page table, links are symmetric, and no
    // frame is listed twice.  With as many listed frames as table entries,
    // every entry is listed exactly once.
    std::size_t listed = 0;
    for (const auto& [file, head] : sh.file_head) {
      if (head == kNoFrame) fail("empty file list kept");
      std::size_t back = kNoFrame;
      for (std::size_t idx = head; idx != kNoFrame;
           idx = frames_[idx].file_next) {
        if (idx >= frames_.size()) fail("file list link out of range");
        if (++listed > frames_.size()) fail("file list contains a cycle");
        const Frame& f = frames_[idx];
        if (f.file_prev != back) fail("file list back-link mismatch");
        if (f.file != file) fail("frame listed under another file");
        if (seen[idx] != 1) fail("file list frame unresident or listed twice");
        seen[idx] = 2;
        back = idx;
      }
    }
    if (listed != slots) {
      fail("page table entry missing from its file's list");
    }
    add_shard_stats(total, sh.stats);
  }
  // Global frame accounting: every frame is either reachable through
  // exactly one LRU list (checked above) or parked on the free list.
  std::size_t resident = 0;
  for (std::size_t idx = 0; idx < frames_.size(); ++idx) {
    if (frames_[idx].in_use) {
      resident++;
      if (seen[idx] == 0) fail("in_use frame unreachable from any LRU");
    } else if (seen[idx] != 0) {
      fail("free frame linked into an LRU");
    }
  }
  std::vector<char> freed(frames_.size(), 0);
  for (const std::size_t idx : free_frames_) {
    if (idx >= frames_.size()) fail("free-list index out of range");
    if (frames_[idx].in_use) fail("in_use frame on the free list");
    if (freed[idx] != 0) fail("frame on the free list twice");
    freed[idx] = 1;
  }
  if (resident + free_frames_.size() != config_.capacity_pages) {
    fail("frames leaked: resident + free != capacity");
  }
  // Stats consistency.  Every resident or evicted page came from a
  // successful load, and every load was counted as a miss or a seek touch
  // (failed misses still count as misses, so this is an inequality).
  if (resident + total.evictions > total.misses + total.prefetches) {
    fail("stats: more residents+evictions than counted loads");
  }
  if (total.flush_write_pages > total.writebacks) {
    fail("stats: flush wrote more pages than writebacks counted");
  }
  // Every gathered page is a request's miss.
  if (total.gather_read_pages > total.misses) {
    fail("stats: gathers loaded more pages than misses counted");
  }
}

std::size_t BufferPool::resident_pages() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    total += sh.resident;
  }
  return total;
}

}  // namespace clio::io
