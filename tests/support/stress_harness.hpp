#pragma once

// Seeded multi-threaded stress harness for the concurrent I/O path.
//
// The harness runs a random pin/dirty/flush/discard/gather/touch mix on N
// threads over one BufferPool whose BackingStore is wrapped in a FaultStore,
// so every error and unwind path (failed miss loads, torn coalesced
// flushes, failed eviction write-backs, aborted request gathers) fires
// under real thread interleavings.  After the run it disarms the faults,
// flushes cleanly, checks every pool invariant via
// BufferPool::debug_validate(), and compares the backing bytes of every
// touched page against a per-thread byte oracle.
//
// Every failure string carries the run's seed: re-running the same config
// with that seed replays the same fault plan.
//
// Soundness rules the workload obeys (and why):
//  - Each thread owns one file and is the only thread that reads or writes
//    that file's bytes through PageGuards.  Cross-thread contention still
//    happens where the bugs live — shared shards, the global frame pool,
//    eviction stealing — but page bytes are never raced at the user
//    level, which keeps TSan meaningful and the oracle exact.
//  - Foreign files are touched only through prefetch(), the seek's
//    one-page touch (no user-level byte access, no pins), so a thread's
//    discard_file never observes a foreign pin.  A foreign pin_span would
//    break that: discard_file throws "discard of pinned page" partway
//    through its shard walk, after it has dropped other shards' pages,
//    which the owner's oracle cannot follow.
//  - A gather roll over a thread's own file (or the shared file) walks a
//    pin_span window and releases each guard before the next pin, so a
//    roll holds at most one pin.
//  - Writes always fill whole pages with one marker byte, and the fault
//    plan's torn_granularity equals the page size, so a backing page is
//    always uniformly one byte — the oracle reasons in single bytes.
//
// run_managed_stress() drives the layer above instead: multi-page reads,
// writes and seeks through ManagedFile over one ManagedFileSystem, so the
// request gather (BufferPool::pin_span), the large-read and large-write
// bypasses (BufferPool::read_around, write_around) and close-time flushes
// run under the same fault plans.  Its oracle is per byte (ByteOracle).

#include <algorithm>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/fault_store.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace clio::test_support {

struct StressConfig {
  std::uint64_t seed = 1;
  int threads = 8;
  std::size_t shards = 4;
  std::size_t page_size = 256;
  /// Much smaller than threads * pages_per_file so eviction churns.
  std::size_t capacity_pages = 64;
  std::size_t pages_per_file = 48;
  /// Longest read or write of run_managed_stress, in pages.  At
  /// BufferPool::kCoalescePages or more, some reads and writes go around
  /// the pool.
  std::size_t span_pages = 6;
  std::uint64_t ops_per_thread = 2000;
  /// Shared-file mode: every thread works on ONE file, with a per-page
  /// try-lock token deciding who may touch a page's bytes.  This exercises
  /// cross-thread same-page pin interleavings (two threads pinning the
  /// same page back-to-back, a gather racing a pin, discard racing a
  /// foreign pin) that the per-thread-file mode cannot reach.  The oracle
  /// is necessarily weaker — flush/discard interleave with other threads'
  /// writes, so pages are checked for uniformity + membership in the set
  /// of values ever written, never exactness.
  bool shared_file = false;
  /// Faults to inject; `seed` and `torn_granularity` are overridden by the
  /// harness (granularity must equal page_size — see file comment).
  io::FaultPlan faults{};
};

struct StressResult {
  std::uint64_t ops = 0;              ///< pool-level operations attempted
  std::uint64_t injected_faults = 0;  ///< faults the FaultStore threw
  std::uint64_t backing_calls = 0;    ///< data ops that reached the store
  std::uint64_t surfaced_errors = 0;  ///< IoErrors the workload caught
  std::vector<std::string> failures;  ///< oracle/invariant violations
  io::PoolStats pool;                 ///< pool counters after a managed run

  [[nodiscard]] bool passed() const { return failures.empty(); }
};

/// Byte oracle for one thread's file.  Tracks, per page, the set of values
/// the backing store may legitimately hold given which writes were
/// provably persisted, which may have been dropped by a discard, and which
/// are still pending — see the state rules on each method.
class PageOracle {
 public:
  explicit PageOracle(std::size_t pages) : pages_(pages) {}

  /// A full-page write of value `v` went through the pool (pin +
  /// mark_dirty succeeded).  The pool now holds v; the backing store may
  /// later hold v (flush or eviction write-back) but also still holds
  /// whatever it had — hence accumulate, don't replace.
  void on_write(std::uint64_t page, std::uint8_t v) {
    Page& p = at(page);
    p.written = true;
    p.last = v;
    p.dirty = true;
    p.pool_exact = true;
    p.expect = v;
    p.acceptable.insert(v);
  }

  /// flush_file returned without throwing: every dirty page of the file
  /// was persisted with its current (= last written) bytes, so the backing
  /// value is now known exactly.  Pages already clean (evicted and written
  /// back earlier) also hold `last` — eviction persists current content.
  void on_flush_ok() {
    for (Page& p : pages_) {
      if (p.dirty) {
        p.acceptable.clear();
        p.acceptable.insert(p.last);
        p.dirty = false;
      }
    }
  }

  /// discard_file succeeded: pending writes are gone.  A page whose write
  /// was never provably persisted now reloads from the backing store,
  /// which holds *some* acceptable value — the pool is no longer exact.
  void on_discard() {
    for (Page& p : pages_) {
      if (p.dirty) {
        p.dirty = false;
        p.pool_exact = false;
      }
    }
  }

  /// A pool read of `page` observed `data`.  Checks uniformity and the
  /// expected value (exact or membership).  After a post-discard read the
  /// pool and backing agree on the observed value and nothing is pending,
  /// so the page snaps back to exact.  Returns a failure description or
  /// empty.
  std::string check_read(std::uint64_t page,
                         std::span<const std::byte> data) {
    Page& p = at(page);
    const auto b = static_cast<std::uint8_t>(data[0]);
    for (std::size_t i = 1; i < data.size(); ++i) {
      if (static_cast<std::uint8_t>(data[i]) != b) {
        return "page " + std::to_string(page) + " not uniform: byte " +
               std::to_string(i) + " is " +
               std::to_string(static_cast<int>(data[i])) + " vs " +
               std::to_string(b);
      }
    }
    if (p.pool_exact) {
      if (b != p.expect) {
        return "page " + std::to_string(page) + " read " +
               std::to_string(b) + ", expected exactly " +
               std::to_string(p.expect);
      }
      return {};
    }
    if (!p.acceptable.contains(b)) {
      return "page " + std::to_string(page) + " read " + std::to_string(b) +
             ", not in the acceptable set";
    }
    p.pool_exact = true;
    p.expect = b;
    p.last = b;
    p.acceptable.clear();
    p.acceptable.insert(b);
    return {};
  }

  /// Final byte-exact comparison against the backing store, after faults
  /// were disarmed and a clean flush_all persisted every pending write.
  void final_check(io::BackingStore& store, io::FileId file,
                   std::size_t page_size, const std::string& tag,
                   std::vector<std::string>& failures) const {
    std::vector<std::byte> buf(page_size);
    for (std::uint64_t page = 0; page < pages_.size(); ++page) {
      const Page& p = pages_[page];
      if (!p.written) continue;
      std::fill(buf.begin(), buf.end(), std::byte{0});
      static_cast<void>(store.read(file, page * page_size, buf));
      const auto b = static_cast<std::uint8_t>(buf[0]);
      for (std::size_t i = 1; i < buf.size(); ++i) {
        if (buf[i] != buf[0]) {
          failures.push_back(tag + ": backing page " + std::to_string(page) +
                             " not uniform after final flush");
          break;
        }
      }
      if (p.dirty || p.pool_exact) {
        // Pending writes were persisted by the final clean flush; exact
        // pages were already known — either way the value is pinned down.
        const std::uint8_t want = p.dirty ? p.last : p.expect;
        if (b != want) {
          failures.push_back(tag + ": backing page " + std::to_string(page) +
                             " holds " + std::to_string(b) + ", expected " +
                             std::to_string(want));
        }
      } else if (!p.acceptable.contains(b)) {
        failures.push_back(tag + ": backing page " + std::to_string(page) +
                           " holds " + std::to_string(b) +
                           ", outside the acceptable set");
      }
    }
  }

 private:
  struct Page {
    bool written = false;
    bool dirty = false;       ///< a write may still be unflushed
    bool pool_exact = true;   ///< pool reads must return `expect`
    std::uint8_t last = 0;    ///< last value written through the pool
    std::uint8_t expect = 0;  ///< expected pool byte while pool_exact
    std::set<std::uint8_t> acceptable{0};  ///< possible backing values
  };

  Page& at(std::uint64_t page) { return pages_.at(page); }

  std::vector<Page> pages_;
};

/// Oracle for the shared-file mode: per page, the set of byte values any
/// thread ever wrote (plus 0, the never-written hole value).  Exactness is
/// impossible when flush/discard interleave with other threads' writes, so
/// reads and the final backing scan check uniformity + set membership —
/// still strong enough to catch torn intra-page writes, cross-page mixing
/// and resurrected garbage.  Byte access is token-guarded by the caller;
/// this class only guards its own bookkeeping.
class SharedPageOracle {
 public:
  explicit SharedPageOracle(std::size_t pages) : pages_(pages) {}

  void on_write(std::uint64_t page, std::uint8_t v) {
    std::lock_guard<std::mutex> lock(mutex_);
    Page& p = pages_.at(page);
    p.written = true;
    p.values.insert(v);
  }

  std::string check_read(std::uint64_t page, std::span<const std::byte> data) {
    const auto b = static_cast<std::uint8_t>(data[0]);
    for (std::size_t i = 1; i < data.size(); ++i) {
      if (static_cast<std::uint8_t>(data[i]) != b) {
        return "shared page " + std::to_string(page) +
               " not uniform: byte " + std::to_string(i) + " is " +
               std::to_string(static_cast<int>(data[i])) + " vs " +
               std::to_string(b);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pages_.at(page).values.contains(b)) {
      return "shared page " + std::to_string(page) + " read " +
             std::to_string(b) + ", never written by any thread";
    }
    return {};
  }

  void final_check(io::BackingStore& store, io::FileId file,
                   std::size_t page_size, const std::string& tag,
                   std::vector<std::string>& failures) const {
    std::vector<std::byte> buf(page_size);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t page = 0; page < pages_.size(); ++page) {
      if (!pages_[page].written) continue;
      std::fill(buf.begin(), buf.end(), std::byte{0});
      static_cast<void>(store.read(file, page * page_size, buf));
      const auto b = static_cast<std::uint8_t>(buf[0]);
      for (std::size_t i = 1; i < buf.size(); ++i) {
        if (buf[i] != buf[0]) {
          failures.push_back(tag + ": shared backing page " +
                             std::to_string(page) +
                             " not uniform after final flush");
          break;
        }
      }
      if (!pages_[page].values.contains(b)) {
        failures.push_back(tag + ": shared backing page " +
                           std::to_string(page) + " holds " +
                           std::to_string(b) +
                           ", never written by any thread");
      }
    }
  }

 private:
  struct Page {
    bool written = false;
    std::set<std::uint8_t> values{0};
  };

  mutable std::mutex mutex_;
  std::vector<Page> pages_;
};

/// The end of every run, after its faults were disarmed: a clean flush must
/// persist every pending write, and the pool must pass debug_validate().
inline void flush_and_validate(io::BufferPool& pool,
                               const std::string& seed_tag,
                               std::vector<std::string>& failures) {
  try {
    pool.flush_all();
  } catch (const util::IoError& e) {
    failures.push_back(seed_tag + ": clean final flush threw: " + e.what());
  }
  try {
    pool.debug_validate();
  } catch (const util::IoError& e) {
    failures.push_back(seed_tag + ": " + e.what());
  }
}

/// Runs one seeded stress round over the given backing store (the store is
/// wrapped in a FaultStore internally).  The store must be empty/fresh.
inline StressResult run_stress(io::BackingStore& backing,
                               const StressConfig& config) {
  using io::FaultOp;

  StressResult result;
  io::FaultPlan plan = config.faults;
  plan.seed = config.seed;
  plan.torn_granularity = config.page_size;
  io::FaultStore faults(backing, plan);
  faults.arm(false);  // setup must not fault

  std::vector<io::FileId> files;
  if (config.shared_file) {
    files.push_back(faults.open("stress-shared.bin", true));
  } else {
    files.reserve(static_cast<std::size_t>(config.threads));
    for (int t = 0; t < config.threads; ++t) {
      files.push_back(
          faults.open("stress-" + std::to_string(t) + ".bin", true));
    }
  }

  io::BufferPool pool(
      faults, io::BufferPoolConfig{.page_size = config.page_size,
                                   .capacity_pages = config.capacity_pages,
                                   .shards = config.shards});
  faults.arm(true);

  std::mutex failure_mutex;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> surfaced{0};
  std::vector<PageOracle> oracles(
      static_cast<std::size_t>(config.threads),
      PageOracle(config.pages_per_file));
  SharedPageOracle shared_oracle(config.pages_per_file);
  // Shared mode: per-page try-lock tokens arbitrate byte access, so page
  // bytes are never raced at the user level (TSan stays meaningful) while
  // pins, gathers, flushes and discards of the same page interleave
  // freely across threads.  Additionally, byte WRITERS take `file_rw`
  // shared and flush/discard take it exclusive: a flush write-back reads
  // page bytes outside any pool lock, so overlapping it with a guard
  // writer's mutation of a captured dirty page would be a genuine data
  // race — the reader/writer arrangement the ROADMAP item called for.
  // Pure readers need neither (they race nobody: writers hold the page
  // token, eviction/flush only read alongside them).
  std::vector<std::mutex> page_tokens(
      config.shared_file ? config.pages_per_file : 0);
  std::shared_mutex file_rw;

  // A request span of up to `pages` pages from `first`, clamped to the
  // file: the first cold pin gathers the span's cold pages, and each guard
  // is released before the next pin, as ManagedFile's copy does.
  const auto pin_window = [&](io::FileId file, std::uint64_t first,
                              std::uint64_t pages) {
    const std::uint64_t last =
        std::min(first + pages, std::uint64_t{config.pages_per_file}) - 1;
    for (std::uint64_t p = first; p <= last; ++p) {
      static_cast<void>(pool.pin_span(file, p, last));
    }
  };

  auto shared_worker = [&](int t) {
    const std::string tag =
        "seed=" + std::to_string(config.seed) + " thread=" +
        std::to_string(t) + " (shared)";
    util::Rng rng(util::SplitMix64(config.seed * 0x9e37u + t).next());
    const io::FileId file = files[0];
    std::vector<std::byte> copy(config.page_size);
    std::uint32_t write_counter = 0;
    for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
      const std::uint64_t dice = rng.uniform_u64(100);
      const std::uint64_t page = rng.uniform_u64(config.pages_per_file);
      try {
        if (dice < 60) {
          // Byte access needs the page token; when another thread holds
          // it, turn the op into pin pressure on that very page instead.
          if (page_tokens[page].try_lock()) {
            std::lock_guard<std::mutex> token(page_tokens[page],
                                              std::adopt_lock);
            if (dice < 30) {
              {
                auto guard = pool.pin(file, page);
                std::memcpy(copy.data(), guard.data().data(),
                            config.page_size);
              }
              const std::string err = shared_oracle.check_read(page, copy);
              if (!err.empty()) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                failures.push_back(tag + " op=" + std::to_string(i) + ": " +
                                   err);
              }
            } else {
              const auto v = static_cast<std::uint8_t>(
                  1 + (static_cast<std::uint32_t>(t) * 37 +
                       ++write_counter) %
                          250);
              std::shared_lock<std::shared_mutex> rw(file_rw);
              auto guard = pool.pin(file, page);
              std::memset(guard.data().data(), v, config.page_size);
              guard.mark_dirty(config.page_size);
              shared_oracle.on_write(page, v);
            }
          } else {
            pin_window(file, page, 4);
          }
        } else if (dice < 72) {
          std::unique_lock<std::shared_mutex> rw(file_rw);
          pool.flush_file(file);
        } else if (dice < 76) {
          // May observe a peer's pinned page and throw — that unwinding
          // path is exactly what this mode adds.
          std::unique_lock<std::shared_mutex> rw(file_rw);
          pool.discard_file(file);
        } else if (dice < 92) {
          pin_window(file, page, 8);
        }  // any other roll is a no-op, which keeps each op's share
      } catch (const util::IoError&) {
        surfaced.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  auto worker = [&](int t) {
    const std::string tag =
        "seed=" + std::to_string(config.seed) + " thread=" +
        std::to_string(t);
    util::Rng rng(util::SplitMix64(config.seed * 0x9e37u + t).next());
    PageOracle& oracle = oracles[static_cast<std::size_t>(t)];
    const io::FileId file = files[static_cast<std::size_t>(t)];
    std::vector<std::byte> copy(config.page_size);
    std::uint32_t write_counter = 0;
    for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
      const std::uint64_t dice = rng.uniform_u64(100);
      const std::uint64_t page = rng.uniform_u64(config.pages_per_file);
      try {
        if (dice < 32) {
          // Read + verify one of our own pages.
          {
            auto guard = pool.pin(file, page);
            std::memcpy(copy.data(), guard.data().data(), config.page_size);
          }
          const std::string err = oracle.check_read(page, copy);
          if (!err.empty()) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            failures.push_back(tag + " op=" + std::to_string(i) + ": " +
                               err);
          }
        } else if (dice < 64) {
          // Full-page write of a fresh marker value (never 0 — zero is the
          // hole/never-written marker).
          const auto v = static_cast<std::uint8_t>(
              1 + (static_cast<std::uint32_t>(t) * 37 + ++write_counter) %
                      250);
          auto guard = pool.pin(file, page);
          std::memset(guard.data().data(), v, config.page_size);
          guard.mark_dirty(config.page_size);
          oracle.on_write(page, v);
        } else if (dice < 74) {
          pool.flush_file(file);
          oracle.on_flush_ok();
        } else if (dice < 79) {
          pool.discard_file(file);
          oracle.on_discard();
        } else if (dice < 88) {
          // A request gather over our own file.
          pin_window(file, page, 8);
        } else if (dice < 97 && config.threads > 1) {
          // Seek touches over a foreign file's window: cross-shard and
          // cross-file frame pressure without a pin or byte access.
          const auto other = static_cast<std::size_t>(
              (static_cast<std::uint64_t>(t) + 1 +
               rng.uniform_u64(static_cast<std::uint64_t>(config.threads) -
                               1)) %
              static_cast<std::uint64_t>(config.threads));
          const std::uint64_t end =
              std::min(page + 8, std::uint64_t{config.pages_per_file});
          for (std::uint64_t p = page; p < end; ++p) {
            static_cast<void>(pool.prefetch(files[other], p));
          }
        }  // any other roll is a no-op, which keeps each op's share
      } catch (const util::IoError&) {
        // An injected (or induced) failure surfaced through the pool API.
        // That is the point of the exercise; the oracle state machine is
        // exception-aware (a throwing op changes nothing it would track).
        surfaced.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config.threads));
    for (int t = 0; t < config.threads; ++t) {
      if (config.shared_file) {
        threads.emplace_back(shared_worker, t);
      } else {
        threads.emplace_back(worker, t);
      }
    }
    for (auto& th : threads) th.join();
  }

  result.ops =
      static_cast<std::uint64_t>(config.threads) * config.ops_per_thread;
  const io::FaultStats fstats = faults.stats();
  result.injected_faults = fstats.total_faults();
  result.backing_calls = fstats.total_calls();
  result.surfaced_errors = surfaced.load();
  result.failures = std::move(failures);

  // Quiesce, then validate: faults off, everything pending persisted.
  faults.arm(false);
  const std::string seed_tag = "seed=" + std::to_string(config.seed);
  flush_and_validate(pool, seed_tag, result.failures);
  if (config.shared_file) {
    shared_oracle.final_check(backing, files[0], config.page_size,
                              seed_tag + " (shared)", result.failures);
  } else {
    for (int t = 0; t < config.threads; ++t) {
      oracles[static_cast<std::size_t>(t)].final_check(
          backing, files[static_cast<std::size_t>(t)], config.page_size,
          seed_tag + " thread=" + std::to_string(t), result.failures);
    }
  }
  return result;
}

/// Byte oracle for one file accessed through ManagedFile: per byte, the set
/// of values the managed view may hold.  A successful write pins its bytes
/// down; a write that threw may have landed on any prefix of its pages, so
/// each of its bytes may hold the old or the new value; a read pins every
/// byte it saw (the managed view only changes by this thread's writes:
/// failed write-backs keep their pages dirty and resident).
class ByteOracle {
 public:
  explicit ByteOracle(std::span<const std::byte> initial)
      : maybe_(initial.size()) {
    for (std::size_t i = 0; i < initial.size(); ++i) {
      maybe_[i].set(static_cast<std::uint8_t>(initial[i]));
    }
  }

  void on_write(std::uint64_t offset, std::span<const std::byte> data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      maybe_[offset + i].reset();
      maybe_[offset + i].set(static_cast<std::uint8_t>(data[i]));
    }
  }

  void on_failed_write(std::uint64_t offset,
                       std::span<const std::byte> data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      maybe_[offset + i].set(static_cast<std::uint8_t>(data[i]));
    }
  }

  /// Checks bytes a read returned from `offset`; returns a failure
  /// description or empty.
  std::string check_read(std::uint64_t offset,
                         std::span<const std::byte> data) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto b = static_cast<std::uint8_t>(data[i]);
      auto& maybe = maybe_[offset + i];
      if (!maybe.test(b)) {
        return "byte " + std::to_string(offset + i) + " read " +
               std::to_string(b) + ", never written there";
      }
      maybe.reset();
      maybe.set(b);
    }
    return {};
  }

  /// Compares the backing file with the oracle after faults were disarmed
  /// and a clean flush persisted every pending write.
  void final_check(io::BackingStore& store, io::FileId file,
                   const std::string& tag,
                   std::vector<std::string>& failures) const {
    std::vector<std::byte> buf(maybe_.size());
    const std::size_t got = store.read(file, 0, buf);
    if (got != buf.size()) {
      failures.push_back(tag + ": backing file is " + std::to_string(got) +
                         " bytes, expected " + std::to_string(buf.size()));
      return;
    }
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (!maybe_[i].test(static_cast<std::uint8_t>(buf[i]))) {
        failures.push_back(tag + ": backing byte " + std::to_string(i) +
                           " holds " +
                           std::to_string(static_cast<int>(buf[i])) +
                           ", never written there");
        return;
      }
    }
  }

 private:
  std::vector<std::bitset<256>> maybe_;
};

/// Runs one seeded managed-path round: each thread owns one file of
/// `pages_per_file` pages in one ManagedFileSystem (page_size, a pool of
/// capacity_pages over `shards`) whose store is
/// `backing` wrapped in a FaultStore, and runs a mix of random and
/// sequential reads and unaligned writes of up to `span_pages` pages, flushes,
/// close/reopen and drop_caches.  Files keep their size, so reads know
/// how many bytes to expect.  A read or write that throws must leave the
/// position where it was.  After the run: faults off, a clean flush_all,
/// debug_validate(), and the backing bytes against each ByteOracle.
inline StressResult run_managed_stress(io::BackingStore& backing,
                                       const StressConfig& config) {
  StressResult result;
  io::FaultPlan plan = config.faults;
  plan.seed = config.seed;
  auto owned_faults = std::make_unique<io::FaultStore>(backing, plan);
  io::FaultStore& faults = *owned_faults;
  faults.arm(false);  // setup must not fault
  io::ManagedFsOptions options;
  options.page_size = config.page_size;
  options.pool_pages = config.capacity_pages;
  options.pool_shards = config.shards;
  io::ManagedFileSystem fs(std::move(owned_faults), options);

  const std::size_t file_bytes = config.pages_per_file * config.page_size;
  std::vector<ByteOracle> oracles;
  std::vector<io::ManagedFile> files;
  for (int t = 0; t < config.threads; ++t) {
    std::vector<std::byte> initial(file_bytes);
    for (std::size_t i = 0; i < file_bytes; ++i) {
      initial[i] = static_cast<std::byte>((i * 7 + i / 251 + t) % 256);
    }
    files.push_back(fs.open("managed-" + std::to_string(t) + ".bin",
                            io::OpenMode::kTruncate));
    files.back().write(initial);
    oracles.emplace_back(initial);
  }
  fs.drop_caches();
  faults.arm(true);

  std::mutex failure_mutex;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> surfaced{0};
  // drop_caches() flushes every thread's file, and a flush write-back reads
  // page bytes outside any pool lock: overlapping it with a write into one
  // of those pages is a data race (see BufferPool).  Writers therefore hold
  // `writers` shared and drop_caches holds it exclusive.  A thread's own
  // flush_file and close need no lock: only that thread writes its file.
  std::shared_mutex writers;
  // Reads, writes and seeks that returned normally, per thread: IoStats
  // must count exactly these, whichever of them its sampler timed.
  struct OpTally {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t seeks = 0;
  };
  std::vector<OpTally> tallies(static_cast<std::size_t>(config.threads));
  const io::IoStats& io_stats = fs.stats();
  const auto op_count = [&](io::IoOp op) {
    return io_stats.op_snapshot(op).count;
  };
  const std::uint64_t reads_before = op_count(io::IoOp::kRead);
  const std::uint64_t writes_before = op_count(io::IoOp::kWrite);
  const std::uint64_t seeks_before = op_count(io::IoOp::kSeek);

  auto worker = [&](int t) {
    const std::string tag = "seed=" + std::to_string(config.seed) +
                            " thread=" + std::to_string(t) + " (managed)";
    util::Rng rng(util::SplitMix64(config.seed * 0x9e37u + t).next());
    const auto idx = static_cast<std::size_t>(t);
    const std::string name = "managed-" + std::to_string(t) + ".bin";
    ByteOracle& oracle = oracles[idx];
    OpTally& tally = tallies[idx];
    std::vector<std::byte> buf(config.span_pages * config.page_size);
    std::uint8_t marker = 0;
    auto fail = [&](std::uint64_t op, const std::string& what) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      failures.push_back(tag + " op=" + std::to_string(op) + ": " + what);
    };
    for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
      io::ManagedFile& f = files[idx];
      const std::uint64_t dice = rng.uniform_u64(100);
      const std::uint64_t target = rng.uniform_u64(file_bytes);
      const std::size_t len = 1 + rng.uniform_u64(buf.size());
      try {
        if (dice < 50) {
          // Random (seek first) or sequential (carry on) read.
          if (dice < 35) {
            f.seek(target);
            tally.seeks++;
          }
          const std::uint64_t pos = f.position();
          const std::span<std::byte> out(buf.data(), len);
          std::size_t got = 0;
          try {
            got = f.read(out);
          } catch (const util::IoError&) {
            if (f.position() != pos) fail(i, "failed read moved position");
            throw;
          }
          tally.reads++;
          const std::size_t want = static_cast<std::size_t>(std::min<
              std::uint64_t>(len, pos < file_bytes ? file_bytes - pos : 0));
          if (got != want) {
            fail(i, "read returned " + std::to_string(got) + " of " +
                        std::to_string(want) + " bytes");
          } else if (const std::string err =
                         oracle.check_read(pos, out.first(got));
                     !err.empty()) {
            fail(i, err);
          }
        } else if (dice < 80) {
          // Unaligned multi-page write inside the file.
          f.seek(target);
          tally.seeks++;
          const std::size_t n = static_cast<std::size_t>(
              std::min<std::uint64_t>(len, file_bytes - target));
          const std::span<const std::byte> data(buf.data(), n);
          marker++;
          for (std::size_t k = 0; k < n; ++k) {
            buf[k] = static_cast<std::byte>(marker + k * 13);
          }
          try {
            std::shared_lock<std::shared_mutex> rw(writers);
            f.write(data);
          } catch (const util::IoError&) {
            oracle.on_failed_write(target, data);
            if (f.position() != target) fail(i, "failed write moved position");
            throw;
          }
          tally.writes++;
          oracle.on_write(target, data);
          if (f.position() != target + n) fail(i, "write left bad position");
        } else if (dice < 88) {
          fs.pool().flush_file(f.id());
        } else if (dice < 94) {
          f.close();  // flushes; a failed flush leaves the file open
          files[idx] = fs.open(name, io::OpenMode::kReadWrite);
        } else {
          std::unique_lock<std::shared_mutex> rw(writers);
          fs.drop_caches();
        }
      } catch (const util::IoError&) {
        surfaced.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config.threads));
    for (int t = 0; t < config.threads; ++t) threads.emplace_back(worker, t);
    for (auto& th : threads) th.join();
  }

  result.ops =
      static_cast<std::uint64_t>(config.threads) * config.ops_per_thread;
  const io::FaultStats fstats = faults.stats();
  result.injected_faults = fstats.total_faults();
  result.backing_calls = fstats.total_calls();
  result.surfaced_errors = surfaced.load();
  result.failures = std::move(failures);
  result.pool = fs.pool().stats();

  const std::string seed_tag = "seed=" + std::to_string(config.seed);
  OpTally total;
  for (const OpTally& t : tallies) {
    total.reads += t.reads;
    total.writes += t.writes;
    total.seeks += t.seeks;
  }
  const auto check_count = [&](io::IoOp op, std::uint64_t before,
                               std::uint64_t want) {
    const std::uint64_t got = op_count(op) - before;
    if (got != want) {
      result.failures.push_back(
          seed_tag + ": IoStats counted " + std::to_string(got) + " " +
          std::string(io::io_op_name(op)) + " ops, the threads made " +
          std::to_string(want));
    }
  };
  check_count(io::IoOp::kRead, reads_before, total.reads);
  check_count(io::IoOp::kWrite, writes_before, total.writes);
  check_count(io::IoOp::kSeek, seeks_before, total.seeks);

  faults.arm(false);
  flush_and_validate(fs.pool(), seed_tag, result.failures);
  for (int t = 0; t < config.threads; ++t) {
    const auto idx = static_cast<std::size_t>(t);
    oracles[idx].final_check(
        backing, files[idx].id(),
        seed_tag + " thread=" + std::to_string(t) + " (managed)",
        result.failures);
  }
  return result;
}

}  // namespace clio::test_support
