#include "io/managed_file.hpp"

#include <algorithm>
#include <cstring>

#include "io/store_decorator.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace clio::io {

using util::check;
using util::IoError;
using util::Stopwatch;

ManagedFileSystem::ManagedFileSystem(std::unique_ptr<BackingStore> store,
                                     ManagedFsOptions options)
    : store_(std::move(store)), options_(options) {
  check<util::ConfigError>(store_ != nullptr,
                           "ManagedFileSystem: null backing store");
  // One helper builds and binds the whole decorator chain: the pool talks
  // to a VectoredStatsStore (coalescing ratios land in the op table as
  // IoOp::kReadv / kWritev), and bind_chain walks every StoreDecorator the
  // caller stacked below (RetryingStore, FaultStore, ...) so their
  // resilience counters report into this filesystem's stats too.
  pool_store_ = std::make_unique<VectoredStatsStore>(*store_);
  StoreDecorator::bind_chain(*pool_store_, &stats_);
  pool_ = std::make_unique<BufferPool>(*pool_store_, pool_config());
}

ManagedFileSystem::~ManagedFileSystem() = default;

BufferPoolConfig ManagedFileSystem::pool_config() const {
  return BufferPoolConfig{.page_size = options_.page_size,
                          .capacity_pages = options_.pool_pages,
                          .shards = options_.pool_shards};
}

ManagedFile ManagedFileSystem::open(const std::string& name, OpenMode mode) {
  Stopwatch watch;
  const bool create = (mode == OpenMode::kCreate || mode == OpenMode::kTruncate);
  if (!create && !store_->exists(name)) {
    throw IoError("ManagedFileSystem: no such file '" + name + "'");
  }
  const FileId id = store_->open(name, create);
  if (mode == OpenMode::kTruncate) {
    pool_->discard_file(id);
    store_->truncate(id, 0);
  }
  ManagedFile file(this, id, name);
  const double ms = watch.elapsed_ms();
  stats_.record(IoOp::kOpen, 0, ms);
  return file;
}

bool ManagedFileSystem::exists(const std::string& name) const {
  return store_->exists(name);
}

void ManagedFileSystem::remove(const std::string& name) {
  // Drop any cached pages first: the id may be re-bound to a new file of
  // the same name later, and stale pages must not leak into it.
  const FileId id = store_->lookup(name);
  if (id != kInvalidFile) pool_->discard_file(id);
  store_->remove(name);
}

void ManagedFileSystem::drop_caches() {
  // Flush, then evict in place.  The pool object must survive: replacing
  // it (the old implementation) frees frames that concurrent requests may
  // still hold PageGuards into — make_cold() races live traffic by design.
  pool_->flush_all();
  pool_->evict_clean();
}

// --------------------------------------------------------------- file ----

ManagedFile::ManagedFile(ManagedFileSystem* fs, FileId id, std::string name)
    : fs_(fs), id_(id), name_(std::move(name)) {}

ManagedFile::ManagedFile(ManagedFile&& other) noexcept
    : fs_(other.fs_),
      id_(other.id_),
      name_(std::move(other.name_)),
      position_(other.position_) {
  other.fs_ = nullptr;
  other.id_ = kInvalidFile;
}

ManagedFile& ManagedFile::operator=(ManagedFile&& other) noexcept {
  if (this != &other) {
    if (fs_ != nullptr) {
      try {
        close();
      } catch (...) {
      }
    }
    fs_ = other.fs_;
    id_ = other.id_;
    name_ = std::move(other.name_);
    position_ = other.position_;
    other.fs_ = nullptr;
    other.id_ = kInvalidFile;
  }
  return *this;
}

ManagedFile::~ManagedFile() {
  if (fs_ != nullptr) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; explicit close() reports errors.
    }
  }
}

std::uint64_t ManagedFile::size() const {
  check<IoError>(fs_ != nullptr, "ManagedFile: closed");
  return fs_->pool_->logical_file_size(id_);
}

std::size_t ManagedFile::read(std::span<std::byte> out) {
  check<IoError>(fs_ != nullptr, "ManagedFile: read on closed file");
  Stopwatch watch;
  const std::size_t page_size = fs_->pool_->page_size();
  const std::uint64_t file_size = size();
  std::size_t total = 0;
  if (position_ < file_size && !out.empty()) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), file_size - position_));
    const std::uint64_t first_page = position_ / page_size;
    const std::uint64_t last_page = (position_ + want - 1) / page_size;
    if (last_page - first_page + 1 >= BufferPool::kCoalescePages) {
      // A full backing transfer or more: staging it through frames would
      // evict as many pages as it reads, then copy each one out again.
      fs_->pool_->read_around(id_, position_, out.first(want));
      total = want;
    } else {
      while (total < want) {
        const std::uint64_t pos = position_ + total;
        const std::uint64_t page = pos / page_size;
        const std::size_t within = static_cast<std::size_t>(pos % page_size);
        const std::size_t take = std::min(want - total, page_size - within);
        auto guard = fs_->pool_->pin_span(id_, page, last_page);
        std::memcpy(out.data() + total, guard.data().data() + within, take);
        total += take;
      }
    }
    position_ += total;
  }
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kRead, total, ms);
  return total;
}

void ManagedFile::read_exact(std::span<std::byte> out) {
  if (read(out) != out.size()) {
    throw IoError("ManagedFile: short read from '" + name_ + "'");
  }
}

std::size_t ManagedFile::write(std::span<const std::byte> data) {
  check<IoError>(fs_ != nullptr, "ManagedFile: write on closed file");
  Stopwatch watch;
  const std::size_t page_size = fs_->pool_->page_size();
  std::size_t total = 0;
  if (!data.empty()) {
    const std::uint64_t first_page = position_ / page_size;
    const std::uint64_t last_page = (position_ + data.size() - 1) / page_size;
    if (last_page - first_page + 1 >= BufferPool::kCoalescePages) {
      // A full backing transfer or more: staging it through frames would
      // load and evict as many pages as it writes, then leave them dirty.
      fs_->pool_->write_around(id_, position_, data);
      total = data.size();
    } else {
      while (total < data.size()) {
        const std::uint64_t pos = position_ + total;
        const std::uint64_t page = pos / page_size;
        const std::size_t within = static_cast<std::size_t>(pos % page_size);
        const std::size_t take =
            std::min(data.size() - total, page_size - within);
        auto guard = fs_->pool_->pin_span(id_, page, last_page);
        std::memcpy(guard.data().data() + within, data.data() + total, take);
        guard.mark_dirty(within + take);
        total += take;
      }
    }
    position_ += total;
  }
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kWrite, total, ms);
  return total;
}

void ManagedFile::seek(std::uint64_t pos) {
  check<IoError>(fs_ != nullptr, "ManagedFile: seek on closed file");
  Stopwatch watch;
  if (const std::uint64_t file_size = size(); file_size > 0) {
    const std::size_t page_size = fs_->pool_->page_size();
    const std::uint64_t last_page = (file_size - 1) / page_size;
    const std::uint64_t page = std::min(pos / page_size, last_page);
    // Touching the target page is what makes a cold seek expensive and a
    // warm seek nearly free — the Table 3/4 effect.
    fs_->pool_->prefetch(id_, page);
  }
  position_ = pos;
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kSeek, pos, ms);
}

void ManagedFile::close() {
  if (fs_ == nullptr) return;
  Stopwatch watch;
  fs_->pool_->flush_file(id_);
  fs_->store_->close(id_);
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kClose, 0, ms);
  fs_ = nullptr;
  id_ = kInvalidFile;
}

}  // namespace clio::io
