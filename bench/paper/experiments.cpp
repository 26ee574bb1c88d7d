#include <algorithm>
#include <mutex>
#include <utility>
#include <unordered_map>

#include "apps/cholesky/numeric.hpp"
#include "apps/dmine/apriori.hpp"
#include "apps/lu/ooc_lu.hpp"
#include "apps/pgrep/pgrep.hpp"
#include "apps/titan/titan_db.hpp"
#include "io/store_decorator.hpp"
#include "model/qcrd.hpp"
#include "paper/paper.hpp"
#include "sim/real_driver.hpp"
#include "sim/speedup.hpp"
#include "trace/replayer.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace clio::paper {
namespace {

namespace fs = std::filesystem;
using trace::TraceOp;

/// Every number the paper prints that a row here measures, in ms unless
/// the quantity names another unit.  Table 3's seek range is over the six
/// seeks it lists; Table 5 gives only the range of its reads and writes.
struct PaperValue {
  std::string_view experiment;
  std::string_view quantity;
  double value;
};
constexpr PaperValue kPaper[] = {
    {"table1", "read_ms", 0.0025},  {"table1", "open_ms", 0.0006},
    {"table1", "close_ms", 0.0072}, {"table1", "seek_ms", 7.88e-05},
    {"table2", "read_ms", 0.002},   {"table2", "open_ms", 0.0005},
    {"table2", "close_ms", 0.005},
    {"table3", "open_ms", 0.0006},  {"table3", "close_ms", 0.4566},
    {"table3", "listed seek min_ms", 7.27e-05},
    {"table3", "listed seek max_ms", 2e-04},
    {"table4", "open_ms", 0.00067}, {"table4", "close_ms", 0.0071},
    {"table5", "read min_ms", 1.68},  {"table5", "read max_ms", 2.23},
    {"table5", "write min_ms", 2.40}, {"table5", "write max_ms", 2.85},
    {"table6", "read_ms trial 1", 9.0181},
    {"table6", "read_ms trial 2", 6.7331},
    {"table6", "read_ms trial 3", 6.5070},
    {"table6", "read_ms trial 4", 7.4598},
    {"table6", "read_ms trial 5", 5.9489},
    {"table6", "read_ms trial 6", 3.2441},
};

constexpr const char* kSample = "sample.bin";

/// Counts the backing calls behind managed open and close.  A reopen is an
/// open of a file with no handle open: RealFileStore, built without an
/// idle descriptor cache, closes the descriptor at a file's last close, so
/// each reopen is one open(2) and each last close one close(2).
class CountingStore final : public io::StoreDecorator {
 public:
  struct Calls {
    std::uint64_t opens = 0;
    std::uint64_t reopens = 0;
    std::uint64_t exists = 0;
    std::uint64_t closes = 0;
  };

  using StoreDecorator::StoreDecorator;

  io::FileId open(const std::string& name, bool create) override {
    const io::FileId id = StoreDecorator::open(name, create);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++calls_.opens;
    if (refs_[id]++ == 0) ++calls_.reopens;
    return id;
  }
  void close(io::FileId id) override {
    StoreDecorator::close(id);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++calls_.closes;
    --refs_[id];
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++calls_.exists;
    }
    return StoreDecorator::exists(name);
  }

  /// The calls since the last take().
  Calls take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(calls_, Calls{});
  }

 private:
  mutable std::mutex mutex_;
  mutable Calls calls_;
  std::unordered_map<io::FileId, std::uint32_t> refs_;
};

/// A managed file system over `workdir` holding the sample file, as the
/// paper replays: "our simulator reads each trace file and performs the
/// I/O operations on a local disk".
struct TraceEnv {
  TraceEnv(const fs::path& workdir, std::uint64_t sample_bytes) {
    fs::create_directories(workdir);
    util::create_sample_file(workdir / kSample, sample_bytes);
    auto counting = std::make_unique<CountingStore>(
        std::make_unique<io::RealFileStore>(workdir));
    store = counting.get();
    fs = std::make_unique<io::ManagedFileSystem>(std::move(counting));
  }

  /// Replays `trace` and appends, under `prefix`, the mean ms and count of
  /// each op class it issued, the backing calls behind its opens and
  /// closes, the pages it missed and the pages its seeks loaded.
  trace::ReplayResult replay(Rows& rows, std::string_view experiment,
                             const trace::TraceFile& trace,
                             const std::string& prefix = "") {
    store->take();
    const io::PoolStats before = fs->pool().stats();
    auto result = trace::TraceReplayer(*fs).replay(trace);
    const io::PoolStats after = fs->pool().stats();
    const CountingStore::Calls calls = store->take();
    for (const auto& [op, name] :
         {std::pair{TraceOp::kOpen, "open"}, {TraceOp::kClose, "close"},
          {TraceOp::kRead, "read"}, {TraceOp::kWrite, "write"},
          {TraceOp::kSeek, "seek"}}) {
      const auto& stats = result.op(op);
      if (stats.count() == 0) continue;
      add(rows, experiment, prefix + name + "_ms", stats.mean());
      add(rows, experiment, prefix + name + " count",
          static_cast<double>(stats.count()));
    }
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    add(rows, experiment, prefix + "store opens", count(calls.opens));
    add(rows, experiment, prefix + "store reopens", count(calls.reopens));
    add(rows, experiment, prefix + "store exists calls", count(calls.exists));
    add(rows, experiment, prefix + "store closes", count(calls.closes));
    add(rows, experiment, prefix + "flush write calls",
        count(after.flush_write_calls - before.flush_write_calls));
    add(rows, experiment, prefix + "page misses",
        count(after.misses - before.misses));
    add(rows, experiment, prefix + "seek page loads",
        count(after.prefetches - before.prefetches));
    return result;
  }

  /// Drops the pool's pages first, as the paper replays each trace cold.
  trace::ReplayResult replay_cold(Rows& rows, std::string_view experiment,
                                  const trace::TraceFile& trace) {
    fs->drop_caches();
    return replay(rows, experiment, trace);
  }

  CountingStore* store = nullptr;
  std::unique_ptr<io::ManagedFileSystem> fs;
};

}  // namespace

void add(Rows& rows, std::string_view experiment, std::string quantity,
         double measured, double paper) {
  if (std::isnan(paper)) {
    for (const PaperValue& p : kPaper) {
      if (p.experiment == experiment && p.quantity == quantity) {
        paper = p.value;
      }
    }
  }
  rows.push_back(
      Row{std::string(experiment), std::move(quantity), measured, paper});
}

const Row& find(const Rows& rows, std::string_view quantity) {
  const auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
    return r.quantity == quantity;
  });
  util::check<util::ClioError>(
      it != rows.end(), "paper: no row '" + std::string(quantity) + "'");
  return *it;
}

Rows table1(const fs::path& workdir, std::uint64_t sample_bytes) {
  TraceEnv env(workdir, sample_bytes);
  // The database is generated outside the capture of interest.
  apps::TraceCapturingFs setup(*env.fs, kSample);
  apps::dmine::StoreConfig store_config;
  store_config.num_transactions = 30000;
  store_config.num_items = 300;
  store_config.planted = {{3, 5, 9}, {40, 41}};
  apps::dmine::TransactionStore::generate(setup, "retail.db", store_config);

  apps::TraceCapturingFs capture(*env.fs, kSample);
  const apps::dmine::TransactionStore store(capture, "retail.db");
  static_cast<void>(apps::dmine::Apriori(apps::dmine::MiningConfig{
      .min_support = 0.05, .min_confidence = 0.6, .max_itemset_size = 3})
                        .run(store));
  Rows rows;
  const auto replay = env.replay_cold(rows, "table1", capture.finish());
  add(rows, "table1", "request bytes",
      static_cast<double>(replay.bytes_read) /
          static_cast<double>(replay.op(TraceOp::kRead).count()));
  return rows;
}

Rows table2(const fs::path& workdir, std::uint64_t sample_bytes) {
  TraceEnv env(workdir, sample_bytes);
  apps::TraceCapturingFs setup(*env.fs, kSample);
  apps::titan::RasterConfig raster;
  raster.width_tiles = 24;
  raster.height_tiles = 24;
  raster.tile_size = 96;  // 18 KiB tiles, AVHRR-block-sized
  apps::titan::RasterStore::generate(setup, "world.rst", raster);

  apps::TraceCapturingFs capture(*env.fs, kSample);
  apps::titan::RasterStore store(capture, "world.rst");
  apps::titan::TitanDb db(store);
  const auto workload = db.make_workload(40, /*seed=*/11);
  for (const auto& query : workload) static_cast<void>(db.range_query(query));
  const double query_bytes =
      static_cast<double>(store.tiles_read() * store.tile_bytes()) /
      static_cast<double>(workload.size());
  store.close();
  Rows rows;
  env.replay_cold(rows, "table2", capture.finish());
  add(rows, "table2", "bytes per query", query_bytes);
  return rows;
}

Rows table3(const fs::path& workdir, std::uint64_t sample_bytes) {
  TraceEnv env(workdir, sample_bytes);
  // n = 2048 doubles in 32-column panels: 512 KiB panels at offsets up to
  // 32 MiB, the paper's 60-66 MB offsets at half scale.  The schedule is
  // the blocked left-looking kernel's, checked against it in
  // tests/apps/lu_test.cpp.
  const auto trace = apps::lu::lu_trace_schedule(2048, 32, kSample);
  Rows rows;
  const auto cold = env.replay_cold(rows, "table3", trace);
  // The last six seeks, where the offsets are largest, as the paper lists.
  std::vector<const trace::ReplayRow*> seeks;
  for (const auto& row : cold.rows) {
    if (row.op == TraceOp::kSeek) seeks.push_back(&row);
  }
  const std::size_t first =
      seeks.size() - std::min<std::size_t>(6, seeks.size());
  double lo = INFINITY;
  double hi = 0.0;
  for (std::size_t i = first; i < seeks.size(); ++i) {
    add(rows, "table3", "seek_ms @" + std::to_string(seeks[i]->offset),
        seeks[i]->ms);
    lo = std::min(lo, seeks[i]->ms);
    hi = std::max(hi, seeks[i]->ms);
  }
  add(rows, "table3", "listed seek min_ms", lo);
  add(rows, "table3", "listed seek max_ms", hi);
  env.replay(rows, "table3", trace, "warm ");
  return rows;
}

Rows table4(const fs::path& workdir, std::uint64_t sample_bytes) {
  TraceEnv env(workdir, sample_bytes);
  apps::TraceCapturingFs capture(*env.fs, kSample);
  const auto a = apps::cholesky::make_spd(/*n=*/1500, /*extra_per_col=*/4,
                                          /*seed=*/2005);
  const auto symbolic = apps::cholesky::symbolic_factor(a);
  apps::cholesky::OocCholesky(a, symbolic).factor(capture, "factor.bin");
  const auto trace = capture.finish();
  Rows rows;
  const auto cold = env.replay_cold(rows, "table4", trace);
  // Sixteen seek+read pairs spread through the run, so request sizes vary
  // as in the paper's listing.
  std::vector<std::size_t> pairs;
  for (std::size_t i = 0; i + 1 < cold.rows.size(); ++i) {
    if (cold.rows[i].op == TraceOp::kSeek &&
        cold.rows[i + 1].op == TraceOp::kRead) {
      pairs.push_back(i);
    }
  }
  const std::size_t stride = std::max<std::size_t>(1, pairs.size() / 16);
  for (std::size_t n = 0; n < 16 && n * stride < pairs.size(); ++n) {
    const auto& seek = cold.rows[pairs[n * stride]];
    const auto& read = cold.rows[pairs[n * stride] + 1];
    const std::string label = " #" + std::to_string(n + 1) + " (" +
                              std::to_string(read.length) + " B)";
    add(rows, "table4", "seek_ms" + label, seek.ms);
    add(rows, "table4", "read_ms" + label, read.ms);
  }
  env.replay(rows, "table4", trace, "warm ");
  return rows;
}

Rows pgrep(const fs::path& workdir, std::uint64_t sample_bytes) {
  TraceEnv env(workdir, sample_bytes);
  apps::TraceCapturingFs setup(*env.fs, kSample);
  apps::pgrep::CorpusConfig corpus;
  corpus.size_bytes = 8ULL << 20;
  corpus.pattern = "schroedinger";
  corpus.exact_occurrences = 40;
  corpus.fuzzy_occurrences = 20;
  apps::pgrep::generate_corpus(setup, "corpus.txt", corpus);

  apps::TraceCapturingFs capture(*env.fs, kSample);
  const auto matches =
      apps::pgrep::ParallelGrep(
          "schroedinger",
          apps::pgrep::PgrepConfig{.max_errors = 1, .num_workers = 4})
          .search(capture, "corpus.txt");
  Rows rows;
  env.replay_cold(rows, "pgrep", capture.finish());
  add(rows, "pgrep", "matches", static_cast<double>(matches.match_ends.size()));
  return rows;
}

Rows qcrd(const fs::path& workdir, double timebase_sec) {
  const auto app = model::make_qcrd();
  sim::RealDriverOptions options;
  options.workdir = workdir;
  const auto run = sim::RealExecutionDriver(options).run(app, timebase_sec);
  const auto model = app.per_program_requirements(timebase_sec);

  // Figures 2 and 3 lay out the application's bar, then each program's.
  struct Bar {
    std::string name;
    double cpu_s = 0.0;
    double io_s = 0.0;
    double model_cpu_s = 0.0;
    double model_io_s = 0.0;
  };
  std::vector<Bar> bars{Bar{"Application"}};
  for (std::size_t i = 0; i < run.programs.size(); ++i) {
    const Bar bar{run.programs[i].name, run.programs[i].cpu_ms / 1e3,
                  run.programs[i].io_ms / 1e3, model[i].cpu, model[i].disk};
    bars[0].cpu_s += bar.cpu_s;
    bars[0].io_s += bar.io_s;
    bars[0].model_cpu_s += bar.model_cpu_s;
    bars[0].model_io_s += bar.model_io_s;
    bars.push_back(bar);
  }
  const auto pct = [](double part, double other) {
    return part + other > 0 ? 100.0 * part / (part + other) : 0.0;
  };
  Rows rows;
  for (const Bar& b : bars) {
    add(rows, "fig2", b.name + " cpu_s", b.cpu_s, b.model_cpu_s);
    add(rows, "fig2", b.name + " io_s", b.io_s, b.model_io_s);
  }
  add(rows, "fig2", "calibrated disk MB/s", run.disk_mb_s);
  for (const Bar& b : bars) {
    add(rows, "fig3", b.name + " cpu_pct", pct(b.cpu_s, b.io_s),
        pct(b.model_cpu_s, b.model_io_s));
    add(rows, "fig3", b.name + " io_pct", pct(b.io_s, b.cpu_s),
        pct(b.model_io_s, b.model_cpu_s));
  }
  return rows;
}

Rows fig4() {
  Rows rows;
  for (const auto& p : sim::sweep_disks(model::make_qcrd(), {},
                                        {2, 4, 8, 16, 32}, 1.0)) {
    add(rows, "fig4", "speedup @" + std::to_string(p.value) + " disks",
        p.speedup);
  }
  return rows;
}

Rows fig5() {
  Rows rows;
  for (const auto& p : sim::sweep_cpus(model::make_qcrd(), {},
                                       {2, 4, 8, 16, 32}, 1.0)) {
    add(rows, "fig5", "speedup @" + std::to_string(p.value) + " CPUs",
        p.speedup);
  }
  return rows;
}

}  // namespace clio::paper
