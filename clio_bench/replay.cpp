// Trace-replay workloads (replay_panels, replay_columns): the paper's
// trace-driven benchmark.  Application traces are generated or captured in
// setup and replayed against a sample file, in alternating passes, by
// TraceReplayer through the library's file system (each replay starting
// from a dropped pool) and by the native reference on file descriptors
// (native.hpp).  Passes repeat until the measured time is spent; every
// replay must move exactly the records and bytes its trace describes, and
// the unmeasured warm-up pass also checks every byte the library reads.
#include <string>
#include <vector>

#include "apps/cholesky/numeric.hpp"
#include "apps/dmine/apriori.hpp"
#include "apps/lu/ooc_lu.hpp"
#include "apps/titan/titan_db.hpp"
#include "harness.hpp"
#include "io/file_store.hpp"
#include "native.hpp"
#include "trace/replayer.hpp"
#include "util/fs.hpp"

namespace clio::bench {
namespace {

constexpr const char* kSample = "sample.bin";
constexpr std::size_t kPoolPages = 4096;  // 16 MiB
// LU at half the paper's offsets: 64 panels of 512 KiB, 1.09 GB read and
// 34 MB written per pass, 4,290 records.
constexpr std::size_t kLuN = 2048;
constexpr std::size_t kLuPanel = 32;
// Cholesky sized so a setup build takes well under a second, which leaves
// room for several builds per run, and a pass replays ~170,000 records, so
// a run holds ~40 pairs of passes.
constexpr std::size_t kCholeskyN = 500;

struct ReplayTrace {
  std::string app;
  trace::TraceFile trace;
  std::uint64_t records = 0;  ///< replayed operations (counts expanded)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

struct ReplayState {
  std::filesystem::path dir;  ///< holds the sample file
  std::unique_ptr<io::ManagedFileSystem> fs;
  std::vector<ReplayTrace> traces;
  std::uint64_t sample_bytes = 0;
};

io::ManagedFsOptions fs_options() {
  io::ManagedFsOptions options;
  options.pool_pages = kPoolPages;
  return options;
}

trace::TraceFile capture_cholesky(io::ManagedFileSystem& fs,
                                  std::uint64_t seed) {
  apps::TraceCapturingFs capture(fs, kSample);
  const auto a = apps::cholesky::make_spd(kCholeskyN, /*extra_per_col=*/4,
                                          seed);
  const auto symbolic = apps::cholesky::symbolic_factor(a);
  const apps::cholesky::OocCholesky chol(a, symbolic);
  (void)chol.factor(capture, "factor.bin");
  return capture.finish();
}

trace::TraceFile capture_titan(io::ManagedFileSystem& fs, std::uint64_t seed) {
  apps::TraceCapturingFs setup(fs, kSample);
  apps::titan::RasterConfig raster;
  raster.width_tiles = 16;
  raster.height_tiles = 16;
  raster.tile_size = 96;  // 18 KiB tiles, AVHRR-block-sized
  raster.seed = seed;
  apps::titan::RasterStore::generate(setup, "world.rst", raster);
  apps::TraceCapturingFs capture(fs, kSample);
  apps::titan::RasterStore store(capture, "world.rst");
  apps::titan::TitanDb db(store);
  for (const auto& query : db.make_workload(40, seed)) {
    (void)db.range_query(query);
  }
  store.close();
  return capture.finish();
}

trace::TraceFile capture_dmine(io::ManagedFileSystem& fs, std::uint64_t seed) {
  apps::TraceCapturingFs setup(fs, kSample);
  apps::dmine::StoreConfig config;
  config.num_transactions = 30000;
  config.num_items = 300;
  config.planted = {{3, 5, 9}, {40, 41}};
  config.seed = seed;
  apps::dmine::TransactionStore::generate(setup, "retail.db", config);
  apps::TraceCapturingFs capture(fs, kSample);
  const apps::dmine::TransactionStore store(capture, "retail.db");
  const apps::dmine::Apriori miner(apps::dmine::MiningConfig{
      .min_support = 0.05, .min_confidence = 0.6, .max_itemset_size = 3});
  (void)miner.run(store);
  return capture.finish();
}

std::unique_ptr<ReplayState> make_state(std::string_view workload,
                                        std::uint64_t seed,
                                        const std::filesystem::path& dir) {
  auto st = std::make_unique<ReplayState>();
  st->dir = dir;
  st->fs = std::make_unique<io::ManagedFileSystem>(
      std::make_unique<io::RealFileStore>(dir), fs_options());
  if (workload == "replay_panels") {
    st->traces.push_back(
        {"lu", apps::lu::lu_trace_schedule(kLuN, kLuPanel, kSample)});
  } else {
    st->traces.push_back({"cholesky", capture_cholesky(*st->fs, seed)});
    st->traces.push_back({"titan", capture_titan(*st->fs, seed)});
    st->traces.push_back({"dmine", capture_dmine(*st->fs, seed)});
  }
  // The sample covers every offset the traces touch, so no read is short.
  std::uint64_t extent = 0;
  for (const auto& t : st->traces) {
    for (const auto& rec : t.trace.records) {
      extent = std::max(extent, rec.offset + rec.length);
    }
  }
  st->sample_bytes = (extent / (1 << 20) + 1) << 20;
  util::create_sample_file(dir / kSample, st->sample_bytes, seed);
  for (auto& t : st->traces) {
    for (const auto& rec : t.trace.records) {
      t.records += rec.count;
      const std::uint64_t bytes = rec.count * rec.length;
      if (rec.op == trace::TraceOp::kRead) t.bytes_read += bytes;
      if (rec.op == trace::TraceOp::kWrite) t.bytes_written += bytes;
    }
  }
  return st;
}

/// One pass over every trace, with per-record latencies in ms.
struct Pass {
  double call_s = 0.0;  ///< summed replay() calls, as a caller sees them
  double wall_s = 0.0;  ///< summed ReplayResult::wall_ms (the record loop)
  std::uint64_t records = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::vector<double> all_ms, read_ms, seek_ms, write_ms;
};

Pass replay_pass(ReplayState& st, std::uint64_t seed, bool verify,
                 Tracer& tracer, Oracle& oracle) {
  Pass pass;
  for (const ReplayTrace& t : st.traces) {
    st.fs->drop_caches();
    trace::ReplayOptions options;
    options.keep_rows = true;
    options.verify_content = verify;
    options.sample_seed = seed;
    trace::TraceReplayer replayer(*st.fs, options);
    trace::ReplayResult res;
    util::Stopwatch watch;
    try {
      Tracer::Span span(tracer, "trace.replay", Layer::kTrace);
      res = replayer.replay(t.trace);
      double io_ms = 0.0;
      for (const auto& row : res.rows) io_ms += row.ms;
      span.attribute(Layer::kIo,
                     static_cast<std::uint64_t>(std::llround(io_ms * 1e6)));
    } catch (const std::exception& e) {
      oracle.fail(t.app + " replay failed: " + e.what());
      continue;
    }
    pass.call_s += watch.elapsed_sec();
    pass.wall_s += res.wall_ms / 1e3;
    oracle.check(res.rows.size() == t.records,
                 t.app + ": replayed " + std::to_string(res.rows.size()) +
                     " records, trace has " + std::to_string(t.records));
    oracle.check(res.bytes_read == t.bytes_read,
                 t.app + ": read " + std::to_string(res.bytes_read) +
                     " bytes, trace has " + std::to_string(t.bytes_read));
    oracle.check(res.bytes_written == t.bytes_written,
                 t.app + ": wrote " + std::to_string(res.bytes_written) +
                     " bytes, trace has " + std::to_string(t.bytes_written));
    pass.records += res.rows.size();
    pass.bytes_read += res.bytes_read;
    pass.bytes_written += res.bytes_written;
    for (const auto& row : res.rows) {
      pass.all_ms.push_back(row.ms);
      if (row.op == trace::TraceOp::kRead) pass.read_ms.push_back(row.ms);
      if (row.op == trace::TraceOp::kSeek) pass.seek_ms.push_back(row.ms);
      if (row.op == trace::TraceOp::kWrite) pass.write_ms.push_back(row.ms);
    }
  }
  return pass;
}

/// One pass of the native reference over every trace.
struct NativePass {
  double wall_s = 0.0;
  std::vector<double> all_ms, read_ms;
};

NativePass native_pass(const ReplayState& st, std::uint64_t seed,
                       Oracle& oracle) {
  NativePass pass;
  for (const ReplayTrace& t : st.traces) {
    native::Replay res;
    try {
      res = native::replay(t.trace, st.dir, seed);
    } catch (const std::exception& e) {
      oracle.fail(t.app + " native replay failed: " + e.what());
      continue;
    }
    oracle.check(res.record_ms.size() == t.records &&
                     res.bytes_read == t.bytes_read &&
                     res.bytes_written == t.bytes_written,
                 t.app + ": the native replay's records or bytes differ "
                         "from the trace's");
    pass.wall_s += res.wall_s;
    pass.all_ms.insert(pass.all_ms.end(), res.record_ms.begin(),
                       res.record_ms.end());
    pass.read_ms.insert(pass.read_ms.end(), res.read_ms.begin(),
                        res.read_ms.end());
  }
  return pass;
}

}  // namespace

void run_replay(const RunConfig& config, Tracer& tracer, RunResult& r) {
  auto st = timed_setup<ReplayState>(
      config.workdir, r, [&](const std::filesystem::path& dir) {
        return make_state(config.workload, config.seed, dir);
      });
  io::ManagedFileSystem& fs = *st->fs;

  r.attempted += replay_pass(*st, config.seed, /*verify=*/true, tracer,
                             r.oracle).records;
  r.attempted += native_pass(*st, config.seed, r.oracle).all_ms.size();
  fs.stats().reset();
  const io::PoolStats pool_before = fs.pool().stats();

  // One value per pair of passes, one by each side; pairs alternate which
  // side goes first.  p50_x compares read records only: a pass mixes
  // seeks, reads and writes of very different lengths, and its median over
  // all records flipped between the classes from pass to pass.
  std::vector<double> cost, p50_x, ops, native_ops, mb, p50, p99,
      native_read_p50, read_p50, read_p99, seek_p50, write_p99,
      validate_frac;
  util::LatencyHistogram hist, native_hist;
  std::uint64_t measured_read = 0;
  const util::Stopwatch measured;
  do {
    Pass pass;
    NativePass ref;
    if (ops.size() % 2 == 0) {
      pass = replay_pass(*st, config.seed, /*verify=*/false, tracer,
                         r.oracle);
      ref = native_pass(*st, config.seed, r.oracle);
    } else {
      ref = native_pass(*st, config.seed, r.oracle);
      pass = replay_pass(*st, config.seed, /*verify=*/false, tracer,
                         r.oracle);
    }
    r.attempted += pass.records + ref.all_ms.size();
    measured_read += pass.bytes_read;
    r.metrics["trace.records"] = static_cast<double>(pass.records);
    r.metrics["trace.bytes_read"] = static_cast<double>(pass.bytes_read);
    r.metrics["trace.bytes_written"] = static_cast<double>(pass.bytes_written);
    ops.push_back(static_cast<double>(pass.records) / pass.call_s);
    native_ops.push_back(static_cast<double>(ref.all_ms.size()) / ref.wall_s);
    cost.push_back(pass.call_s / ref.wall_s);
    mb.push_back(static_cast<double>(pass.bytes_read + pass.bytes_written) /
                 1e6 / pass.call_s);
    add_samples_ms(hist, pass.all_ms);
    add_samples_ms(native_hist, ref.all_ms);
    p50.push_back(quantile(pass.all_ms, 0.50));
    p99.push_back(quantile(pass.all_ms, 0.99));
    read_p50.push_back(quantile(pass.read_ms, 0.50) * 1e3);
    native_read_p50.push_back(quantile(ref.read_ms, 0.50) * 1e3);
    p50_x.push_back(read_p50.back() / native_read_p50.back());
    read_p99.push_back(quantile(pass.read_ms, 0.99) * 1e3);
    seek_p50.push_back(quantile(pass.seek_ms, 0.50) * 1e3);
    write_p99.push_back(quantile(pass.write_ms, 0.99) * 1e3);
    validate_frac.push_back((pass.call_s - pass.wall_s) / pass.call_s);
  } while (measured.elapsed_sec() < config.seconds);

  report_ratios(r, cost, p50_x);
  r.metrics["ops_per_s"] = median(ops);
  r.metrics["native_ops_per_s"] = median(native_ops);
  r.metrics["mb_per_s"] = median(mb);
  r.metrics["p50_ms"] = median(p50);
  r.metrics["p99_ms"] = median(p99);
  r.metrics["native_read_p50_us"] = median(native_read_p50);
  r.metrics["trace.read_p50_us"] = median(read_p50);
  r.metrics["trace.read_p99_us"] = median(read_p99);
  r.metrics["trace.seek_p50_us"] = median(seek_p50);
  r.metrics["trace.write_p99_us"] = median(write_p99);
  r.metrics["trace.validate_frac"] = median(validate_frac);
  r.distributions.emplace_back("record_latency_ns", hist.snapshot());
  r.distributions.emplace_back("native_record_latency_ns",
                               native_hist.snapshot());
  report_io_layer(r, pool_delta(fs.pool().stats(), pool_before), fs.stats(),
                  fs.pool().page_size(), static_cast<double>(measured_read));
  check_pool(r.oracle, fs.pool());

  r.fs_options = fs_options();
  r.params.insert(r.params.end(),
                  {{"pairs", static_cast<double>(ops.size())},
                   {"sample_bytes", static_cast<double>(st->sample_bytes)},
                   {"traces", static_cast<double>(st->traces.size())}});
  if (config.workload == "replay_panels") {
    r.params.emplace_back("lu_n", static_cast<double>(kLuN));
    r.params.emplace_back("lu_panel", static_cast<double>(kLuPanel));
  } else {
    r.params.emplace_back("cholesky_n", static_cast<double>(kCholeskyN));
  }
}

}  // namespace clio::bench
