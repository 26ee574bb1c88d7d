#include <gtest/gtest.h>

#include <sstream>

#include "core/behavioral_benchmark.hpp"
#include "core/report.hpp"
#include "core/trace_benchmark.hpp"
#include "core/webserver_benchmark.hpp"
#include "trace/synthetic.hpp"
#include "util/temp_dir.hpp"

namespace clio::core {
namespace {

TEST(QcrdFigures, ShapesMatchPaperClaims) {
  util::TempDir dir;
  QcrdRunConfig config;
  config.workdir = dir.path() / "qcrd";
  config.timebase_sec = 0.1;  // fast test run
  const auto figures = run_qcrd_figures(config);
  ASSERT_EQ(figures.measured.size(), 3u);   // Application, P1, P2
  ASSERT_EQ(figures.model_predicted.size(), 3u);
  // Model at paper scale: program 1 CPU-heavy, program 2 I/O-heavy,
  // application I/O share noticeably large.
  const auto& model_p1 = figures.model_predicted[1];
  const auto& model_p2 = figures.model_predicted[2];
  EXPECT_GT(model_p1.cpu_sec, model_p1.io_sec);
  EXPECT_GT(model_p2.io_sec, model_p2.cpu_sec);
  EXPECT_GT(figures.model_predicted[0].io_pct(), 30.0);
  // Measured run reproduces the program-level contrast.
  EXPECT_GT(figures.measured[2].io_pct(), figures.measured[1].io_pct());
  // Rendering works.
  std::ostringstream oss;
  render_figure2(oss, figures);
  render_figure3(oss, figures);
  EXPECT_NE(oss.str().find("Program1"), std::string::npos);
}

TEST(QcrdSweeps, SeriesHaveFivePoints) {
  const auto disks = run_qcrd_disk_sweep({2, 4, 8, 16, 32}, 0.5);
  const auto cpus = run_qcrd_cpu_sweep({2, 4, 8, 16, 32}, 0.5);
  ASSERT_EQ(disks.size(), 5u);
  ASSERT_EQ(cpus.size(), 5u);
  EXPECT_LT(disks.back().speedup, 2.0);   // Figure 4 flat
  EXPECT_GT(cpus.back().speedup, 1.5);    // Figure 5 rises
  std::ostringstream oss;
  render_speedup_series(oss, "Number of Disks", disks);
  EXPECT_NE(oss.str().find("Speedup"), std::string::npos);
}

TEST(TraceBench, ReplaySyntheticTraceAgainstSample) {
  util::TempDir dir;
  TraceBenchConfig config;
  config.workdir = dir.path() / "work";
  config.sample_bytes = 4ULL << 20;
  TraceBenchEnv env(config);
  const auto trace = trace::sequential_read(1 << 20, 64 * 1024);
  const auto result = env.replay(trace);
  EXPECT_EQ(result.replay.bytes_read, 1u << 20);
  EXPECT_GE(result.read_ms, 0.0);
  EXPECT_GE(result.close_ms, 0.0);
  std::ostringstream oss;
  render_app_summary(oss, "Synthetic", 65536, result, true, false);
  EXPECT_NE(oss.str().find("Synthetic"), std::string::npos);
}

TEST(TraceBench, CaptureAndReplayRoundTrip) {
  util::TempDir dir;
  TraceBenchConfig config;
  config.workdir = dir.path() / "work";
  config.sample_bytes = 4ULL << 20;
  TraceBenchEnv env(config);
  const auto result =
      env.capture_and_replay([](apps::TraceCapturingFs& capture) {
        auto file = capture.open("x.bin", io::OpenMode::kCreate);
        const std::string payload(128 * 1024, 'z');
        file.write(std::as_bytes(
            std::span<const char>(payload.data(), payload.size())));
        file.close();
        return capture.finish();
      });
  EXPECT_EQ(result.replay.bytes_written, 128u * 1024);
}

TEST(TraceBench, EnvOverridesSampleSize) {
  util::TempDir dir;
  ::setenv("CLIO_SAMPLE_BYTES", "8MiB", 1);
  const auto config = default_trace_config(dir.path());
  ::unsetenv("CLIO_SAMPLE_BYTES");
  EXPECT_EQ(config.sample_bytes, 8ULL << 20);
}

TEST(WebBench, Table5And6Protocols) {
  util::TempDir dir;
  WebBenchConfig config;
  config.workdir = dir.path() / "docroot";
  config.jit_ns_per_byte = 20000;
  WebServerBench bench(config);

  const auto table5 = bench.run_table5();
  ASSERT_EQ(table5.size(), 3u);
  EXPECT_EQ(table5[0].bytes, WebServerBench::kSmall);
  EXPECT_EQ(table5[1].bytes, WebServerBench::kLarge);
  EXPECT_EQ(table5[2].bytes, WebServerBench::kMid);
  for (const auto& row : table5) {
    EXPECT_GT(row.read_ms, 0.0);
    EXPECT_GT(row.write_ms, 0.0);
  }

  const auto table6 = bench.run_table6(6);
  ASSERT_EQ(table6.size(), 6u);
  for (const auto& row : table6) EXPECT_EQ(row.bytes, WebServerBench::kMid);
  // First trial pays the cold path; compare with the warm median.
  std::vector<double> warm;
  for (std::size_t i = 1; i < table6.size(); ++i) {
    warm.push_back(table6[i].read_ms);
  }
  std::sort(warm.begin(), warm.end());
  EXPECT_GT(table6[0].read_ms, warm[warm.size() / 2]);

  std::ostringstream oss;
  render_table5(oss, table5);
  render_table6(oss, table6);
  EXPECT_NE(oss.str().find("Read Time (ms)"), std::string::npos);
}

}  // namespace
}  // namespace clio::core
