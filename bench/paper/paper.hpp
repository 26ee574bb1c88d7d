#pragma once

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/load_gen.hpp"
#include "net/server.hpp"

namespace clio::paper {

/// One line of a paper table or figure: what this run measured beside the
/// paper's value for the same quantity (NaN where the paper prints none).
/// `clio_paper` prints and serializes exactly these rows, and the tests in
/// tests/paper/ assert the paper's claims on them.
struct Row {
  std::string experiment;  ///< "table1".."table6", "fig2".."fig5", "pgrep"
  std::string quantity;
  double measured = 0.0;
  double paper = std::nan("");

  [[nodiscard]] double ratio() const { return measured / paper; }
};
using Rows = std::vector<Row>;

/// Appends a row.  Without `paper`, the row takes the paper's value for
/// (experiment, quantity) from the one table of them, if the paper has one.
void add(Rows& rows, std::string_view experiment, std::string quantity,
         double measured, double paper = std::nan(""));

/// The row named `quantity`; throws ClioError if there is none.
[[nodiscard]] const Row& find(const Rows& rows, std::string_view quantity);

/// Size of the sample file every replayed trace reads and writes.  The
/// paper's is 1 GB.
inline constexpr std::uint64_t kSampleBytes = 256ULL << 20;

// Trace experiments (paper §3).  Each runs an application under capture
// (LU: generates its panel schedule), replays the trace cold against a
// sample file of `sample_bytes` in `workdir`, and reports the mean time per
// op class plus the backing calls behind open and close.  Tables 3 and 4
// also replay the same trace a second time warm.
[[nodiscard]] Rows table1(const std::filesystem::path& workdir,
                          std::uint64_t sample_bytes = kSampleBytes);
[[nodiscard]] Rows table2(const std::filesystem::path& workdir,
                          std::uint64_t sample_bytes = kSampleBytes);
[[nodiscard]] Rows table3(const std::filesystem::path& workdir,
                          std::uint64_t sample_bytes = kSampleBytes);
[[nodiscard]] Rows table4(const std::filesystem::path& workdir,
                          std::uint64_t sample_bytes = kSampleBytes);
/// Extension, no table in the paper: the fifth traced application (§3.1).
[[nodiscard]] Rows pgrep(const std::filesystem::path& workdir,
                         std::uint64_t sample_bytes = kSampleBytes);

// QCRD (paper §2).  Figures 2 and 3 come from one real execution of the
// behavioral model at `timebase_sec`; their paper column is the model's
// closed form (eqs. 3-5) at the same timebase.  Figures 4 and 5 are
// discrete-event sweeps over 2-32 disks and CPUs.
[[nodiscard]] Rows qcrd(const std::filesystem::path& workdir,
                        double timebase_sec = 2.0);
[[nodiscard]] Rows fig4();
[[nodiscard]] Rows fig5();

// Web server (paper §4), over a WebServerBench in `workdir`.  Table 5 also
// compares keep-alive with close-per-request in paired rounds.
[[nodiscard]] Rows table5(const std::filesystem::path& workdir);
[[nodiscard]] Rows table6(const std::filesystem::path& workdir);

/// The web-server fixture: a server over a managed docroot
/// (RealFileStore, 128 idle descriptors kept) holding the paper's three
/// image-sized files.
struct WebBenchConfig {
  std::filesystem::path workdir;
  bool vm_dispatch = true;  ///< managed handlers (JIT on first request)
  std::size_t worker_threads = 4;
  /// Optional seeded net-layer fault plan (not owned), for degraded runs.
  net::NetFaultInjector* fault_injector = nullptr;
};

/// One serving-throughput scenario: connection count x keep-alive.
struct ThroughputScenario {
  std::size_t connections = 1;
  bool keep_alive = false;
};

/// Aggregate requests/s and latency of one scenario's run.
struct ThroughputRow {
  std::size_t connections = 1;
  bool keep_alive = false;
  std::uint64_t requests_ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected_503 = 0;
  double requests_per_sec = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  util::LatencyHistogram::Snapshot latency;  ///< for BENCH_*.json
};

class WebServerBench {
 public:
  explicit WebServerBench(WebBenchConfig config);
  ~WebServerBench();

  /// For each scenario, a seeded GET/POST mix over the three paper files
  /// from the LoadGenerator.
  [[nodiscard]] std::vector<ThroughputRow> run_throughput(
      const std::vector<ThroughputScenario>& scenarios,
      std::size_t requests_per_connection, double post_fraction);

  [[nodiscard]] net::MiniWebServer& server() { return *server_; }
  [[nodiscard]] io::ManagedFileSystem& fs() { return *fs_; }

  /// Publishes a docroot file of deterministic content.
  void add_file(const std::string& name, std::uint64_t bytes);

  /// The paper's file sizes, in its Table 5 row order.
  static constexpr std::uint64_t kSmall = 7501;
  static constexpr std::uint64_t kLarge = 50607;
  static constexpr std::uint64_t kMid = 14063;

 private:
  WebBenchConfig config_;
  std::unique_ptr<io::ManagedFileSystem> fs_;
  std::unique_ptr<net::MiniWebServer> server_;
};

}  // namespace clio::paper
