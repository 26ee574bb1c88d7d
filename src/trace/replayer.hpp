#pragma once

#include <cstdint>
#include <vector>

#include "io/managed_file.hpp"
#include "trace/format.hpp"

namespace clio::trace {

/// Replay policy.
struct ReplayOptions {
  bool keep_rows = true;        ///< retain one timed row per trace record
  bool verify_content = false;  ///< check read bytes against the sample
                                ///< pattern (slows replay; tests only)
  std::uint64_t sample_seed = 42;  ///< seed used to create the sample file
};

/// One replayed record with its measured latency — the unit the paper's
/// Tables 3 and 4 print ("Request number / Data size / Seek time / Read
/// time").
struct ReplayRow {
  std::size_t index = 0;
  TraceOp op = TraceOp::kRead;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  double ms = 0.0;
};

/// Aggregate of one replay run.
struct ReplayResult {
  std::vector<ReplayRow> rows;          ///< per-record timings (if kept)
  std::array<util::RunningStats, io::kIoOpCount> per_op;  ///< ms per class
  double wall_ms = 0.0;                 ///< end-to-end replay time
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  [[nodiscard]] const util::RunningStats& op(TraceOp o) const {
    return per_op[static_cast<std::size_t>(o)];
  }
};

/// Replays a trace against a ManagedFileSystem, timing every operation.
///
/// Semantics follow the paper (§3.3): read and write are issued at the
/// record's offset; "seek operations are performed from the beginning of
/// the file to the offset as mentioned in the trace files"; open/close act
/// on the sample file.  A read or write record is one positional call
/// (ManagedFile::read_at / write_at), as the native twin issues one
/// pread / pwrite: it moves no stream position and counts no Seek, so
/// its time holds the transfer alone, and positioning is timed only in
/// the trace's own seek records.  Records with count > 1 are issued
/// `count` times back-to-back, each timed individually.
class TraceReplayer {
 public:
  explicit TraceReplayer(io::ManagedFileSystem& fs, ReplayOptions options = {});

  /// Replays the whole trace.  The sample file named in the header must
  /// already exist in the file system (see util::create_sample_file).
  ReplayResult replay(const TraceFile& trace);

 private:
  io::ManagedFileSystem& fs_;
  ReplayOptions options_;
};

}  // namespace clio::trace
