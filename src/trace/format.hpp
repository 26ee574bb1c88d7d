#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/io_stats.hpp"

namespace clio::trace {

/// Operation codes exactly as the paper specifies for the UMD trace format:
/// "Open=0, Close=1, Read=2, Write=3, Seek=4".
using TraceOp = io::IoOp;

/// Trace file header.  The paper (§3.2): "The trace file header contains
/// parameters for number of processes, number of files, number of records,
/// offset to the trace records and the sample file on which the I/O
/// operations will be issued."
struct TraceHeader {
  std::uint32_t num_processes = 1;
  std::uint32_t num_files = 1;
  std::uint64_t num_records = 0;
  std::uint64_t record_offset = 0;  ///< byte offset of record array on disk
  std::string sample_file;          ///< target file for replayed I/O
};

/// One trace record.  The paper (§3.2): "Each trace record contains
/// parameters corresponding to the I/O operation to be performed, number of
/// records for which the I/O operation need to be performed, process id,
/// field, wall clock time, process clock time, offset, length."
struct TraceRecord {
  TraceOp op = TraceOp::kRead;
  std::uint32_t count = 1;     ///< repetitions of the operation
  std::uint32_t pid = 0;       ///< issuing process
  std::uint32_t fid = 0;       ///< file ("field") index within the trace
  double wall_clock = 0.0;     ///< seconds since trace start
  double proc_clock = 0.0;     ///< CPU seconds consumed by the process
  std::uint64_t offset = 0;    ///< byte offset of the operation
  std::uint64_t length = 0;    ///< byte length (0 for open/close)

  bool operator==(const TraceRecord&) const = default;
};

/// A complete in-memory trace.
struct TraceFile {
  TraceHeader header;
  std::vector<TraceRecord> records;
};

/// Structural validation: op codes in range, record count consistent with
/// the header, wall clock non-decreasing, open/close balance never negative.
/// Throws ParseError describing the first violation.  Returns the number
/// of operations the records stand for (the sum of their counts), so a
/// replay sizes its rows in the same pass.
std::uint64_t validate(const TraceFile& trace);

/// Human-readable op mnemonic (reuses the I/O subsystem's naming).
[[nodiscard]] inline std::string_view op_name(TraceOp op) {
  return io::io_op_name(op);
}

}  // namespace clio::trace
