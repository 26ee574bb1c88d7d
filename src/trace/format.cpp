#include "trace/format.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace clio::trace {

std::uint64_t validate(const TraceFile& trace) {
  using util::ParseError;
  util::check<ParseError>(trace.header.num_records == trace.records.size(),
                          "trace: header record count mismatch");
  util::check<ParseError>(!trace.header.sample_file.empty(),
                          "trace: empty sample file name");
  util::check<ParseError>(trace.header.num_processes > 0,
                          "trace: num_processes must be > 0");
  util::check<ParseError>(trace.header.num_files > 0,
                          "trace: num_files must be > 0");

  double last_wall = 0.0;
  // Open/close balance per (pid, fid) can legitimately interleave across
  // processes; track the aggregate depth per fid which must never go
  // negative.
  std::vector<std::int64_t> open_depth(trace.header.num_files, 0);
  std::uint64_t repetitions = 0;
  std::size_t index = 0;
  for (const auto& r : trace.records) {
    // Messages are built only on failure: this loop runs once per record
    // on every replay, and formatting a message per record would dominate
    // it.
    if (static_cast<std::uint8_t>(r.op) >= io::kIoTraceOpCount) {
      throw ParseError(util::cat("trace: bad op code at record ", index));
    }
    if (r.count < 1) {
      throw ParseError(util::cat("trace: zero count at record ", index));
    }
    repetitions += r.count;
    if (r.pid >= trace.header.num_processes) {
      throw ParseError(util::cat("trace: pid out of range at record ", index));
    }
    if (r.fid >= trace.header.num_files) {
      throw ParseError(util::cat("trace: fid out of range at record ", index));
    }
    if (!(r.wall_clock + 1e-12 >= last_wall)) {
      throw ParseError(
          util::cat("trace: wall clock goes backwards at record ", index));
    }
    last_wall = r.wall_clock;
    if (r.op == TraceOp::kOpen) {
      open_depth[r.fid] += r.count;
    } else if (r.op == TraceOp::kClose) {
      open_depth[r.fid] -= r.count;
      if (open_depth[r.fid] < 0) {
        throw ParseError(
            util::cat("trace: close without open at record ", index));
      }
    }
    ++index;
  }
  return repetitions;
}

}  // namespace clio::trace
