#include "trace/replayer.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/stopwatch.hpp"

namespace clio::trace {

using util::Stopwatch;

TraceReplayer::TraceReplayer(io::ManagedFileSystem& fs, ReplayOptions options)
    : fs_(fs), options_(options) {}

ReplayResult TraceReplayer::replay(const TraceFile& trace) {
  // One pass over the records checks them, before any I/O, and counts
  // the operations they stand for.
  const std::uint64_t repetitions = validate(trace);
  ReplayResult result;
  Stopwatch total;

  // The paper replays all per-process streams against one sample file.
  // Each (pid, fid) pair owns a handle slot: multi-process traces (e.g.
  // Pgrep's workers) interleave opens and closes of the same fid, and the
  // streams must not steal each other's file positions.
  const std::size_t slots = static_cast<std::size_t>(
      trace.header.num_processes) * trace.header.num_files;
  std::vector<io::ManagedFile> handles(slots);
  std::vector<std::byte> buffer;
  buffer.reserve(1 << 20);
  std::vector<std::byte> expected;  // the verify pass's oracle bytes
  if (options_.keep_rows) {
    // One row per repetition of each record: without this the rows vector
    // regrows (and copies itself) inside the timed replay.
    result.rows.reserve(static_cast<std::size_t>(repetitions));
  }

  auto slot_of = [&](const TraceRecord& r) -> io::ManagedFile& {
    return handles[static_cast<std::size_t>(r.pid) * trace.header.num_files +
                   r.fid];
  };
  auto ensure_open = [&](const TraceRecord& r) -> io::ManagedFile& {
    io::ManagedFile& h = slot_of(r);
    util::check<util::ParseError>(
        h.is_open(), "replay: read/write/seek before open in trace");
    return h;
  };

  std::size_t index = 0;
  for (const auto& r : trace.records) {
    for (std::uint32_t rep = 0; rep < r.count; ++rep) {
      double ms = 0.0;
      switch (r.op) {
        case TraceOp::kOpen: {
          Stopwatch w;
          slot_of(r) =
              fs_.open(trace.header.sample_file, io::OpenMode::kCreate);
          ms = w.elapsed_ms();
          break;
        }
        case TraceOp::kClose: {
          Stopwatch w;
          ensure_open(r).close();
          ms = w.elapsed_ms();
          break;
        }
        case TraceOp::kRead: {
          auto& h = ensure_open(r);
          buffer.resize(static_cast<std::size_t>(r.length));
          Stopwatch w;
          const std::size_t got = h.read_at(r.offset, buffer);
          ms = w.elapsed_ms();
          result.bytes_read += got;
          if (options_.verify_content && got > 0) {
            expected.resize(got);
            util::expected_sample_bytes(r.offset, expected,
                                        options_.sample_seed);
            util::check<util::IoError>(
                std::memcmp(buffer.data(), expected.data(), got) == 0,
                "replay: read content mismatch");
          }
          break;
        }
        case TraceOp::kWrite: {
          auto& h = ensure_open(r);
          buffer.resize(static_cast<std::size_t>(r.length));
          util::expected_sample_bytes(r.offset, buffer, options_.sample_seed);
          Stopwatch w;
          h.write_at(r.offset, buffer);
          ms = w.elapsed_ms();
          result.bytes_written += r.length;
          break;
        }
        case TraceOp::kSeek: {
          auto& h = ensure_open(r);
          Stopwatch w;
          // Paper semantics: seek from the beginning of the file to the
          // offset given in the trace.
          h.seek(0);
          h.seek(r.offset);
          ms = w.elapsed_ms();
          break;
        }
        case TraceOp::kReadv:
        case TraceOp::kWritev:
          // Vectored classes are pool-internal accounting, never trace
          // records; validate() rejects them (kIoTraceOpCount).
          break;
      }
      result.per_op[static_cast<std::size_t>(r.op)].push(ms);
      if (options_.keep_rows) {
        result.rows.push_back(ReplayRow{index, r.op, r.offset, r.length, ms});
      }
    }
    ++index;
  }
  // Close any handle the trace left open so dirty pages are persisted.
  for (auto& h : handles) {
    if (h.is_open()) h.close();
  }
  result.wall_ms = total.elapsed_ms();
  return result;
}

}  // namespace clio::trace
