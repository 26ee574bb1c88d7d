#pragma once

#include <iosfwd>
#include <string>

#include "core/behavioral_benchmark.hpp"
#include "core/trace_benchmark.hpp"
#include "core/webserver_benchmark.hpp"

namespace clio::core {

/// Rendering helpers shared by the bench binaries: each prints the same
/// rows/series as the corresponding paper table or figure, through the
/// uniform TextTable format.

void render_figure2(std::ostream& os, const QcrdFigures& figures);
void render_figure3(std::ostream& os, const QcrdFigures& figures);
void render_speedup_series(std::ostream& os, const std::string& x_label,
                           const std::vector<sim::SpeedupPoint>& points);

/// Tables 1/2: per-op-class mean times for an application replay.
void render_app_summary(std::ostream& os, const std::string& app_name,
                        std::uint64_t data_bytes,
                        const TraceBenchResult& result, bool include_seek,
                        bool include_write);

/// Table 3 shape: per-request seek rows.
void render_seek_rows(std::ostream& os, const trace::ReplayResult& replay,
                      std::size_t max_rows);

/// Table 4 shape: per-request seek+read rows.  "Seek time" is the trace's
/// seek record (seek(0) then seek(offset)); "Read time" is the read record
/// alone, a positional read_at with no second positioning seek in it.
void render_seek_read_rows(std::ostream& os,
                           const trace::ReplayResult& replay,
                           std::size_t max_rows);

void render_table5(std::ostream& os, const std::vector<Table5Row>& rows);
void render_table6(std::ostream& os, const std::vector<Table6Row>& rows);

/// Serving-throughput rows from WebServerBench::run_throughput().
void render_throughput(std::ostream& os,
                       const std::vector<ThroughputRow>& rows);

}  // namespace clio::core
