// The paper's tables and figures from one entry point.  Each subcommand
// runs only its own experiment and prints one table per table or figure:
// every row is a quantity, its measured value, the paper's value for it
// and their ratio ("-" where the paper prints no number).  --json writes
// the same rows as a JSON array of {experiment, quantity, measured, paper,
// ratio}.  tests/paper/ asserts the paper's claims on these rows.
//
// Usage: clio_paper <table1|table2|table3|table4|table5|table6|qcrd|fig4|
//                    fig5|pgrep|all> [--json PATH]
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string_view>

#include "obs/json.hpp"
#include "paper/paper.hpp"
#include "util/table.hpp"
#include "util/temp_dir.hpp"

namespace {

using namespace clio;
using Workdir = std::filesystem::path;

struct Command {
  std::string_view name;
  paper::Rows (*run)(const Workdir&);
};

// In the paper's order; "qcrd" prints Figures 2 and 3 from one execution.
constexpr Command kCommands[] = {
    {"table1", [](const Workdir& w) { return paper::table1(w); }},
    {"table2", [](const Workdir& w) { return paper::table2(w); }},
    {"table3", [](const Workdir& w) { return paper::table3(w); }},
    {"table4", [](const Workdir& w) { return paper::table4(w); }},
    {"table5", [](const Workdir& w) { return paper::table5(w); }},
    {"table6", [](const Workdir& w) { return paper::table6(w); }},
    {"qcrd", [](const Workdir& w) { return paper::qcrd(w); }},
    {"fig4", [](const Workdir&) { return paper::fig4(); }},
    {"fig5", [](const Workdir&) { return paper::fig5(); }},
    {"pgrep", [](const Workdir& w) { return paper::pgrep(w); }},
};

std::string_view title(std::string_view experiment) {
  static constexpr std::pair<std::string_view, std::string_view> kTitles[] = {
      {"table1", "Table 1 — results for the data mining application"},
      {"table2", "Table 2 — results for the Titan application"},
      {"table3", "Table 3 — results for the LU application (last six seeks; "
                 "cold replay, then warm)"},
      {"table4", "Table 4 — results for the Cholesky application (16 "
                 "seek+read pairs; cold replay, then warm)"},
      {"table5", "Table 5 — response time of read and write operations"},
      {"table6", "Table 6 / Figure 6 — repeated reads of the same file "
                 "(cold start)"},
      {"fig2", "Figure 2 — execution time of computation and disk I/O "
               "(paper: eqs. 3-5 at the run's timebase)"},
      {"fig3", "Figure 3 — percentage of execution time (CPU vs disk I/O)"},
      {"fig4", "Figure 4 — speedup vs number of disks (DES, baseline = 1 "
               "disk)"},
      {"fig5", "Figure 5 — speedup vs number of CPUs (DES, baseline = 1 "
               "CPU)"},
      {"pgrep", "Pgrep (extension, no table in the paper) — Tables 1-2 "
                "format"},
  };
  for (const auto& [id, text] : kTitles) {
    if (id == experiment) return text;
  }
  return experiment;
}

std::string cell(double v) {
  if (std::isnan(v)) return "-";
  if (v == std::floor(v)) return util::format_fixed(v, 0);
  return util::format_ms(v);
}

void print(std::ostream& os, const paper::Rows& rows) {
  for (std::size_t i = 0; i < rows.size();) {
    const std::string& experiment = rows[i].experiment;
    util::TextTable table({"quantity", "measured", "paper", "ratio"});
    for (; i < rows.size() && rows[i].experiment == experiment; ++i) {
      table.add_row({rows[i].quantity, cell(rows[i].measured),
                     cell(rows[i].paper), cell(rows[i].ratio())});
    }
    os << title(experiment) << "\n";
    table.render(os);
  }
}

void write_json(std::ostream& os, const paper::Rows& rows) {
  obs::JsonWriter w(os);
  w.begin_array();
  for (const paper::Row& row : rows) {
    w.begin_object();
    w.kv("experiment", row.experiment);
    w.kv("quantity", row.quantity);
    w.kv("measured", row.measured);
    w.kv("paper", row.paper);
    w.kv("ratio", row.ratio());
    w.end_object();
  }
  w.end_array();
  os << "\n";
}

int usage() {
  std::cerr << "usage: clio_paper <";
  for (const Command& c : kCommands) std::cerr << c.name << "|";
  std::cerr << "all> [--json PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && !(argc == 4 && std::string_view(argv[2]) == "--json")) {
    return usage();
  }
  const std::string_view which = argv[1];
  const auto selected = [&](const Command& c) {
    return which == "all" || which == c.name;
  };
  if (std::none_of(std::begin(kCommands), std::end(kCommands), selected)) {
    return usage();
  }
  std::ofstream json;
  if (argc == 4) {
    json.open(argv[3]);
    if (!json) {
      std::cerr << "clio_paper: cannot write " << argv[3] << "\n";
      return 1;
    }
  }
  paper::Rows all;
  try {
    for (const Command& c : kCommands) {
      if (!selected(c)) continue;
      const util::TempDir dir("clio-paper");
      const paper::Rows rows = c.run(dir.path() / "work");
      print(std::cout, rows);
      std::cout.flush();
      all.insert(all.end(), rows.begin(), rows.end());
    }
  } catch (const std::exception& e) {
    std::cerr << "clio_paper: " << e.what() << "\n";
    return 1;
  }
  if (argc == 4) {
    write_json(json, all);
    if (!json.flush()) {
      std::cerr << "clio_paper: cannot write " << argv[3] << "\n";
      return 1;
    }
  }
  return 0;
}
