// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary prints the series of one paper figure as labelled tables
// (and mirrors them to CSV beside the binary). Problem sizes default to
// quick laptop-scale runs; set SEMILOCAL_BENCH_SCALE (e.g. 10) to move
// toward the paper's sizes.
#pragma once

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace semilocal::bench {

/// Median wall-clock seconds of `repeats` runs of `fn` (one warmup run).
template <typename Fn>
double median_seconds(Fn&& fn, int repeats = 3) {
  fn();  // warmup
  const auto runs = time_runs(repeats, fn);
  return TimingStats::from(runs).median;
}

/// Scales a default size by SEMILOCAL_BENCH_SCALE.
inline Index scaled(Index base) {
  return static_cast<Index>(static_cast<double>(base) * bench_scale());
}

/// Thread counts to sweep: 1..2*hardware, capped at 16 (the paper's
/// machine exposes 16 hardware threads).
inline std::vector<int> thread_sweep() {
  std::vector<int> out;
  const int cap = std::min(16, 2 * hardware_threads());
  for (int t = 1; t <= cap; t *= 2) out.push_back(t);
  if (out.back() != cap) out.push_back(cap);
  return out;
}

/// Prints a table and writes it next to the binary as <name>.csv.
inline void emit(Table& table, const std::string& name, const std::string& title) {
  table.print(std::cout, title);
  table.write_csv(name + ".csv");
  std::cout << "(csv: " << name << ".csv)\n\n";
}

/// Writes a result document to `path`, creating its directory.
inline void write_report(const std::string& path, const Json& json) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path) << json.str() << "\n";
  std::cout << "report written to " << path << "\n";
}

}  // namespace semilocal::bench
