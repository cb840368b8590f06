// dbre_bench — the repository benchmark's harness (run.py builds and runs
// it; see BENCHMARK.json for the workloads and metrics).
//
//   dbre_bench --workload discover|revalidate|serve --seed N --seconds S
//              --trace 0|1 --bin-dir DIR --work-dir DIR [--commit ID]
//              [--spans-file PATH] [--span-tolerance-pct P]
//
// Prints detail lines, then as its last stdout line one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer ones and writes the
// spans to --spans-file (default: under --work-dir). Exits 1 when any
// output check or call failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"

#ifndef DBRE_BENCH_BUILD_TYPE
#define DBRE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DBRE_BENCH_COMPILER
#define DBRE_BENCH_COMPILER "unknown"
#endif

namespace {

using dbre::bench::Args;
using dbre::bench::FormatNumber;
using dbre::bench::JsonString;
using dbre::bench::Outcome;

int Usage() {
  std::fprintf(stderr,
               "usage: dbre_bench --workload discover|revalidate|serve "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--work-dir DIR [--commit ID] [--spans-file PATH] "
               "[--span-tolerance-pct P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-file") {
      args.spans_file = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--span-tolerance-pct") {
      args.span_tolerance_pct = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  if (!have_seed || args.seconds <= 0 || args.work_dir.empty()) {
    return Usage();
  }
  if (args.spans_file.empty()) {
    args.spans_file = args.work_dir + "/" + args.workload + ".spans.jsonl";
  }
  // Only an optimized build may report numbers.
  if (std::strcmp(DBRE_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "dbre_bench: refusing to report numbers from a '%s' build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 DBRE_BENCH_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "dbre_bench: assertions are enabled; not a Release "
                       "build\n");
  return 2;
#endif

  std::printf(
      "{\"stamp\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"build_type\":%s,\"compiler\":%s,\"nproc\":%u,"
      "\"commit\":%s}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonString(DBRE_BENCH_BUILD_TYPE).c_str(),
      JsonString(DBRE_BENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(), JsonString(commit).c_str());
  std::fflush(stdout);

  Outcome out;
  if (args.workload == "discover") {
    out = dbre::bench::RunDiscover(args);
  } else if (args.workload == "revalidate") {
    out = dbre::bench::RunRevalidate(args);
  } else if (args.workload == "serve") {
    out = dbre::bench::RunServe(args);
  } else {
    std::fprintf(stderr, "dbre_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Every workload reports the same metrics, BENCHMARK.json's list for the
  // run's kind, in its order and units.
  const auto& specs = args.trace ? dbre::bench::PerLayerMetrics()
                                 : dbre::bench::EndToEndMetrics();
  bool listed = out.metrics.size() == specs.size();
  for (size_t i = 0; listed && i < specs.size(); ++i) {
    listed = out.metrics[i].first == specs[i].name &&
             out.metrics[i].second.second == specs[i].unit;
  }
  if (!listed && out.failed == 0) {
    out.Fail(args.workload + " reported other metrics than the manifest's");
  }

  // The table names every metric with its unit, failed_ratio included;
  // the result line carries the metrics BENCHMARK.json lists, where
  // failed_ratio travels as `failed` over `attempted` (it is 0 on a clean
  // run, and a benchmark metric must never read 0).
  for (const std::string& note : out.notes) {
    std::printf("# %s\n", note.c_str());
  }
  auto row = [](const std::string& name, double value,
                const std::string& unit) {
    std::printf("# %-44s %20s %s\n", name.c_str(), FormatNumber(value).c_str(),
                unit.c_str());
  };
  row("failed_ratio",
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0,
      "ratio (" + std::to_string(out.failed) + " of " +
          std::to_string(out.attempted) + ")");
  std::string metrics;
  for (const auto& [name, value_unit] : out.metrics) {
    row(name, value_unit.first, value_unit.second);
    if (!metrics.empty()) metrics += ",";
    metrics += JsonString(name) + ":{\"value\":" +
               FormatNumber(value_unit.first) +
               ",\"unit\":" + JsonString(value_unit.second) + "}";
  }
  bool correct = out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(out.attempted, 1)),
      static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
