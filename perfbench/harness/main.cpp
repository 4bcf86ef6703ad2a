// perfbench_harness — one workload run of the benchmark, in its own process.
//
//   perfbench_harness --workload sim_float|wire_poisson|serve_churn
//       --seed N --seconds S --trace 0|1 --out RECORD.json [--spans SPANS.csv]
//   perfbench_harness --check-reference --out RECORD.json
//
// Writes the run record (raw samples, counters, correctness verdict) to
// --out and, when traced, every span to --spans at exit. perfbench/run.py
// launches this binary and turns the record into metrics. Exit status: 0 when
// every output matched, 2 on a correctness mismatch, 1 on a usage or runtime
// error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args& args, bool& check_reference) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--check-reference") {
      check_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return !args.out.empty() && (check_reference || (!args.workload.empty() && args.seconds > 0));
}

void write_spans(const std::string& path, const std::vector<perfbench::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,parent,name,t0_ns,t1_ns\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%lld,%lld,%s,%lld,%lld\n", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name, static_cast<long long>(s.t0),
                 static_cast<long long>(s.t1));
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool check_reference = false;
  if (!parse(argc, argv, args, check_reference)) {
    std::cerr << "usage: perfbench_harness --workload W --seed N --seconds S --trace 0|1 "
                 "--out FILE [--spans FILE] | --check-reference --out FILE\n";
    return 1;
  }
  try {
    perfbench::Record rec;
    std::vector<perfbench::Span> spans;
    int mismatches = 0;
    const perfbench::IdleSpinners spinners;
    rec.num("idle_spinners", spinners.active());
    rec.num("pool_threads", ttfs::global_pool().size());
    if (check_reference) {
      mismatches = perfbench::run_check_reference(rec);
    } else if (args.workload == "sim_float") {
      mismatches = perfbench::run_sim(args, rec, spans);
    } else if (args.workload == "wire_poisson") {
      mismatches = perfbench::run_wire_poisson(args, rec, spans);
    } else if (args.workload == "serve_churn") {
      mismatches = perfbench::run_serve_churn(args, rec, spans);
    } else {
      std::cerr << "unknown workload: " << args.workload << "\n";
      return 1;
    }
    rec.num("peak_rss_mb", perfbench::peak_rss_mb());
    rec.num("mismatches", mismatches);
    rec.num("seed", static_cast<double>(args.seed));
    std::ofstream{args.out} << rec.json();
    if (args.trace && !args.spans.empty()) write_spans(args.spans, spans);
    return mismatches == 0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
