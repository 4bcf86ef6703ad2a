// Shared pieces of the benchmark harness: the clock, the in-memory span
// recorder, the run record written for run.py, the workload networks and
// image pools, and the exact-count pass that every correctness gate compares
// against.
//
// The harness is one process per workload run. It measures and checks; all
// statistics (percentiles, window medians, span self-times) are computed by
// run.py from the raw samples this process writes, so that arithmetic is
// tested once, in Python.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hw/processor.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/registry.h"
#include "snn/network.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the harness process started its clock (monotonic).
std::int64_t now_ns();
double ms_between(std::int64_t t0_ns, std::int64_t t1_ns);

// One traced interval. `parent` is -1 for a root span. Names are the layer
// boundary the benchmark code crossed ("snn.run", "serve.submit", ...).
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

// Single-thread span log. Spans stay in memory (reserved up front) and are
// written once at exit; `enabled` false makes open/close free of recording so
// untraced windows measure the bare program.
class SpanLog {
 public:
  explicit SpanLog(int thread_tag) : tag_{static_cast<std::int64_t>(thread_tag) << 40} {
    spans_.reserve(1U << 16);
  }

  bool enabled = false;

  // Opens a span now; returns its id (or -1 while disabled).
  std::int64_t open(const char* name, std::int64_t parent = -1) {
    if (!enabled) return -1;
    const std::int64_t id = tag_ | static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{id, parent, name, now_ns(), 0});
    return id;
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id & ((std::int64_t{1} << 40) - 1))].t1 = now_ns();
  }
  // Records an interval whose ends were stamped elsewhere.
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t t0, std::int64_t t1) {
    if (!enabled) return -1;
    const std::int64_t id = tag_ | static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{id, parent, name, t0, t1});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t tag_;
  std::vector<Span> spans_;
};

// Flat JSON object of numbers, strings and number arrays — the run record
// run.py reads.
class Record {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void arr(const std::string& key, const std::vector<double>& v);
  std::string json() const;

 private:
  std::map<std::string, std::string> fields_;
};

double peak_rss_mb();  // VmHWM of this process

// Keeps every CPU of the machine busy with a SCHED_IDLE spinner thread for
// the object's lifetime. On a VM a CPU with nothing to run halts and hands
// its core back to the hypervisor; waking it again costs a host scheduling
// delay that grows with the other tenants' load and lands on whichever
// request needed the wake-up (2-4x the serving p50 on a busy 4-core host).
// A SCHED_IDLE thread never delays the program: the kernel preempts it the
// moment anything else on its CPU becomes runnable. A spinner that cannot
// drop to SCHED_IDLE exits instead of competing with the program.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  // Spinners running at SCHED_IDLE (all have started when the constructor
  // returns).
  int active() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> started_{0};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

// One (network, backend) pair a workload runs, with the input shape of its
// images.
struct Model {
  std::string id;
  std::shared_ptr<const ttfs::snn::SnnNetwork> net;
  ttfs::snn::BackendKind backend = ttfs::snn::BackendKind::kEventSim;
  std::vector<std::int64_t> shape;  // (C, H, W)
};

// The CIFAR-shaped VGG-style stack of bench_event_sim_hotpath (same seed, so
// the same weights).
ttfs::snn::SnnNetwork make_vgg_style();
// The ttfs_wire_server stack (3x16x16 input); `seed` picks the weights.
ttfs::snn::SnnNetwork make_wire_net(std::uint64_t seed);
// Log-quantizes `net` in place (paper's 5-bit, a_w = 2^-1/2); returns the
// milliseconds cat::log_quantize_network took.
double quantize(ttfs::snn::SnnNetwork& net);

// hw::price_trace of one of `model`'s traces on the paper's processor
// configuration (5-bit log PEs, shared LUT decoder).
ttfs::hw::ProcessorReport price(const Model& model, const ttfs::snn::EventTrace& trace);

// Fixed image pool for a workload: `count` images of `shape` drawn from a
// fixed internal seed, spanning dense to sparse intensities so the spike
// count per image varies. The run seed never changes the pool, only which
// image each request carries, so exact counts over the pool are committed.
std::vector<ttfs::Tensor> make_pool(std::int64_t count, const std::vector<std::int64_t>& shape);

// Exact per-image outcome of one model on one pool image.
struct Expected {
  std::vector<std::int64_t> layer_spikes;  // per trace layer
  std::vector<std::int64_t> layer_ops;
  std::vector<std::int64_t> layer_cycles;  // encoder cycles
  std::uint64_t spike_hash = 0;            // FNV-1a over every (neuron, step)
  std::int64_t hw_cycles = 0;              // hw::price_trace total_cycles
  double energy_uj = 0.0;                  // hw::price_trace energy per image
  std::vector<float> logits;
  std::int64_t predicted = -1;
};

// Totals over a workload's whole (model x image) pool; these are committed in
// perfbench/expected.json and must match on every run.
struct PoolTotals {
  std::int64_t items = 0;
  std::int64_t spikes = 0;
  std::int64_t sops = 0;
  std::int64_t hw_cycles = 0;
  double energy_uj = 0.0;
  std::uint64_t spike_hash = 1469598103934665603ULL;  // FNV-1a over image hashes
};

// Runs every pool image through `model` on `backend` (traces on), pricing
// each trace on the processor model. Fills `out[i]` per image and folds the
// pool totals into `totals`.
void exact_pass(const Model& model, ttfs::snn::BackendKind backend,
                const std::vector<ttfs::Tensor>& pool, std::vector<Expected>& out,
                PoolTotals& totals);
void record_totals(Record& rec, const PoolTotals& totals, const std::string& prefix = "pool.");

// Compares one trace with its expected image: per-layer counts and logits
// bit for bit. Empty string when everything matches, else the first
// difference.
std::string compare_trace(const ttfs::snn::EventTrace& trace, const Expected& want);
// Bitwise logits equality.
bool same_logits(const float* got, std::size_t n, const std::vector<float>& want);

// The wire_poisson models (the ttfs_wire_server stack, event backend), the
// image pool both serving workloads draw from, and the server configuration
// they share (ttfs_wire_server's: max_batch 8, max_delay 500 us, 2 replicas,
// a 256-request queue with the reject policy).
std::vector<Model> wire_models();
std::vector<ttfs::Tensor> serve_pool();
ttfs::serve::ServeOptions serve_options(std::shared_ptr<ttfs::snn::ModelRegistry> registry);

// Command-line view shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;    // run record path
  std::string spans;  // span dump path (trace only)
};

// Timed-phase bookkeeping shared by the workloads: sub-window boundaries and
// the traced/untraced alternation of a traced run.
struct Windows {
  double window_s = 1.0;
  std::int64_t t0 = 0;  // timed phase start (ns)
  int count = 0;
  bool trace = false;   // traced run: odd windows record spans

  std::int64_t end() const { return t0 + static_cast<std::int64_t>(count * window_s * 1e9); }
  int index(std::int64_t t) const {
    return static_cast<int>(static_cast<double>(t - t0) / (window_s * 1e9));
  }
  bool traced(int w) const { return trace && (w % 2 == 1); }
};
Windows make_windows(const Args& args);
void record_windows(Record& rec, const Windows& w);

// Reads the host's CPU counters (/proc/stat) at every window boundary of the
// timed phase, from its own thread, so each window's steal share is known. Construct right after Windows::t0 is set.
class HostSampler {
 public:
  explicit HostSampler(const Windows& w);
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  // Joins the sampler (it ends at the last window boundary) and writes the
  // per-boundary samples: window.cpu_total / window.cpu_steal (jiffies).
  void record(Record& rec);

 private:
  std::vector<double> total_, steal_;
  std::thread thread_;
};

// Each workload fills `rec`, appends the spans of every thread to `spans`,
// and returns the number of correctness mismatches.
int run_sim(const Args& args, Record& rec, std::vector<Span>& spans);
int run_serve_churn(const Args& args, Record& rec, std::vector<Span>& spans);
int run_wire_poisson(const Args& args, Record& rec, std::vector<Span>& spans);
// Exact pass of every workload on ReferenceBackend (the frozen oracle),
// written as pool totals per workload.
int run_check_reference(Record& rec);

// Set-up repetitions per run: setup_s is the median over these.
inline constexpr int kSetupReps = 9;

}  // namespace perfbench
