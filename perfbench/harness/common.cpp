#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "cat/logquant.h"
#include "harness.h"
#include "hw/tech.h"
#include "hw/trace_run.h"
#include "serve/result.h"
#include "util/rng.h"

namespace perfbench {

using namespace ttfs;

namespace {

const Clock::time_point kEpoch = Clock::now();

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

void fnv(std::uint64_t& h, std::int64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xFFU;
    h *= 1099511628211ULL;
  }
}

// Aggregate "cpu" line of /proc/stat: all jiffies and the stolen ones
// (guest time is already inside user/nice).
std::pair<double, double> cpu_jiffies() {
  std::ifstream f{"/proc/stat"};
  std::string label;
  f >> label;
  double total = 0.0, steal = 0.0;
  for (int i = 0; label == "cpu" && i < 8; ++i) {
    double v = 0.0;
    f >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

double ms_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-6;
}

void Record::num(const std::string& key, double v) { fields_[key] = format_double(v); }
void Record::str(const std::string& key, const std::string& v) { fields_[key] = quoted(v); }
void Record::arr(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ",";
    s += format_double(v[i]);
  }
  fields_[key] = s + "]";
}

std::string Record::json() const {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) s += ",\n";
    first = false;
    s += quoted(k) + ": " + v;
  }
  return s + "}\n";
}

double peak_rss_mb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in{line.substr(6)};
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

snn::SnnNetwork make_vgg_style() {
  Rng rng{42};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(random_tensor({16, 16, 3, 3}, rng, -0.1F, 0.18F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({32, 16, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(random_tensor({32, 32, 3, 3}, rng, -0.08F, 0.12F),
               random_tensor({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({64, 32, 3, 3}, rng, -0.08F, 0.1F),
               random_tensor({64}, rng, -0.04F, 0.08F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 64 * 4 * 4}, rng, -0.08F, 0.1F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

snn::SnnNetwork make_wire_net(std::uint64_t seed) {
  Rng rng{seed};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({24, 16, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 24 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

hw::ProcessorReport price(const Model& model, const snn::EventTrace& trace) {
  static const hw::SnnProcessorModel processor{hw::ArchConfig{}, hw::default_tech()};
  return hw::price_trace(processor, *model.net, trace, model.shape[1], model.shape[2]);
}

double quantize(snn::SnnNetwork& net) {
  const std::int64_t t0 = now_ns();
  cat::log_quantize_network(net, cat::LogQuantConfig{});
  return ms_between(t0, now_ns());
}

std::vector<Tensor> make_pool(std::int64_t count, const std::vector<std::int64_t>& shape) {
  Rng rng{2022};
  std::vector<Tensor> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    // Intensity scale from faint to saturated and a kept-pixel share from
    // dense to sparse, interleaved so neighbouring images differ in both.
    const float scale = 0.25F + 0.75F * static_cast<float>((i * 7) % count) /
                                    static_cast<float>(std::max<std::int64_t>(1, count - 1));
    const double keep = (i % 3 == 0) ? 1.0 : (i % 3 == 1) ? 0.6 : 0.3;
    Tensor t{shape};
    for (std::int64_t k = 0; k < t.numel(); ++k) {
      const float v = rng.uniform_f(0.0F, 1.0F) * scale;
      t[k] = rng.bernoulli(keep) ? v : 0.0F;
    }
    pool.push_back(std::move(t));
  }
  return pool;
}

void exact_pass(const Model& model, snn::BackendKind backend, const std::vector<Tensor>& pool,
                std::vector<Expected>& out, PoolTotals& totals) {
  const snn::Engine engine{*model.net};
  snn::InferenceSession session = engine.session(backend);
  snn::RunOptions ropts;
  ropts.logits = false;
  ropts.traces = true;
  out.assign(pool.size(), Expected{});
  constexpr std::size_t kBatch = 8;
  for (std::size_t b = 0; b < pool.size(); b += kBatch) {
    std::vector<const Tensor*> batch;
    for (std::size_t i = b; i < std::min(pool.size(), b + kBatch); ++i) batch.push_back(&pool[i]);
    const snn::RunResult r = session.run(snn::BatchView{batch}, ropts);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const snn::EventTrace& trace = r.traces[k];
      Expected& e = out[b + k];
      e.spike_hash = 1469598103934665603ULL;
      for (const auto& layer : trace.layers) {
        e.layer_spikes.push_back(static_cast<std::int64_t>(layer.spikes.size()));
        e.layer_ops.push_back(layer.integration_ops);
        e.layer_cycles.push_back(layer.encoder_cycles);
        for (const auto& s : layer.spikes) {
          fnv(e.spike_hash, s.neuron);
          fnv(e.spike_hash, s.step);
        }
      }
      fnv(totals.spike_hash, static_cast<std::int64_t>(e.spike_hash));
      const hw::ProcessorReport report = price(model, trace);
      e.hw_cycles = report.total_cycles;
      e.energy_uj = report.energy_per_image_uj();
      e.logits = trace.logits.vec();
      e.predicted = serve::predicted_class(trace.logits);
      totals.items += 1;
      totals.spikes += trace.total_spikes();
      totals.sops += trace.total_integration_ops();
      totals.hw_cycles += e.hw_cycles;
      totals.energy_uj += e.energy_uj;
    }
  }
}

void record_totals(Record& rec, const PoolTotals& totals, const std::string& prefix) {
  rec.num(prefix + "items", static_cast<double>(totals.items));
  rec.num(prefix + "spikes", static_cast<double>(totals.spikes));
  rec.num(prefix + "sops", static_cast<double>(totals.sops));
  rec.num(prefix + "hw_cycles", static_cast<double>(totals.hw_cycles));
  rec.num(prefix + "energy_uj", totals.energy_uj);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(totals.spike_hash));
  rec.str(prefix + "spike_hash", hex);
}

bool same_logits(const float* got, std::size_t n, const std::vector<float>& want) {
  return n == want.size() && std::memcmp(got, want.data(), n * sizeof(float)) == 0;
}

std::string compare_trace(const snn::EventTrace& trace, const Expected& want) {
  if (trace.layers.size() != want.layer_spikes.size()) return "trace layer count differs";
  for (std::size_t l = 0; l < trace.layers.size(); ++l) {
    const auto& layer = trace.layers[l];
    if (static_cast<std::int64_t>(layer.spikes.size()) != want.layer_spikes[l]) {
      return "spike count differs at layer " + std::to_string(l);
    }
    if (layer.integration_ops != want.layer_ops[l]) {
      return "SOP count differs at layer " + std::to_string(l);
    }
    if (layer.encoder_cycles != want.layer_cycles[l]) {
      return "encoder cycles differ at layer " + std::to_string(l);
    }
  }
  if (!same_logits(trace.logits.data(), static_cast<std::size_t>(trace.logits.numel()),
                   want.logits)) {
    return "logits differ";
  }
  return "";
}

Windows make_windows(const Args& args) {
  Windows w;
  w.count = std::max(2, static_cast<int>(args.seconds / w.window_s + 0.5));
  w.trace = args.trace;
  return w;
}

HostSampler::HostSampler(const Windows& w) {
  thread_ = std::thread{[this, w] {
    for (int k = 0; k <= w.count; ++k) {
      std::this_thread::sleep_until(
          kEpoch + std::chrono::nanoseconds{
                       w.t0 + static_cast<std::int64_t>(k * w.window_s * 1e9)});
      const auto [total, steal] = cpu_jiffies();
      total_.push_back(total);
      steal_.push_back(steal);
    }
  }};
}

HostSampler::~HostSampler() {
  if (thread_.joinable()) thread_.join();
}

void HostSampler::record(Record& rec) {
  if (thread_.joinable()) thread_.join();
  rec.arr("window.cpu_total", total_);
  rec.arr("window.cpu_steal", steal_);
}

IdleSpinners::IdleSpinners() {
  const unsigned cpus = std::max(1U, std::thread::hardware_concurrency());
  for (unsigned c = 0; c < cpus; ++c) {
    threads_.emplace_back([this, c] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(c, &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
      const sched_param param{};
      const bool idle = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
      if (idle) active_.fetch_add(1);
      started_.fetch_add(1);
      if (!idle) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  while (started_.load() < static_cast<int>(threads_.size())) std::this_thread::yield();
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

int IdleSpinners::active() const { return active_.load(); }

void record_windows(Record& rec, const Windows& w) {
  rec.num("window_s", w.window_s);
  rec.num("windows", w.count);
}

}  // namespace perfbench
