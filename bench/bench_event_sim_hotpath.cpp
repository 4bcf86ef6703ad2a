// Event-simulator hot-path benchmark: the overhauled simulator (repacked
// weights, step-bucketed fire phase, arena-reused scratch) against the frozen
// pre-overhaul reference on a VGG-style conv stack — the workload that
// dominates every accuracy sweep and hardware-model run. Both run as
// snn::Engine sessions (kEventSim vs kReference) over single-sample batches,
// so what is measured is exactly what every migrated caller executes.
//
// Both simulators are run on identical samples and their spike/op/cycle
// checksums are compared, so the reported speedup is for bit-identical work
// (the equality is also asserted test-side in snn_cross_validation_test).
//
//   ./build/bench/bench_event_sim_hotpath [--samples N] [--reps R] [--json]
//
// With --json the tables are also written to BENCH_event_sim_hotpath.json
// and BENCH_event_sim_layers.json for the CI perf-smoke artifact upload.
//
// The per-layer table splits the float simulator's time by layer: it
// replays each conv layer's recorded input spike train from a trace through
// kernels::integrate_conv and then fires the result through
// detail::fire_hwc, and each pool layer's input spikes, laid out as the HWC
// step grid a fire phase leaves, through detail::pool_grid; one thread,
// checking that every replay re-emits the trace's spikes. It replays every
// layer once per kernel tier this build and CPU run (kernels::cap_tier), so
// its "tier" column shows which layers a tier speeds up; the main table runs
// the default, highest tier, which the header names. Each (layer,
// sample) replays into one output trace kept across reps, as the simulator
// refills a reused trace, so "fire us" and "pool us" time the fire phase and
// not the allocation and first-touch faults of a fresh spike vector. The
// main table's minflt/sample column counts the minor page faults
// (getrusage, this process) each single-sample run takes; with traces
// recycled through the session's results it reads ~0 after warm-up.
//
// The stack's random weights saturate with depth: on these uniform images
// conv3's input is all whole-row runs (16 spikes at one step) and conv4's
// ~99 % runs of 15-16, i.e. nearly every deep neuron fires at one early
// step (perfbench's sim_float images: 86 / 99 / 96 % of conv3/4/5 input
// spikes sit in runs). The conv3-conv5 rows therefore time a degenerate
// activity pattern that favours the run-based kernels, which no trained
// network was shown to have.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "cat/logquant.h"
#include "common.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "snn/simd.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ttfs;

// VGG-style stack on 3x32x32: doubled channel widths across three pooled
// stages, then a classifier — the shape of the paper's VGG-16 workload scaled
// to bench runtime.
snn::SnnNetwork make_vgg_style(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(Tensor::uniform({16, 16, 3, 3}, rng, -0.1F, 0.18F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({32, 16, 3, 3}, rng, -0.1F, 0.15F),
               Tensor::uniform({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(Tensor::uniform({32, 32, 3, 3}, rng, -0.08F, 0.12F),
               Tensor::uniform({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({64, 32, 3, 3}, rng, -0.08F, 0.1F),
               Tensor::uniform({64}, rng, -0.04F, 0.08F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 64 * 4 * 4}, rng, -0.08F, 0.1F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Spike/op/cycle fingerprint of a trace — cheap proof both paths did the
// same work. Unsigned: the 31x mixing wraps by design.
std::uint64_t checksum(const snn::EventTrace& t) {
  std::uint64_t n = static_cast<std::uint64_t>(t.total_spikes()) * 31 +
                    static_cast<std::uint64_t>(t.total_integration_ops());
  for (const auto& l : t.layers) n = n * 31 + static_cast<std::uint64_t>(l.encoder_cycles);
  return n;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

bool same_spikes(const std::vector<snn::Spike>& a, const std::vector<snn::Spike>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const snn::Spike& x, const snn::Spike& y) {
                      return x.neuron == y.neuron && x.step == y.step;
                    });
}

struct LayerRow {
  std::string name;
  double integrate_s = 0.0, fire_s = 0.0, pool_s = 0.0;
  std::int64_t spikes_in = 0;
};

// Per-layer time (seconds over all samples, best of `reps`) for the float
// simulator on the active kernel tier, replayed from each sample's trace:
// integrate and fire per conv layer, pool per pool layer. Bias init and the
// pool's input grid are not timed. Clears `exact` if a replay re-emits
// different spikes.
std::vector<LayerRow> replay_layers(const snn::SnnNetwork& net,
                                    const std::vector<Tensor>& samples,
                                    const std::vector<snn::EventTrace>& traces, int reps,
                                    bool& exact) {
  const snn::ThresholdLut& lut = net.threshold_lut();
  std::vector<LayerRow> rows;
  // Replay outputs, one per (row, sample), reused across reps.
  std::vector<std::vector<snn::LayerEventTrace>> outs;
  snn::SimArena arena;
  snn::kernels::AlignedBuffer<float> acc_buf;
  snn::kernels::AlignedBuffer<int> grid_buf;
  for (int rep = 0; rep < reps; ++rep) {
    std::int64_t c = samples[0].dim(0), h = samples[0].dim(1), w = samples[0].dim(2);
    std::size_t conv_seen = 0, pool_seen = 0;
    std::size_t trace_layer = 0;  // the current layer's input spikes
    for (std::size_t li = 0; li < net.layers().size(); ++li) {
      const snn::SnnLayer& layer = net.layers()[li];
      if (const auto* pool = std::get_if<snn::SnnPool>(&layer)) {
        // The pool reads the HWC step grid its producer's fire phase left:
        // padded(c) lanes per pixel, padding lanes silent.
        const std::int64_t lanes = snn::kernels::padded(c);
        int* grid = grid_buf.ensure(lanes * h * w);
        const std::size_t row_at = conv_seen + pool_seen;
        if (rows.size() <= row_at) {
          rows.push_back({"pool" + std::to_string(pool_seen + 1)});
          outs.emplace_back(traces.size());
        }
        LayerRow& row = rows[row_at];
        double pool_s = 0.0;
        std::int64_t spikes_in = 0;
        for (std::size_t s = 0; s < traces.size(); ++s) {
          const snn::EventTrace& trace = traces[s];
          const auto& in = trace.layers[trace_layer].spikes;
          spikes_in += static_cast<std::int64_t>(in.size());
          std::fill(grid, grid + lanes * h * w, snn::kNoSpike);
          for (const snn::Spike& s : in) {
            grid[s.neuron % (h * w) * lanes + s.neuron / (h * w)] = s.step;
          }
          snn::LayerEventTrace& out = outs[row_at][s];
          const auto start = std::chrono::steady_clock::now();
          snn::detail::pool_grid(*pool, {grid, c, h, w, lanes, 1}, lut.window(), arena, out);
          pool_s += seconds_since(start);
          exact = exact && same_spikes(out.spikes, trace.layers[trace_layer + 1].spikes);
        }
        if (rep == 0 || pool_s < row.pool_s) row.pool_s = pool_s;
        row.spikes_in = spikes_in;
        h = (h - pool->kernel) / pool->stride + 1;
        w = (w - pool->kernel) / pool->stride + 1;
        ++pool_seen;
        ++trace_layer;
        continue;
      }
      const auto* conv = std::get_if<snn::SnnConv>(&layer);
      if (conv == nullptr) break;  // the classifier: no fire phase
      const auto& pw = std::get<snn::PackedConv>(net.packed_layers()[li]);
      snn::kernels::ConvGeom g;
      g.cin = c;
      g.hin = h;
      g.win = w;
      g.cout = pw.cout;
      g.cstride = pw.cstride;
      g.kh = pw.kh;
      g.kw = pw.kw;
      g.stride = conv->stride;
      g.pad = conv->pad;
      g.oh = (h + 2 * g.pad - g.kh) / g.stride + 1;
      g.ow = (w + 2 * g.pad - g.kw) / g.stride + 1;
      const std::int64_t pixels = g.oh * g.ow;
      float* acc = acc_buf.ensure(pixels * g.cstride);
      const std::size_t row_at = conv_seen + pool_seen;
      if (rows.size() <= row_at) {
        rows.push_back({"conv" + std::to_string(conv_seen + 1)});
        outs.emplace_back(traces.size());
      }
      LayerRow& row = rows[row_at];
      double integrate_s = 0.0, fire_s = 0.0;
      std::int64_t spikes_in = 0;
      for (std::size_t s = 0; s < traces.size(); ++s) {
        const snn::EventTrace& trace = traces[s];
        const auto& in = trace.layers[trace_layer].spikes;
        spikes_in += static_cast<std::int64_t>(in.size());
        std::fill(acc, acc + g.cstride, 0.0F);
        std::copy(conv->bias.data(), conv->bias.data() + conv->bias.numel(), acc);
        snn::kernels::broadcast_rows(acc, pixels, g.cstride);
        auto start = std::chrono::steady_clock::now();
        snn::kernels::integrate_conv(g, pw.w.data(), in.data(),
                                     static_cast<std::int64_t>(in.size()), lut, acc, 0, g.oh);
        integrate_s += seconds_since(start);
        snn::LayerEventTrace& out = outs[row_at][s];
        start = std::chrono::steady_clock::now();
        snn::detail::fire_hwc(lut, acc, g.cout, g.cstride, pixels, arena, out);
        fire_s += seconds_since(start);
        exact = exact && same_spikes(out.spikes, trace.layers[trace_layer + 1].spikes);
      }
      if (rep == 0 || integrate_s < row.integrate_s) row.integrate_s = integrate_s;
      if (rep == 0 || fire_s < row.fire_s) row.fire_s = fire_s;
      row.spikes_in = spikes_in;
      c = g.cout;
      h = g.oh;
      w = g.ow;
      ++conv_seen;
      ++trace_layer;
    }
  }
  return rows;
}

// The per-layer table (us per sample), one block of rows per kernel tier
// this build and CPU run, lowest first. Returns false if a replay re-emits
// different spikes on any tier.
bool per_layer_table(const snn::SnnNetwork& net, const std::vector<Tensor>& samples, int reps) {
  namespace k = snn::kernels;
  net.ensure_packed();
  std::vector<snn::EventTrace> traces;
  for (const Tensor& img : samples) traces.push_back(snn::run_event_sim(net, img));

  const double n = static_cast<double>(samples.size());
  // A conv row has no pool time and a pool row no integrate or fire time.
  const auto us = [n](double s, bool has) { return has ? Table::num(1e6 * s / n, 1) : "-"; };
  Table table{"event_sim_layers"};
  table.set_header({"layer", "tier", "integrate us", "fire us", "pool us", "spikes in/sample"});
  bool exact = true;
  for (const k::Tier tier : {k::Tier::kScalar, k::Tier::kAvx2, k::Tier::kAvx512}) {
    if (tier > k::supported_tier()) break;
    k::cap_tier(tier);
    for (const LayerRow& row : replay_layers(net, samples, traces, reps, exact)) {
      const bool conv = row.name.rfind("conv", 0) == 0;
      table.add_row({row.name, k::isa(), us(row.integrate_s, conv), us(row.fire_s, conv),
                     us(row.pool_s, !conv),
                     Table::num(static_cast<double>(row.spikes_in) / n, 0)});
    }
  }
  k::cap_tier(k::Tier::kAvx512);
  bench::emit(table);
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const CliArgs args{argc, argv};
  const std::int64_t samples = args.get_int("samples", 8);
  const int reps = args.get_int("reps", 3);

  Rng rng{42};
  const snn::SnnNetwork net = make_vgg_style(rng);
  std::vector<Tensor> samples_owned;
  samples_owned.reserve(static_cast<std::size_t>(samples));
  for (std::int64_t i = 0; i < samples; ++i) {
    samples_owned.push_back(Tensor::uniform({3, 32, 32}, rng, 0.0F, 1.0F));
  }

  std::cout << "\n### event-sim hot path — VGG-style stack, " << samples
            << " single-sample runs, best of " << reps << " reps, kernel tier "
            << snn::kernels::isa() << "\n\n";

  Table table{"event_sim_hotpath"};
  table.set_header({"simulator", "samples/s", "us/sample", "speedup", "minflt/sample"});

  const snn::Engine engine{net};
  snn::RunOptions ropts;
  ropts.logits = false;
  ropts.traces = true;

  // One single-sample run per iteration, mirroring the per-request shape of
  // the serving layer; the overhauled session keeps its one pre-reserved
  // arena across the whole loop (zero steady-state allocation).
  // Also returns the minor page faults per sample of the last rep.
  const auto measure = [&](snn::InferenceSession& session, std::uint64_t& sum,
                           double& faults) {
    double rate = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      sum = 0;
      const long faults0 = minor_faults();
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t i = 0; i < samples; ++i) {
        const std::vector<const Tensor*> one{&samples_owned[static_cast<std::size_t>(i)]};
        sum += checksum(session.run(snn::BatchView{one}, ropts).traces[0]);
      }
      rate = std::max(rate, static_cast<double>(samples) / seconds_since(start));
      faults = static_cast<double>(minor_faults() - faults0) / static_cast<double>(samples);
    }
    return rate;
  };

  double rate_ref = 0.0, rate_opt = 0.0;
  double faults_ref = 0.0, faults_opt = 0.0, faults_quant = 0.0;
  std::uint64_t sum_ref = 0, sum_opt = 0;

  snn::InferenceSession ref_session = engine.session(snn::BackendKind::kReference);
  rate_ref = measure(ref_session, sum_ref, faults_ref);

  snn::SessionOptions sopts;
  sopts.max_batch_hint = 1;
  sopts.input_shape = {3, 32, 32};
  snn::InferenceSession opt_session =
      engine.session(snn::BackendKind::kEventSim, std::move(sopts));
  rate_opt = measure(opt_session, sum_opt, faults_opt);

  // Quantized lane: the same stack log-quantized, then run through both the
  // float event sim and the int16 fixed-point backend. Their integer
  // artifacts (spikes, ops, cycles) must agree exactly — the same
  // conformance snn_engine_test asserts — so the quantized row's speedup is
  // again for bit-identical work.
  snn::SnnNetwork qnet = net;
  cat::log_quantize_network(qnet, cat::LogQuantConfig{});
  const snn::Engine qengine{qnet};
  std::uint64_t sum_qevent = 0;
  {
    snn::InferenceSession qevent = qengine.session(snn::BackendKind::kEventSim);
    for (std::int64_t i = 0; i < samples; ++i) {
      const std::vector<const Tensor*> one{&samples_owned[static_cast<std::size_t>(i)]};
      sum_qevent += checksum(qevent.run(snn::BatchView{one}, ropts).traces[0]);
    }
  }
  snn::SessionOptions qopts;
  qopts.max_batch_hint = 1;
  qopts.input_shape = {3, 32, 32};
  snn::InferenceSession quant_session =
      qengine.session(snn::BackendKind::kQuantized, std::move(qopts));
  std::uint64_t sum_quant = 0;
  const double rate_quant = measure(quant_session, sum_quant, faults_quant);

  table.add_row({"reference", Table::num(rate_ref, 1), Table::num(1e6 / rate_ref, 1), "1.00x",
                 Table::num(faults_ref, 1)});
  table.add_row({"overhauled", Table::num(rate_opt, 1), Table::num(1e6 / rate_opt, 1),
                 Table::num(rate_opt / rate_ref, 2) + "x", Table::num(faults_opt, 1)});
  table.add_row({"quantized", Table::num(rate_quant, 1), Table::num(1e6 / rate_quant, 1),
                 Table::num(rate_quant / rate_ref, 2) + "x", Table::num(faults_quant, 1)});
  bench::emit(table);

  std::cout << "\n### float event sim per layer and kernel tier — " << samples
            << " replayed samples, one thread, best of " << reps << " reps\n\n";
  if (!per_layer_table(net, samples_owned, reps)) {
    std::cerr << "PER-LAYER REPLAY MISMATCH: fire_hwc or pool_grid re-emitted different "
                 "spikes\n";
    return 1;
  }

  if (sum_ref != sum_opt) {
    std::cerr << "CHECKSUM MISMATCH: reference " << sum_ref << " vs overhauled " << sum_opt
              << "\n";
    return 1;
  }
  if (sum_qevent != sum_quant) {
    std::cerr << "CHECKSUM MISMATCH: quantized-net event " << sum_qevent << " vs quantized "
              << sum_quant << "\n";
    return 1;
  }
  std::cout << "(checksums match: " << sum_ref << "; quantized " << sum_quant << ")\n";
  return 0;
}
