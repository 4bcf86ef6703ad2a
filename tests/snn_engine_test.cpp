// Backend-conformance suite for the snn::Engine / InferenceSession API.
//
// The engine is a facade over frozen primitives — run_event_sim (event) and
// reference::run_event_sim (oracle) — so every session result must be
// bit-identical to the matching primitive driven in a sequential loop. The
// core matrix runs one golden batch through both float backends × batch
// sizes {1, 7, 32} × every RunOptions combination (logits × traces) and
// checks merged logits and full spike traces against those goldens; the
// integer artifacts read off each trace (stats_from_trace, the argmax) must
// additionally agree with SnnNetwork::forward, the conversion-math oracle
// (decode . fire).
// Also covered: the quantized backend against the float event sim on a
// log-quantized net, NCHW vs gathered batch views, arena/session reuse
// across runs and differently-shaped networks, the zero-thread inline pool,
// and const-correctness of the whole inference surface.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "serve/result.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/network.h"
#include "snn/simd.h"
#include "kernel_tiers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

constexpr std::int64_t kMaxBatch = 32;

// Small conv/pool/fc stack on 3x8x8 inputs; cheap enough that the reference
// oracle can run the full matrix.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

// A differently-shaped network (wider input, second conv, more classes) for
// the shared-backend / arena-reuse cases.
snn::SnnNetwork make_other_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(Tensor::uniform({12, 6, 3, 3}, rng, -0.1F, 0.15F), Tensor{{12}}, 2, 1);
  net.add_fc(Tensor::uniform({4, 12 * 6 * 6}, rng, -0.1F, 0.12F),
             Tensor::uniform({4}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::int64_t n, std::vector<std::int64_t> shape) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    images.push_back(Tensor::uniform(shape, rng, 0.0F, 1.0F));
  }
  return images;
}

std::vector<const Tensor*> gather(const std::vector<Tensor>& images, std::int64_t n) {
  std::vector<const Tensor*> out;
  for (std::int64_t i = 0; i < n; ++i) out.push_back(&images[static_cast<std::size_t>(i)]);
  return out;
}

std::int64_t argmax(const Tensor& row) {
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < row.numel(); ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

// The frozen pre-engine goldens for one sample: forward()'s logits and stats
// record, and the two simulators' full traces.
struct SampleGolden {
  Tensor forward_logits;    // (1, classes) — SnnNetwork::forward
  snn::SnnRunStats stats;   // forward()'s counters (integer: backend-agnostic)
  snn::EventTrace event;    // run_event_sim
  snn::EventTrace reference;  // reference::run_event_sim
};

std::vector<SampleGolden> make_goldens(const snn::SnnNetwork& net,
                                       const std::vector<Tensor>& images) {
  std::vector<SampleGolden> goldens(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor& img = images[i];
    Tensor batch1{{1, img.dim(0), img.dim(1), img.dim(2)}, std::vector<float>(img.vec())};
    goldens[i].forward_logits = net.forward(batch1, &goldens[i].stats);
    goldens[i].event = snn::run_event_sim(net, img);
    goldens[i].reference = snn::reference::run_event_sim(net, img);
  }
  return goldens;
}

const Tensor& golden_logits(const SampleGolden& g, snn::BackendKind kind) {
  switch (kind) {
    case snn::BackendKind::kEventSim: return g.event.logits;
    case snn::BackendKind::kReference: return g.reference.logits;
    case snn::BackendKind::kQuantized: break;  // banded, not bit-exact: see below
  }
  ADD_FAILURE() << "no bit-exact logits golden for backend " << snn::to_string(kind);
  return g.forward_logits;
}

const snn::EventTrace& golden_trace(const SampleGolden& g, snn::BackendKind kind) {
  return kind == snn::BackendKind::kReference ? g.reference : g.event;
}

void expect_rows_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << what << " logit " << j;
  }
}

void expect_stats_equal(const snn::SnnRunStats& got, const snn::SnnRunStats& want,
                        const std::string& what) {
  EXPECT_EQ(got.images, want.images) << what;
  EXPECT_EQ(got.spikes_per_layer, want.spikes_per_layer) << what;
  EXPECT_EQ(got.neurons_per_layer, want.neurons_per_layer) << what;
}

void expect_traces_identical(const snn::EventTrace& got, const snn::EventTrace& want,
                             const std::string& what) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    ASSERT_EQ(got.layers[l].spikes.size(), want.layers[l].spikes.size())
        << what << " layer " << l;
    for (std::size_t s = 0; s < want.layers[l].spikes.size(); ++s) {
      EXPECT_EQ(got.layers[l].spikes[s].neuron, want.layers[l].spikes[s].neuron)
          << what << " layer " << l << " spike " << s;
      EXPECT_EQ(got.layers[l].spikes[s].step, want.layers[l].spikes[s].step)
          << what << " layer " << l << " spike " << s;
    }
    EXPECT_EQ(got.layers[l].neuron_count, want.layers[l].neuron_count) << what << " layer " << l;
    EXPECT_EQ(got.layers[l].integration_ops, want.layers[l].integration_ops)
        << what << " layer " << l;
    EXPECT_EQ(got.layers[l].encoder_cycles, want.layers[l].encoder_cycles)
        << what << " layer " << l;
  }
  expect_rows_equal(got.logits, want.logits, what);
}

// Checks what every caller reads off sample i's trace: its stats and its
// prediction are integer artifacts that agree across all backends, so
// forward()'s record and argmax are the single golden.
void expect_trace_outputs_match(const snn::SnnNetwork& net, const snn::EventTrace& trace,
                                const SampleGolden& golden, const std::string& what) {
  expect_stats_equal(snn::stats_from_trace(net, trace), golden.stats, what);
  EXPECT_EQ(serve::predicted_class(trace.logits), argmax(golden.forward_logits)) << what;
}

// Checks one RunResult against the goldens for samples [0, n) under the
// given options: requested artifacts bit-identical, unrequested ones empty.
void expect_result_matches(const snn::SnnNetwork& net, const snn::RunResult& run,
                           const std::vector<SampleGolden>& goldens, std::int64_t n,
                           snn::BackendKind kind, const snn::RunOptions& opts,
                           const std::string& what) {
  if (opts.logits) {
    ASSERT_EQ(run.logits.dim(0), n) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      expect_rows_equal(run.logits.slice0(i, 1),
                        golden_logits(goldens[static_cast<std::size_t>(i)], kind),
                        what + " sample " + std::to_string(i));
    }
  } else {
    EXPECT_TRUE(run.logits.empty()) << what;
  }

  if (opts.traces) {
    ASSERT_EQ(run.traces.size(), static_cast<std::size_t>(n)) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      const snn::EventTrace& trace = run.traces[static_cast<std::size_t>(i)];
      const SampleGolden& golden = goldens[static_cast<std::size_t>(i)];
      const std::string sample = what + " sample " + std::to_string(i);
      expect_traces_identical(trace, golden_trace(golden, kind), sample);
      expect_trace_outputs_match(net, trace, golden, sample);
    }
  } else {
    EXPECT_TRUE(run.traces.empty()) << what;
  }
}

// Shared fixture data, built once: one golden batch, goldens from the frozen
// primitives, everything accessed through const SnnNetwork& (the inference
// surface must never need a mutable network).
class SnnEngineConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng{501};
    net_ = new snn::SnnNetwork{make_net(rng)};
    images_ = new std::vector<Tensor>{make_images(rng, kMaxBatch, {3, 8, 8})};
    goldens_ = new std::vector<SampleGolden>{make_goldens(*net_, *images_)};
  }
  static void TearDownTestSuite() {
    delete goldens_;
    delete images_;
    delete net_;
    goldens_ = nullptr;
    images_ = nullptr;
    net_ = nullptr;
  }

  static const snn::SnnNetwork& net() { return *net_; }
  static const std::vector<Tensor>& images() { return *images_; }
  static const std::vector<SampleGolden>& goldens() { return *goldens_; }

 private:
  static const snn::SnnNetwork* net_;
  static const std::vector<Tensor>* images_;
  static const std::vector<SampleGolden>* goldens_;
};

const snn::SnnNetwork* SnnEngineConformance::net_ = nullptr;
const std::vector<Tensor>* SnnEngineConformance::images_ = nullptr;
const std::vector<SampleGolden>* SnnEngineConformance::goldens_ = nullptr;

// The acceptance matrix: every backend × batch size {1, 7, 32} × every
// RunOptions combination, one session per backend reused across the whole
// sweep (arena reuse across runs is part of what is proven).
TEST_F(SnnEngineConformance, AllBackendsBitIdenticalAcrossBatchAndOptions) {
  const snn::Engine engine{net()};
  for (const snn::BackendKind kind : {snn::BackendKind::kEventSim, snn::BackendKind::kReference}) {
    snn::InferenceSession session = engine.session(kind);
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, kMaxBatch}) {
      const std::vector<const Tensor*> batch = gather(images(), n);
      for (int mask = 0; mask < 4; ++mask) {
        snn::RunOptions opts;
        opts.logits = (mask & 1) != 0;
        opts.traces = (mask & 2) != 0;
        const std::string what = "backend=" + snn::to_string(kind) + " n=" +
                                 std::to_string(n) + " mask=" + std::to_string(mask);
        const snn::RunResult run = session.run(snn::BatchView{batch}, opts);
        expect_result_matches(net(), run, goldens(), n, kind, opts, what);
      }
    }
  }
}

// A contiguous (N, C, H, W) view and the gathered per-sample view of the
// same images are the same batch.
TEST_F(SnnEngineConformance, NchwAndGatheredViewsAgree) {
  const std::int64_t n = 7;
  Tensor nchw{{n, 3, 8, 8}};
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor& img = images()[static_cast<std::size_t>(i)];
    std::copy(img.data(), img.data() + img.numel(), nchw.data() + i * img.numel());
  }
  const snn::Engine engine{net()};
  snn::RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  for (const snn::BackendKind kind : {snn::BackendKind::kEventSim, snn::BackendKind::kReference}) {
    snn::InferenceSession session = engine.session(kind);
    const snn::RunResult from_nchw = session.run(snn::BatchView{nchw}, opts);
    const snn::RunResult from_gathered = session.run(snn::BatchView{gather(images(), n)}, opts);
    const std::string what = "backend=" + snn::to_string(kind);
    expect_rows_equal(from_nchw.logits, from_gathered.logits, what);
    ASSERT_EQ(from_nchw.traces.size(), from_gathered.traces.size()) << what;
    for (std::size_t i = 0; i < from_nchw.traces.size(); ++i) {
      expect_traces_identical(from_nchw.traces[i], from_gathered.traces[i],
                              what + " sample " + std::to_string(i));
    }
  }
}

// A 0-thread pool must run every sample inline on the caller with results
// unchanged — the single-threaded serving configuration.
TEST_F(SnnEngineConformance, ZeroThreadInlinePoolMatchesGoldens) {
  ThreadPool inline_pool{0};
  const snn::Engine engine{net()};
  snn::RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  for (const snn::BackendKind kind : {snn::BackendKind::kEventSim, snn::BackendKind::kReference}) {
    snn::SessionOptions sopts;
    sopts.pool = &inline_pool;
    snn::InferenceSession session = engine.session(kind, std::move(sopts));
    const snn::RunResult run = session.run(snn::BatchView{gather(images(), 5)}, opts);
    expect_result_matches(net(), run, goldens(), 5, kind, opts,
                          "inline backend=" + snn::to_string(kind));
  }
}

// One shared backend instance drives sessions over differently-shaped
// networks, interleaved; arenas are per-session scratch and sessions reuse
// them across runs of different batch sizes, so nothing may leak between
// networks, runs, or samples.
TEST_F(SnnEngineConformance, SharedBackendAcrossDifferentlyShapedNetworks) {
  Rng rng{777};
  const snn::SnnNetwork other = make_other_net(rng);
  const std::vector<Tensor> other_images = make_images(rng, 5, {3, 12, 12});
  const std::vector<SampleGolden> other_goldens = make_goldens(other, other_images);

  const std::shared_ptr<const snn::InferenceBackend> backend =
      snn::make_backend(snn::BackendKind::kEventSim);
  snn::SessionOptions small_opts;
  small_opts.max_batch_hint = 4;
  small_opts.input_shape = {3, 8, 8};
  snn::InferenceSession small = snn::Engine{net()}.session(backend, std::move(small_opts));
  snn::InferenceSession big = snn::Engine{other}.session(backend);

  snn::RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  const snn::BackendKind kind = snn::BackendKind::kEventSim;
  for (const std::int64_t n : {std::int64_t{5}, std::int64_t{1}, std::int64_t{3}}) {
    const snn::RunResult a = small.run(snn::BatchView{gather(images(), n)}, opts);
    expect_result_matches(net(), a, goldens(), n, kind, opts, "small n=" + std::to_string(n));
    const snn::RunResult b = big.run(snn::BatchView{gather(other_images, n)}, opts);
    expect_result_matches(other, b, other_goldens, n, kind, opts, "big n=" + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// Quantized backend conformance.
//
// The quantized backend runs the SAME log-quantized network as the float
// event sim, so the comparison is apples-to-apples: every weight is already
// sign * 2^(q * 2^-z), and the two paths differ only in arithmetic — float
// adds vs LogPe shift-adds into a fixed-point accumulator.
//
// Integer artifacts (spikes, neuron counts, integration ops, encoder cycles,
// and the stats and predictions read off a trace) must agree EXACTLY: firing
// compares the membrane against power-of-two thresholds, and at
// kQuantLutBits = kQuantAccFracBits = 24 the per-add rounding (~6e-8) never
// crosses a threshold for this golden batch — the same exactness the
// hw/processor co-sim relies on.
//
// Logits carry the rounding, bounded per output by README's fixed-point band
//   |quant - float| <= (n_adds + 1) * (2^-kQuantLutBits * max|w * theta|
//                                      + 2^-kQuantAccFracBits)
// (one LUT-entry rounding, relative, plus one shift-out rounding, absolute,
// per synaptic add and bias). Each rounding is at most half an LSB, so the
// band leaves room for the float sim's own float32 rounding of the same sum:
// on this batch |quant - float| peaks at ~7e-7, 12x inside. For this net the
// logits are the fc layer's: n_adds <= 8 * 4 * 4 inputs, and |w * theta| <=
// 2^-3, since theta0 = 1 bounds every level and the 5-bit quantizer anchors
// weights drawn from [-0.1, 0.12] at 2^(-6 * 2^-1).
constexpr double kQuantLogitBand =
    (8 * 4 * 4 + 1) * (0.125 / static_cast<double>(std::int64_t{1} << snn::kQuantLutBits) +
                       1.0 / static_cast<double>(std::int64_t{1} << snn::kQuantAccFracBits));

void expect_rows_close(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_NEAR(got[j], want[j], kQuantLogitBand) << what << " logit " << j;
  }
}

// Trace equality for the quantized backend: integer artifacts exact against
// the float event trace, logits within the fixed-point tolerance.
void expect_traces_match_quantized(const snn::EventTrace& got, const snn::EventTrace& want,
                                   const std::string& what) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    ASSERT_EQ(got.layers[l].spikes.size(), want.layers[l].spikes.size()) << what << " layer " << l;
    for (std::size_t s = 0; s < want.layers[l].spikes.size(); ++s) {
      EXPECT_EQ(got.layers[l].spikes[s].neuron, want.layers[l].spikes[s].neuron)
          << what << " layer " << l << " spike " << s;
      EXPECT_EQ(got.layers[l].spikes[s].step, want.layers[l].spikes[s].step)
          << what << " layer " << l << " spike " << s;
    }
    EXPECT_EQ(got.layers[l].neuron_count, want.layers[l].neuron_count) << what << " layer " << l;
    EXPECT_EQ(got.layers[l].integration_ops, want.layers[l].integration_ops)
        << what << " layer " << l;
    EXPECT_EQ(got.layers[l].encoder_cycles, want.layers[l].encoder_cycles)
        << what << " layer " << l;
  }
  expect_rows_close(got.logits, want.logits, what);
}

// Same shape as SnnEngineConformance, but the network is log-quantized and
// the goldens (forward stats, float event traces) are rebuilt on it.
class SnnEngineQuantizedConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng{501};
    snn::SnnNetwork net = make_net(rng);
    cat::log_quantize_network(net, cat::LogQuantConfig{});
    net_ = new snn::SnnNetwork{std::move(net)};
    images_ = new std::vector<Tensor>{make_images(rng, kMaxBatch, {3, 8, 8})};
    goldens_ = new std::vector<SampleGolden>{make_goldens(*net_, *images_)};
  }
  static void TearDownTestSuite() {
    delete goldens_;
    delete images_;
    delete net_;
    goldens_ = nullptr;
    images_ = nullptr;
    net_ = nullptr;
  }

  static const snn::SnnNetwork& net() { return *net_; }
  static const std::vector<Tensor>& images() { return *images_; }
  static const std::vector<SampleGolden>& goldens() { return *goldens_; }

 private:
  static const snn::SnnNetwork* net_;
  static const std::vector<Tensor>* images_;
  static const std::vector<SampleGolden>* goldens_;
};

const snn::SnnNetwork* SnnEngineQuantizedConformance::net_ = nullptr;
const std::vector<Tensor>* SnnEngineQuantizedConformance::images_ = nullptr;
const std::vector<SampleGolden>* SnnEngineQuantizedConformance::goldens_ = nullptr;

// The quantized acceptance matrix: batch sizes {1, 7, 32} × every RunOptions
// combination against float-event-sim goldens on the quantized net.
TEST_F(SnnEngineQuantizedConformance, MatchesEventSimAcrossBatchAndOptions) {
  const snn::Engine engine{net()};
  snn::InferenceSession session = engine.session(snn::BackendKind::kQuantized);
  EXPECT_EQ(session.backend().name(), "quantized");
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, kMaxBatch}) {
    const std::vector<const Tensor*> batch = gather(images(), n);
    for (int mask = 0; mask < 4; ++mask) {
      snn::RunOptions opts;
      opts.logits = (mask & 1) != 0;
      opts.traces = (mask & 2) != 0;
      const std::string what = "quantized n=" + std::to_string(n) + " mask=" +
                               std::to_string(mask);
      const snn::RunResult run = session.run(snn::BatchView{batch}, opts);

      if (opts.logits) {
        ASSERT_EQ(run.logits.dim(0), n) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          expect_rows_close(run.logits.slice0(i, 1), goldens()[static_cast<std::size_t>(i)].event.logits,
                            what + " sample " + std::to_string(i));
        }
      } else {
        EXPECT_TRUE(run.logits.empty()) << what;
      }
      if (opts.traces) {
        ASSERT_EQ(run.traces.size(), static_cast<std::size_t>(n)) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          const snn::EventTrace& trace = run.traces[static_cast<std::size_t>(i)];
          const SampleGolden& golden = goldens()[static_cast<std::size_t>(i)];
          const std::string sample = what + " sample " + std::to_string(i);
          expect_traces_match_quantized(trace, golden.event, sample);
          expect_trace_outputs_match(net(), trace, golden, sample);
        }
      } else {
        EXPECT_TRUE(run.traces.empty()) << what;
      }
    }
  }
}

// Both batch views go through the same integer path, so the quantized
// backend owes BITWISE equality between them, not just tolerance.
TEST_F(SnnEngineQuantizedConformance, NchwAndGatheredViewsAgreeBitwise) {
  const std::int64_t n = 7;
  Tensor nchw{{n, 3, 8, 8}};
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor& img = images()[static_cast<std::size_t>(i)];
    std::copy(img.data(), img.data() + img.numel(), nchw.data() + i * img.numel());
  }
  const snn::Engine engine{net()};
  snn::InferenceSession session = engine.session(snn::BackendKind::kQuantized);
  snn::RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  const snn::RunResult from_nchw = session.run(snn::BatchView{nchw}, opts);
  const snn::RunResult from_gathered = session.run(snn::BatchView{gather(images(), n)}, opts);
  expect_rows_equal(from_nchw.logits, from_gathered.logits, "quantized views");
  ASSERT_EQ(from_nchw.traces.size(), from_gathered.traces.size());
  for (std::size_t i = 0; i < from_nchw.traces.size(); ++i) {
    expect_traces_identical(from_nchw.traces[i], from_gathered.traces[i],
                            "quantized views trace " + std::to_string(i));
  }
}

// Pins one kernel tier and block budget for a scope (kernels::cap_tier,
// set_acc_block_bytes), restoring the defaults on exit.
struct ScopedKernelPath {
  ScopedKernelPath(snn::kernels::Tier tier, std::int64_t block_bytes) : tier{tier} {
    snn::kernels::set_acc_block_bytes(block_bytes);
  }
  ~ScopedKernelPath() { snn::kernels::set_acc_block_bytes(0); }
  kernel_test::ScopedTier tier;
};

// The quantized backend runs through the float path's spike-parallel split: a
// batch of 1 on a multi-worker pool fans large layers out over disjoint
// output lanes. Each lane keeps its saturating adds in spike order, so the
// split must be bitwise invisible: traces and logits equal an inline
// (ThreadPool{0}) session's, under the default and a 256-byte block budget,
// on every supported kernel tier. The net is
// KernelConformance.IntraSampleSplitMatchesReference's 3x16x16 stack, whose
// conv layer clears the split's work threshold, log-quantized.
TEST(SnnEngineQuantizedSplit, IntraSampleSplitIsBitwiseInvisible) {
  Rng rng{906};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({12, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 12 * 8 * 8}, rng, -0.05F, 0.06F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  const Tensor img = Tensor::uniform({3, 16, 16}, rng, 0.1F, 1.0F);
  cat::log_quantize_network(net, cat::LogQuantConfig{});

  ThreadPool wide{4};
  ThreadPool inline_pool{0};
  snn::SessionOptions split_opts;
  split_opts.pool = &wide;
  snn::SessionOptions inline_opts;
  inline_opts.pool = &inline_pool;
  const auto backend = snn::make_backend(snn::BackendKind::kQuantized);
  snn::InferenceSession split{net, backend, std::move(split_opts)};
  snn::InferenceSession inline_session{net, backend, std::move(inline_opts)};
  snn::RunOptions ropts;
  ropts.traces = true;
  ropts.logits = true;
  const Tensor one = img.reshaped({1, 3, 16, 16});
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{256}}) {
    for (const snn::kernels::Tier tier : kernel_test::runnable_tiers()) {
      const ScopedKernelPath path{tier, block};
      const std::string what = std::string{snn::kernels::isa()} + " block=" +
                               std::to_string(block);
      const snn::RunResult got = split.run(snn::BatchView{one}, ropts);
      const snn::RunResult want = inline_session.run(snn::BatchView{one}, ropts);
      ASSERT_EQ(got.traces.size(), 1U) << what;
      ASSERT_EQ(want.traces.size(), 1U) << what;
      ASSERT_GT(want.traces[0].total_spikes(), 0) << what;
      expect_traces_identical(got.traces[0], want.traces[0], what);
      expect_rows_equal(got.logits, want.logits, what);
    }
  }
}

// Several threads share one log-quantized network whose packs were never
// built. Each opens its own event and quantized sessions only once all are
// ready, so both packs are built lazily under contention (a session builds
// its backend's pack on construction). Every trace must equal the
// sequential goldens. Each round shares a fresh copy: a copy starts with no
// packs.
TEST(SnnEngine, ConcurrentFirstRunsBuildBothPacksOnce) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  constexpr std::int64_t kBatch = 3;
  Rng rng{811};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});
  const std::vector<Tensor> images = make_images(rng, kBatch, {3, 8, 8});
  const snn::BatchView batch{gather(images, kBatch)};
  snn::RunOptions opts;
  opts.logits = false;
  opts.traces = true;
  const snn::BackendKind kinds[] = {snn::BackendKind::kEventSim, snn::BackendKind::kQuantized};
  ThreadPool inline_pool{0};
  snn::SessionOptions sopts;
  sopts.pool = &inline_pool;

  std::vector<snn::RunResult> goldens;
  for (const snn::BackendKind kind : kinds) {
    snn::InferenceSession session{net, snn::make_backend(kind), sopts};
    goldens.push_back(session.run(batch, opts));
  }

  for (int round = 0; round < kRounds; ++round) {
    const snn::SnnNetwork shared = net;
    ASSERT_EQ(shared.packed_bytes(), 0U);
    ASSERT_EQ(shared.quantized_bytes(), 0U);
    // results[t][k]: thread t's run on kinds[k]. Odd threads open the
    // quantized session first, so each pack's first build races the other's.
    std::vector<std::vector<snn::RunResult>> results(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ThreadPool thread_pool{0};
        snn::SessionOptions thread_opts;
        thread_opts.pool = &thread_pool;
        std::vector<snn::RunResult>& mine = results[static_cast<std::size_t>(t)];
        mine.resize(2);
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < 2; ++i) {
          const std::size_t k = static_cast<std::size_t>(t % 2 == 0 ? i : 1 - i);
          snn::InferenceSession session{shared, snn::make_backend(kinds[k]), thread_opts};
          mine[k] = session.run(batch, opts);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t) {
      for (std::size_t k = 0; k < 2; ++k) {
        const snn::RunResult& got = results[static_cast<std::size_t>(t)][k];
        ASSERT_EQ(got.traces.size(), static_cast<std::size_t>(kBatch));
        for (std::size_t i = 0; i < got.traces.size(); ++i) {
          expect_traces_identical(got.traces[i], goldens[k].traces[i],
                                  "round " + std::to_string(round) + " thread " +
                                      std::to_string(t) + " " + snn::to_string(kinds[k]) +
                                      " sample " + std::to_string(i));
        }
      }
    }
    EXPECT_GT(shared.packed_bytes(), 0U);
    EXPECT_GT(shared.quantized_bytes(), 0U);
  }
}

TEST(SnnEngine, BackendKindStringsRoundTrip) {
  for (const snn::BackendKind kind :
       {snn::BackendKind::kEventSim, snn::BackendKind::kReference, snn::BackendKind::kQuantized}) {
    EXPECT_EQ(snn::backend_kind_from_string(snn::to_string(kind)), kind);
    EXPECT_EQ(snn::make_backend(kind)->name(), snn::to_string(kind));
  }
  // One spelling per backend: the retired GEMM backend and the old
  // "event_sim" alias are unknown names like any other, and the error lists
  // exactly the remaining spellings.
  for (const std::string name : {"gemm", "event_sim", "tpu"}) {
    try {
      (void)snn::backend_kind_from_string(name);
      ADD_FAILURE() << name << " must not parse";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("(want event|reference|quantized)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SnnEngine, EmptyBatchYieldsEmptyResult) {
  Rng rng{9};
  const snn::SnnNetwork net = make_net(rng);
  snn::InferenceSession session = snn::Engine{net}.session(snn::BackendKind::kEventSim);
  snn::RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  const snn::RunResult run = session.run(snn::BatchView{std::vector<const Tensor*>{}}, opts);
  EXPECT_EQ(run.logits.dim(0), 0);
  EXPECT_TRUE(run.traces.empty());
}

}  // namespace
}  // namespace ttfs
