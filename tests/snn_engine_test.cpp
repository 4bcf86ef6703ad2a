// Backend-conformance suite for the snn::Engine / InferenceSession API.
//
// The engine is a facade over three pre-existing, frozen primitives —
// SnnNetwork::forward (GEMM), run_event_sim (event), and
// reference::run_event_sim (oracle) — so every session result must be
// bit-identical to the matching primitive driven in a sequential loop. The
// core matrix runs one golden batch through all three backends × batch sizes
// {1, 7, 32} × every RunOptions combination and checks logits, predictions,
// per-sample stats, and full spike traces against those goldens; integer
// artifacts (stats, predictions) must additionally agree *across* backends.
// Also covered: NCHW vs gathered batch views, arena/session reuse across
// runs and differently-shaped networks, the zero-thread inline pool, the
// gemm-cannot-trace contract, and const-correctness of the whole inference
// surface.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

constexpr std::int64_t kMaxBatch = 32;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Small conv/pool/fc stack on 3x8x8 inputs; cheap enough that the reference
// oracle can run the full matrix.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

// A differently-shaped network (wider input, second conv, more classes) for
// the shared-backend / arena-reuse cases.
snn::SnnNetwork make_other_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(random_tensor({12, 6, 3, 3}, rng, -0.1F, 0.15F), Tensor{{12}}, 2, 1);
  net.add_fc(random_tensor({4, 12 * 6 * 6}, rng, -0.1F, 0.12F),
             random_tensor({4}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::int64_t n, std::vector<std::int64_t> shape) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    images.push_back(random_tensor(shape, rng, 0.0F, 1.0F));
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

// The frozen pre-engine goldens for one sample: per-backend logits, the
// forward() stats record, and the two simulators' full traces.
struct SampleGolden {
  Tensor gemm_logits;       // (1, classes) — SnnNetwork::forward
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
    goldens[i].gemm_logits = net.forward(batch1, &goldens[i].stats);
    goldens[i].event = snn::run_event_sim(net, img);
    goldens[i].reference = snn::reference::run_event_sim(net, img);
  }
  return goldens;
}

const Tensor& golden_logits(const SampleGolden& g, snn::BackendKind kind) {
  switch (kind) {
    case snn::BackendKind::kGemm: return g.gemm_logits;
    case snn::BackendKind::kEventSim: return g.event.logits;
    case snn::BackendKind::kReference: return g.reference.logits;
    case snn::BackendKind::kQuantized: break;  // banded, not bit-exact: see below
  }
  ADD_FAILURE() << "no bit-exact logits golden for backend " << snn::to_string(kind);
  return g.gemm_logits;
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

// Checks one RunResult against the goldens for samples [0, n) under the
// given options: requested artifacts bit-identical, unrequested ones empty.
void expect_result_matches(const snn::RunResult& run, const std::vector<SampleGolden>& goldens,
                           std::int64_t n, snn::BackendKind kind, const snn::RunOptions& opts,
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

  if (opts.logit_rows) {
    ASSERT_EQ(run.logit_rows.size(), static_cast<std::size_t>(n)) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      expect_rows_equal(run.logit_rows[static_cast<std::size_t>(i)],
                        golden_logits(goldens[static_cast<std::size_t>(i)], kind),
                        what + " row " + std::to_string(i));
    }
  } else {
    EXPECT_TRUE(run.logit_rows.empty()) << what;
  }

  if (opts.predictions) {
    ASSERT_EQ(run.predicted.size(), static_cast<std::size_t>(n)) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      // Predictions are integer artifacts: identical for every backend.
      EXPECT_EQ(run.predicted[static_cast<std::size_t>(i)],
                argmax(goldens[static_cast<std::size_t>(i)].gemm_logits))
          << what << " sample " << i;
    }
  } else {
    EXPECT_TRUE(run.predicted.empty()) << what;
  }

  if (opts.stats) {
    ASSERT_EQ(run.stats.size(), static_cast<std::size_t>(n)) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      // Spike/neuron counters are integers and agree across all backends, so
      // forward()'s record is the single golden.
      expect_stats_equal(run.stats[static_cast<std::size_t>(i)],
                         goldens[static_cast<std::size_t>(i)].stats,
                         what + " sample " + std::to_string(i));
    }
  } else {
    EXPECT_TRUE(run.stats.empty()) << what;
  }

  if (opts.traces) {
    ASSERT_EQ(run.traces.size(), static_cast<std::size_t>(n)) << what;
    for (std::int64_t i = 0; i < n; ++i) {
      expect_traces_identical(run.traces[static_cast<std::size_t>(i)],
                              golden_trace(goldens[static_cast<std::size_t>(i)], kind),
                              what + " sample " + std::to_string(i));
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
  for (const snn::BackendKind kind :
       {snn::BackendKind::kGemm, snn::BackendKind::kEventSim, snn::BackendKind::kReference}) {
    snn::InferenceSession session = engine.session(kind);
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, kMaxBatch}) {
      const std::vector<const Tensor*> batch = gather(images(), n);
      for (int mask = 0; mask < 32; ++mask) {
        snn::RunOptions opts;
        opts.logits = (mask & 1) != 0;
        opts.predictions = (mask & 2) != 0;
        opts.stats = (mask & 4) != 0;
        opts.traces = (mask & 8) != 0;
        opts.logit_rows = (mask & 16) != 0;
        const std::string what = "backend=" + snn::to_string(kind) + " n=" +
                                 std::to_string(n) + " mask=" + std::to_string(mask);
        if (opts.traces && !session.backend().supports_traces()) {
          EXPECT_THROW((void)session.run(snn::BatchView{batch}, opts), std::invalid_argument)
              << what;
          continue;
        }
        const snn::RunResult run = session.run(snn::BatchView{batch}, opts);
        expect_result_matches(run, goldens(), n, kind, opts, what);
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
  opts.predictions = true;
  opts.stats = true;
  for (const snn::BackendKind kind : {snn::BackendKind::kGemm, snn::BackendKind::kEventSim}) {
    snn::InferenceSession session = engine.session(kind);
    const snn::RunResult from_nchw = session.run(snn::BatchView{nchw}, opts);
    const snn::RunResult from_gathered = session.run(snn::BatchView{gather(images(), n)}, opts);
    const std::string what = "backend=" + snn::to_string(kind);
    expect_rows_equal(from_nchw.logits, from_gathered.logits, what);
    EXPECT_EQ(from_nchw.predicted, from_gathered.predicted) << what;
    ASSERT_EQ(from_nchw.stats.size(), from_gathered.stats.size()) << what;
    for (std::size_t i = 0; i < from_nchw.stats.size(); ++i) {
      expect_stats_equal(from_nchw.stats[i], from_gathered.stats[i],
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
  opts.stats = true;
  for (const snn::BackendKind kind : {snn::BackendKind::kGemm, snn::BackendKind::kEventSim,
                                      snn::BackendKind::kReference}) {
    snn::SessionOptions sopts;
    sopts.pool = &inline_pool;
    snn::InferenceSession session = engine.session(kind, std::move(sopts));
    const snn::RunResult run = session.run(snn::BatchView{gather(images(), 5)}, opts);
    expect_result_matches(run, goldens(), 5, kind, opts,
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
    expect_result_matches(a, goldens(), n, kind, opts, "small n=" + std::to_string(n));
    const snn::RunResult b = big.run(snn::BatchView{gather(other_images, n)}, opts);
    expect_result_matches(b, other_goldens, n, kind, opts, "big n=" + std::to_string(n));
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
// stats, predictions) must agree EXACTLY: firing compares the membrane
// against power-of-two thresholds, and at lut_bits = acc_frac_bits = 24 the
// per-add rounding (~6e-8) never crosses a threshold for this golden batch —
// the same exactness the hw/processor co-sim relies on.
//
// Logits carry the rounding, bounded per output by
//   |quant - float| <= (n_adds + 1) * (2^-lut_bits * max|w * theta|
//                                      + 2^-acc_frac_bits)
// (one LUT-entry rounding, relative, plus one shift-out rounding, absolute,
// per synaptic add and bias). For this net the fc output dominates:
// n_adds <= 128 + 1, products < 0.5, so the bound is ~1.3e-5; the float sim
// contributes a comparable float32 accumulation term. 1e-4 gives 4x headroom.
constexpr double kQuantLogitTol = 1e-4;

void expect_rows_close(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_NEAR(got[j], want[j], kQuantLogitTol) << what << " logit " << j;
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
  EXPECT_TRUE(session.backend().supports_traces());
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, kMaxBatch}) {
    const std::vector<const Tensor*> batch = gather(images(), n);
    for (int mask = 0; mask < 32; ++mask) {
      snn::RunOptions opts;
      opts.logits = (mask & 1) != 0;
      opts.predictions = (mask & 2) != 0;
      opts.stats = (mask & 4) != 0;
      opts.traces = (mask & 8) != 0;
      opts.logit_rows = (mask & 16) != 0;
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
      if (opts.logit_rows) {
        ASSERT_EQ(run.logit_rows.size(), static_cast<std::size_t>(n)) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          expect_rows_close(run.logit_rows[static_cast<std::size_t>(i)],
                            goldens()[static_cast<std::size_t>(i)].event.logits,
                            what + " row " + std::to_string(i));
        }
      } else {
        EXPECT_TRUE(run.logit_rows.empty()) << what;
      }
      if (opts.predictions) {
        // Integer artifact: must agree with the float backends exactly.
        ASSERT_EQ(run.predicted.size(), static_cast<std::size_t>(n)) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(run.predicted[static_cast<std::size_t>(i)],
                    argmax(goldens()[static_cast<std::size_t>(i)].gemm_logits))
              << what << " sample " << i;
        }
      } else {
        EXPECT_TRUE(run.predicted.empty()) << what;
      }
      if (opts.stats) {
        ASSERT_EQ(run.stats.size(), static_cast<std::size_t>(n)) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          expect_stats_equal(run.stats[static_cast<std::size_t>(i)],
                             goldens()[static_cast<std::size_t>(i)].stats,
                             what + " sample " + std::to_string(i));
        }
      } else {
        EXPECT_TRUE(run.stats.empty()) << what;
      }
      if (opts.traces) {
        ASSERT_EQ(run.traces.size(), static_cast<std::size_t>(n)) << what;
        for (std::int64_t i = 0; i < n; ++i) {
          expect_traces_match_quantized(run.traces[static_cast<std::size_t>(i)],
                                        goldens()[static_cast<std::size_t>(i)].event,
                                        what + " sample " + std::to_string(i));
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
  opts.predictions = true;
  opts.stats = true;
  opts.traces = true;
  const snn::RunResult from_nchw = session.run(snn::BatchView{nchw}, opts);
  const snn::RunResult from_gathered = session.run(snn::BatchView{gather(images(), n)}, opts);
  expect_rows_equal(from_nchw.logits, from_gathered.logits, "quantized views");
  EXPECT_EQ(from_nchw.predicted, from_gathered.predicted);
  ASSERT_EQ(from_nchw.stats.size(), from_gathered.stats.size());
  for (std::size_t i = 0; i < from_nchw.stats.size(); ++i) {
    expect_stats_equal(from_nchw.stats[i], from_gathered.stats[i],
                       "quantized views sample " + std::to_string(i));
  }
  ASSERT_EQ(from_nchw.traces.size(), from_gathered.traces.size());
  for (std::size_t i = 0; i < from_nchw.traces.size(); ++i) {
    expect_traces_identical(from_nchw.traces[i], from_gathered.traces[i],
                            "quantized views trace " + std::to_string(i));
  }
}

TEST(SnnEngine, BackendKindStringsRoundTrip) {
  for (const snn::BackendKind kind : {snn::BackendKind::kGemm, snn::BackendKind::kEventSim,
                                      snn::BackendKind::kReference, snn::BackendKind::kQuantized}) {
    EXPECT_EQ(snn::backend_kind_from_string(snn::to_string(kind)), kind);
    EXPECT_EQ(snn::make_backend(kind)->name(), snn::to_string(kind));
  }
  EXPECT_EQ(snn::backend_kind_from_string("event_sim"), snn::BackendKind::kEventSim);
  EXPECT_THROW((void)snn::backend_kind_from_string("tpu"), std::invalid_argument);
}

TEST(SnnEngine, EmptyBatchYieldsEmptyResult) {
  Rng rng{9};
  const snn::SnnNetwork net = make_net(rng);
  snn::InferenceSession session = snn::Engine{net}.session(snn::BackendKind::kGemm);
  snn::RunOptions opts;
  opts.logits = true;
  opts.predictions = true;
  opts.stats = true;
  const snn::RunResult run = session.run(snn::BatchView{std::vector<const Tensor*>{}}, opts);
  EXPECT_EQ(run.logits.dim(0), 0);
  EXPECT_TRUE(run.predicted.empty());
  EXPECT_TRUE(run.stats.empty());
}

}  // namespace
}  // namespace ttfs
