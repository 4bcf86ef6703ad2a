// Cross-validation tests between independent implementations of the same
// semantics: event sim vs GEMM path on stride-2 convs, T2FSNN vs the base-2
// network under aligned kernels, log-quantized weights through the LogPe
// datapath, and weight-residency behaviour of the processor model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "hw/processor.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/network.h"
#include "snn/t2fsnn.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Runs an (N, C, H, W) batch through a one-off session on `kind` over `pool`.
snn::RunResult run_batch(const snn::SnnNetwork& net, snn::BackendKind kind, const Tensor& nchw,
                         ThreadPool& pool, const snn::RunOptions& opts) {
  snn::SessionOptions sopts;
  sopts.pool = &pool;
  snn::InferenceSession session = snn::Engine{net}.session(kind, std::move(sopts));
  return session.run(snn::BatchView{nchw}, opts);
}

TEST(EventSimStride, MatchesFastPathWithStride2AndNoPad) {
  // The event simulator's scatter must handle stride divisibility and padding
  // exactly like im2col. Build a net with a stride-2 pad-1 conv and a
  // stride-1 pad-0 conv.
  Rng rng{200};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({4, 2, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({4}, rng, -0.05F, 0.1F), /*stride=*/2, /*pad=*/1);
  net.add_conv(random_tensor({6, 4, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({6}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/0);
  net.add_fc(random_tensor({3, 6 * 3 * 3}, rng, -0.1F, 0.12F),
             random_tensor({3}, rng, -0.05F, 0.05F));

  for (int trial = 0; trial < 3; ++trial) {
    Tensor img = random_tensor({2, 9, 9}, rng, 0.0F, 1.0F);
    const auto maps = net.trace(img);
    const snn::EventTrace events = snn::run_event_sim(net, img);
    ASSERT_EQ(events.layers.size(), maps.size());
    for (std::size_t l = 0; l < maps.size(); ++l) {
      std::vector<int> steps(static_cast<std::size_t>(maps[l].neuron_count()), snn::kNoSpike);
      for (const snn::Spike& s : events.layers[l].spikes) {
        steps[static_cast<std::size_t>(s.neuron)] = s.step;
      }
      EXPECT_EQ(steps, maps[l].steps) << "layer " << l << " trial " << trial;
    }
  }
}

// Asserts one trace is bit-identical to another: every spike in emission
// order, every per-layer counter, every logit.
void expect_traces_identical(const snn::EventTrace& got, const snn::EventTrace& want,
                             const char* what) {
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
  ASSERT_EQ(got.logits.numel(), want.logits.numel()) << what;
  for (std::int64_t i = 0; i < want.logits.numel(); ++i) {
    EXPECT_EQ(got.logits[i], want.logits[i]) << what << " logit " << i;
  }
}

TEST(EventSimOverhaul, BitIdenticalToReferenceSimulator) {
  // The repacked-weight / step-bucketed / arena-reusing simulator must
  // reproduce the retained pre-overhaul implementation exactly — spike maps,
  // emission order, integration-op counts, encoder-cycle counts and logits —
  // across conv stride/pad variants, pooling, and FC layers.
  Rng rng{400};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({6}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({8, 6, 3, 3}, rng, -0.1F, 0.15F), Tensor{{8}},
               /*stride=*/2, /*pad=*/1);
  net.add_conv(random_tensor({10, 8, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({10}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/0);
  net.add_fc(random_tensor({5, 10 * 1 * 1}, rng, -0.2F, 0.22F),
             random_tensor({5}, rng, -0.05F, 0.05F));

  snn::SimArena arena;  // shared across trials: reuse must not leak state
  for (int trial = 0; trial < 4; ++trial) {
    const Tensor img = random_tensor({3, 12, 12}, rng, 0.0F, 1.0F);
    const snn::EventTrace ref = snn::reference::run_event_sim(net, img);
    expect_traces_identical(snn::run_event_sim(net, img), ref, "fresh-arena");
    expect_traces_identical(snn::run_event_sim(net, img, arena), ref, "shared-arena");
  }
}

TEST(EventSimOverhaul, BatchBitIdenticalToReference) {
  Rng rng{401};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({5, 6 * 5 * 5}, rng, -0.1F, 0.12F),
             random_tensor({5}, rng, -0.05F, 0.05F));
  const Tensor images = random_tensor({7, 3, 10, 10}, rng, 0.0F, 1.0F);

  ThreadPool pool{3};
  snn::RunOptions opts;
  opts.traces = true;
  const snn::RunResult batched = run_batch(net, snn::BackendKind::kEventSim, images, pool, opts);
  ASSERT_EQ(batched.traces.size(), 7U);
  for (std::int64_t i = 0; i < images.dim(0); ++i) {
    const snn::EventTrace ref = snn::reference::run_event_sim(net, images.sample0(i));
    expect_traces_identical(batched.traces[static_cast<std::size_t>(i)], ref, "batch sample");
  }
}

TEST(T2fsnnAligned, MatchesBase2NetworkWhenKernelsAligned) {
  // With tau_e = tau_2 / ln 2 and td = 0, the base-e kernel codes the exact
  // same grid as the base-2 kernel (Sec. 3.1: "using the new kernel does not
  // directly affect classification accuracy"). Both networks must then
  // produce identical logits on identical layers.
  Rng rng{201};
  std::vector<snn::SnnLayer> layers;
  layers.push_back(snn::SnnConv{random_tensor({4, 1, 3, 3}, rng, -0.2F, 0.3F),
                                random_tensor({4}, rng, -0.05F, 0.1F), 1, 1});
  layers.push_back(snn::SnnPool{2, 2});
  layers.push_back(snn::SnnFc{random_tensor({5, 4 * 4 * 4}, rng, -0.1F, 0.12F),
                              random_tensor({5}, rng, -0.05F, 0.05F)});
  auto layers_copy = layers;

  const int window = 24;
  const double tau2 = 4.0;
  snn::SnnNetwork base2{snn::Base2Kernel{window, tau2, 1.0}, std::move(layers)};

  snn::T2fsnnConfig cfg;
  cfg.window = window;
  cfg.tau = tau2 / std::log(2.0);
  cfg.td = 0.0;
  snn::T2fsnnNetwork basee{cfg, std::move(layers_copy)};

  Tensor x = random_tensor({4, 1, 8, 8}, rng, 0.0F, 1.0F);
  const Tensor la = base2.forward(x);
  const Tensor lb = basee.forward(x);
  ASSERT_EQ(la.shape(), lb.shape());
  for (std::int64_t i = 0; i < la.numel(); ++i) {
    EXPECT_NEAR(la[i], lb[i], 1e-4F) << "logit " << i;
  }
}

TEST(LogPeQuantized, QuantizedWeightTimesLevelIsExactInCodes) {
  // Every log-quantized weight is sign * 2^(q * 2^-z); feeding (sign, q) into
  // the LogPe must reproduce w_q * kappa(step) to LUT precision — i.e. the
  // quantizer emits exactly what the hardware datapath consumes.
  cat::LogQuantConfig qc;
  qc.bits = 5;
  qc.z = 1;
  cat::LogPeConfig pc;
  pc.p = 2;  // tau = 4
  pc.z = qc.z;
  cat::LogPe pe{pc};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};

  Rng rng{202};
  for (int trial = 0; trial < 500; ++trial) {
    const double w = rng.uniform(-1.0, 1.0);
    const double wq = cat::log_quantize_value(w, 1.0, qc);
    if (wq == 0.0) continue;
    // Recover the code from the quantized magnitude.
    const int q = static_cast<int>(std::lround(std::log2(std::fabs(wq)) / qc.step()));
    const int sign = wq < 0.0 ? -1 : 1;
    const int step = static_cast<int>(rng.uniform_int(0, kernel.window() - 1));

    pe.reset();
    pe.accumulate(sign, q, step);
    const double expect = wq * kernel.level(step);
    // Error bound: LUT rounding (relative) + one accumulator LSB (absolute).
    const double acc_lsb = std::exp2(-pc.acc_frac_bits);
    EXPECT_NEAR(pe.membrane(), expect, std::fabs(expect) * 1e-3 + acc_lsb)
        << "w=" << w << " q=" << q << " step=" << step;
  }
}

TEST(ProcessorResidency, SmallNetworkKeepsWeightsOnChip) {
  // A network whose 5-bit weights fit in the 4x90 KB buffers must not charge
  // per-image DRAM weight streaming.
  hw::NetworkWorkload small;
  small.name = "small";
  hw::LayerWorkload conv;
  conv.kind = hw::LayerKind::kConv;
  conv.name = "conv";
  conv.cin = 8;
  conv.hin = conv.win = 16;
  conv.cout = 16;
  conv.hout = conv.wout = 16;
  conv.kernel = 3;
  hw::LayerWorkload fc;
  fc.kind = hw::LayerKind::kFc;
  fc.name = "fc";
  fc.cin = 16 * 16 * 16;
  fc.cout = 10;
  fc.hin = fc.win = fc.hout = fc.wout = 1;
  small.layers = {conv, fc};
  small.activity = hw::default_activity(2);

  const hw::SnnProcessorModel model{hw::ArchConfig{}, hw::default_tech()};
  ASSERT_LT(static_cast<double>(small.total_weights()) * 5, 4.0 * 90 * 1024 * 8);
  const auto report = model.run(small);
  // DRAM traffic = spikes only; far below one weight stream.
  const double weight_bits = static_cast<double>(small.total_weights()) * 5;
  double dram_bits = 0.0;
  for (const auto& l : report.layers) dram_bits += l.dram_bits;
  EXPECT_LT(dram_bits, weight_bits);
}

TEST(ProcessorResidency, Vgg16StreamsWeights) {
  const auto w = hw::vgg16_workload("cifar", 32, 10);
  const hw::SnnProcessorModel model{hw::ArchConfig{}, hw::default_tech()};
  const auto report = model.run(w);
  double dram_bits = 0.0;
  for (const auto& l : report.layers) dram_bits += l.dram_bits;
  EXPECT_GT(dram_bits, static_cast<double>(w.total_weights()) * 5 * 0.99);
}

TEST(EventSimEnergyHooks, IntegrationOpsMatchDenseTimesActivity) {
  // integration_ops counted by the event sim ~= dense MACs scaled by the
  // firing fraction of the source layer (interior-approximation sanity).
  Rng rng{203};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({8, 3, 3, 3}, rng, -0.1F, 0.2F), Tensor{{8}}, 1, 1);
  net.add_fc(random_tensor({4, 8 * 10 * 10}, rng, -0.05F, 0.06F), Tensor{{4}});
  Tensor img = random_tensor({3, 10, 10}, rng, 0.3F, 1.0F);  // all pixels spike

  const snn::EventTrace trace = snn::run_event_sim(net, img);
  // Layer 1 (conv): every input spikes, so ops ~= dense interior MACs.
  const std::int64_t dense = 8LL * 3 * 3 * 3 * 10 * 10;
  EXPECT_GT(trace.layers[1].integration_ops, dense * 7 / 10);  // border effects
  EXPECT_LE(trace.layers[1].integration_ops, dense);
}

// A conv/pool/fc stack plus a batch of images for the batching equivalence
// tests below.
snn::SnnNetwork batching_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({6}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/1);
  net.add_pool(2, 2);
  net.add_conv(random_tensor({8, 6, 3, 3}, rng, -0.1F, 0.15F),
               random_tensor({8}, rng, -0.05F, 0.1F), /*stride=*/2, /*pad=*/1);
  net.add_fc(random_tensor({5, 8 * 3 * 3}, rng, -0.1F, 0.12F),
             random_tensor({5}, rng, -0.05F, 0.05F));
  return net;
}

TEST(BatchEventSim, MatchesSequentialLoopBitExactly) {
  // An event-sim session must reproduce the per-sample run_event_sim loop
  // exactly: every spike (neuron, step, emission order), every op/cycle
  // counter and every logit — the activity accounting that feeds the hardware
  // model may not drift when inference is fanned out across workers.
  Rng rng{300};
  const snn::SnnNetwork net = batching_net(rng);
  const Tensor images = random_tensor({6, 3, 10, 10}, rng, 0.0F, 1.0F);

  std::vector<snn::EventTrace> seq;
  for (std::int64_t i = 0; i < images.dim(0); ++i) {
    seq.push_back(snn::run_event_sim(net, images.sample0(i)));
  }

  // Exercise a real fan-out (3 workers) and the inline path (0 workers).
  for (const unsigned workers : {3U, 0U}) {
    ThreadPool pool{workers};
    snn::RunOptions opts;
    opts.logits = true;
    opts.traces = true;
    const snn::RunResult batched = run_batch(net, snn::BackendKind::kEventSim, images, pool, opts);
    ASSERT_EQ(batched.traces.size(), seq.size()) << "workers " << workers;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const snn::EventTrace& a = batched.traces[i];
      const snn::EventTrace& b = seq[i];
      ASSERT_EQ(a.layers.size(), b.layers.size()) << "sample " << i;
      for (std::size_t l = 0; l < b.layers.size(); ++l) {
        ASSERT_EQ(a.layers[l].spikes.size(), b.layers[l].spikes.size())
            << "sample " << i << " layer " << l;
        for (std::size_t s = 0; s < b.layers[l].spikes.size(); ++s) {
          EXPECT_EQ(a.layers[l].spikes[s].neuron, b.layers[l].spikes[s].neuron);
          EXPECT_EQ(a.layers[l].spikes[s].step, b.layers[l].spikes[s].step);
        }
        EXPECT_EQ(a.layers[l].neuron_count, b.layers[l].neuron_count);
        EXPECT_EQ(a.layers[l].integration_ops, b.layers[l].integration_ops);
        EXPECT_EQ(a.layers[l].encoder_cycles, b.layers[l].encoder_cycles);
      }
      ASSERT_EQ(a.logits.numel(), b.logits.numel());
      for (std::int64_t j = 0; j < b.logits.numel(); ++j) {
        EXPECT_EQ(a.logits[j], b.logits[j]) << "sample " << i << " logit " << j;
      }
      // Batch logits row i is sample i's logits verbatim.
      for (std::int64_t j = 0; j < b.logits.numel(); ++j) {
        EXPECT_EQ(batched.logits.at(static_cast<std::int64_t>(i), j), b.logits[j]);
      }
    }
    // Aggregates merge in sample order — identical to summing the loop.
    std::int64_t seq_spikes = 0, seq_ops = 0, batch_spikes = 0, batch_ops = 0;
    for (const auto& t : seq) {
      seq_spikes += t.total_spikes();
      seq_ops += t.total_integration_ops();
    }
    for (const auto& t : batched.traces) {
      batch_spikes += t.total_spikes();
      batch_ops += t.total_integration_ops();
    }
    EXPECT_EQ(batch_spikes, seq_spikes);
    EXPECT_EQ(batch_ops, seq_ops);
  }
}

TEST(BatchClassify, MatchesPerSampleForwardBitExactly) {
  Rng rng{301};
  const snn::SnnNetwork net = batching_net(rng);
  const Tensor images = random_tensor({5, 3, 10, 10}, rng, 0.0F, 1.0F);

  // Sequential reference: forward() on each (1, C, H, W) slice.
  std::vector<Tensor> seq_rows;
  snn::SnnRunStats seq_stats;
  for (std::int64_t i = 0; i < images.dim(0); ++i) {
    const Tensor one = images.sample0(i).reshaped({1, 3, 10, 10});
    seq_rows.push_back(net.forward(one, &seq_stats));
  }

  ThreadPool pool{2};
  snn::RunOptions opts;
  opts.logits = true;
  opts.stats = true;
  const snn::RunResult run = run_batch(net, snn::BackendKind::kGemm, images, pool, opts);
  const Tensor& logits = run.logits;
  const snn::SnnRunStats batch_stats = run.merged_stats();
  ASSERT_EQ(logits.dim(0), images.dim(0));
  for (std::int64_t i = 0; i < images.dim(0); ++i) {
    ASSERT_EQ(seq_rows[static_cast<std::size_t>(i)].numel(), logits.dim(1));
    for (std::int64_t j = 0; j < logits.dim(1); ++j) {
      EXPECT_EQ(logits.at(i, j), seq_rows[static_cast<std::size_t>(i)][j])
          << "sample " << i << " logit " << j;
    }
  }
  EXPECT_EQ(batch_stats.images, seq_stats.images);
  EXPECT_EQ(batch_stats.spikes_per_layer, seq_stats.spikes_per_layer);
  EXPECT_EQ(batch_stats.neurons_per_layer, seq_stats.neurons_per_layer);
}

}  // namespace
}  // namespace ttfs
