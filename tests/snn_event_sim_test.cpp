// Event-simulator hot-path units: fire_phase edge cases (the step-bucketed
// encoder must behave at the boundaries the priority-encoder hardware hits),
// the HWC fire phase's bucketing in both membrane formats,
// ThresholdLut equivalence with the closed-form fire_step, pooling straight
// from the step grid in both membrane formats, and SimArena reuse across
// samples and networks of different shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/kernel.h"
#include "snn/network.h"
#include "kernel_tiers.h"
#include "util/rng.h"

namespace ttfs::snn {
namespace {

TEST(FirePhaseEdge, EmptyVmem) {
  const Base2Kernel k{24, 4.0, 1.0};
  const LayerEventTrace t = fire_phase(k, {});
  EXPECT_TRUE(t.spikes.empty());
  EXPECT_EQ(t.neuron_count, 0);
  EXPECT_EQ(t.integration_ops, 0);
  // The encoder still scans its full window even with nothing to emit.
  EXPECT_EQ(t.encoder_cycles, 24);
}

TEST(FirePhaseEdge, AllSubThreshold) {
  const Base2Kernel k{8, 2.0, 1.0};
  // Below min_level, exactly zero, and negative: none may fire.
  const std::vector<double> vmem{k.min_level() / 2.0, 0.0, -3.5, 1e-12};
  const LayerEventTrace t = fire_phase(k, vmem);
  EXPECT_TRUE(t.spikes.empty());
  EXPECT_EQ(t.neuron_count, 4);
  EXPECT_EQ(t.encoder_cycles, 8);
}

TEST(FirePhaseEdge, AllFireAtStepZero) {
  const Base2Kernel k{8, 2.0, 1.0};
  // Everything at or above theta0 fires immediately; the priority encoder
  // serializes them in ascending neuron order within the single step bucket.
  const std::vector<double> vmem{1.0, 5.0, 1.0 + 1e-9, 2.0};
  const LayerEventTrace t = fire_phase(k, vmem);
  ASSERT_EQ(t.spikes.size(), 4U);
  for (std::size_t i = 0; i < t.spikes.size(); ++i) {
    EXPECT_EQ(t.spikes[i].step, 0);
    EXPECT_EQ(t.spikes[i].neuron, static_cast<std::int32_t>(i));
  }
  // One cycle per scanned timestep plus one per serialized spike.
  EXPECT_EQ(t.encoder_cycles, 8 + 4);
}

TEST(FirePhaseEdge, EncoderCycleAccounting) {
  const Base2Kernel k{16, 4.0, 1.0};
  Rng rng{77};
  std::vector<double> vmem(200);
  for (auto& v : vmem) v = rng.uniform(-0.5, 1.5);
  const LayerEventTrace t = fire_phase(k, vmem);
  EXPECT_EQ(t.encoder_cycles,
            k.window() + static_cast<std::int64_t>(t.spikes.size()));
  // And bit-identical to the retained pre-overhaul encoder.
  const LayerEventTrace ref = reference::fire_phase(k, vmem);
  ASSERT_EQ(t.spikes.size(), ref.spikes.size());
  for (std::size_t i = 0; i < ref.spikes.size(); ++i) {
    EXPECT_EQ(t.spikes[i].neuron, ref.spikes[i].neuron);
    EXPECT_EQ(t.spikes[i].step, ref.spikes[i].step);
  }
  EXPECT_EQ(t.neuron_count, ref.neuron_count);
  EXPECT_EQ(t.encoder_cycles, ref.encoder_cycles);
}

// --- Fire bucketing through both membrane formats ----------------------------
//
// detail::fire_hwc fires an HWC span (`pixels` rows of `cstride` lanes, the
// first `cout` real, padding lanes 0) and buckets it straight from the HWC
// step grid: float membranes through the comparator bank (FloatFormat), the
// same values as doubles through ThresholdLut::fire_step (ExactFire, which
// fire_phase and the fixed-point layers use). Both must equal the definition:
// neuron co * pixels + p fires at lut.fire_step(acc[p * cstride + co]),
// spikes in (step, neuron) order, one encoder cycle per step plus one per
// spike.

LayerEventTrace fire_definition(const ThresholdLut& lut, const std::vector<float>& acc,
                                std::int64_t cout, std::int64_t cstride, std::int64_t pixels) {
  LayerEventTrace t;
  for (int step = 0; step < lut.window(); ++step) {
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t p = 0; p < pixels; ++p) {
        const double u = acc[static_cast<std::size_t>(p * cstride + co)];
        if (lut.fire_step(u) == step) {
          t.spikes.push_back({static_cast<std::int32_t>(co * pixels + p), step});
        }
      }
    }
  }
  t.neuron_count = cout * pixels;
  t.encoder_cycles = lut.window() + static_cast<std::int64_t>(t.spikes.size());
  return t;
}

void expect_same_trace(const LayerEventTrace& got, const LayerEventTrace& want,
                       const std::string& label) {
  ASSERT_EQ(got.spikes.size(), want.spikes.size()) << label;
  for (std::size_t i = 0; i < want.spikes.size(); ++i) {
    ASSERT_EQ(got.spikes[i].neuron, want.spikes[i].neuron) << label << " spike " << i;
    ASSERT_EQ(got.spikes[i].step, want.spikes[i].step) << label << " spike " << i;
  }
  EXPECT_EQ(got.neuron_count, want.neuron_count) << label;
  EXPECT_EQ(got.encoder_cycles, want.encoder_cycles) << label;
  EXPECT_EQ(got.integration_ops, 0) << label;
}

// Fires `acc` through both formats, twice each on one arena (so a stale
// histogram would show), and checks every run against the definition.
// Returns the definition for case-specific checks.
LayerEventTrace expect_both_formats_match_definition(const std::vector<float>& acc,
                                                     std::int64_t cout, std::int64_t cstride,
                                                     std::int64_t pixels) {
  const ThresholdLut lut{Base2Kernel{24, 4.0, 1.0}};
  const LayerEventTrace want = fire_definition(lut, acc, cout, cstride, pixels);
  const std::vector<double> acc_d(acc.begin(), acc.end());
  SimArena arena;
  for (int run = 0; run < 2; ++run) {
    LayerEventTrace got_f;
    detail::fire_hwc(lut, acc.data(), cout, cstride, pixels, arena, got_f);
    expect_same_trace(got_f, want, "FloatFormat run " + std::to_string(run));
    LayerEventTrace got_d;
    detail::fire_hwc(lut, acc_d.data(), cout, cstride, pixels, arena, got_d);
    expect_same_trace(got_d, want, "ExactFire run " + std::to_string(run));
  }
  return want;
}

// An HWC span whose real lanes come from `value(i)` (i = p * cout + co) and
// whose padding lanes hold 0.
template <typename Value>
std::vector<float> hwc_span(std::int64_t cout, std::int64_t cstride, std::int64_t pixels,
                            Value&& value) {
  std::vector<float> acc(static_cast<std::size_t>(cstride * pixels), 0.0F);
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t co = 0; co < cout; ++co) {
      acc[static_cast<std::size_t>(p * cstride + co)] = value(p * cout + co);
    }
  }
  return acc;
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

TEST(FirePhaseEdge, AllSilentBothFormats) {
  const float below = static_cast<float>(Base2Kernel{24, 4.0, 1.0}.min_level()) / 2.0F;
  const std::vector<float> silent{0.0F, -0.0F, -1.0F, below, -kInf, 1e-30F};
  const auto acc = hwc_span(13, 16, 9, [&](std::int64_t i) {
    return silent[static_cast<std::size_t>(i) % silent.size()];
  });
  const LayerEventTrace want = expect_both_formats_match_definition(acc, 13, 16, 9);
  EXPECT_TRUE(want.spikes.empty());
  EXPECT_EQ(want.encoder_cycles, 24);
}

TEST(FirePhaseEdge, AllFireAtStepZeroBothFormats) {
  const std::vector<float> top{1.0F, 5.0F, kInf, 1.5F};
  const auto acc = hwc_span(13, 16, 9, [&](std::int64_t i) {
    return top[static_cast<std::size_t>(i) % top.size()];
  });
  const LayerEventTrace want = expect_both_formats_match_definition(acc, 13, 16, 9);
  ASSERT_EQ(want.spikes.size(), 13U * 9U);
  for (std::size_t i = 0; i < want.spikes.size(); ++i) {
    EXPECT_EQ(want.spikes[i].step, 0);
    EXPECT_EQ(want.spikes[i].neuron, static_cast<std::int32_t>(i));
  }
}

TEST(FirePhaseEdge, NanAndInfMembranesBothFormats) {
  Rng rng{31};
  const std::vector<float> special{kNaN, kInf, -kInf};
  const auto acc = hwc_span(24, 24, 10, [&](std::int64_t i) {
    return i % 4 == 0 ? special[static_cast<std::size_t>(i / 4) % special.size()]
                      : rng.uniform_f(-0.5F, 1.5F);
  });
  const LayerEventTrace want = expect_both_formats_match_definition(acc, 24, 24, 10);
  // NaN compares false against every level, so it fires at step 0 like
  // +inf; -inf never fires.
  const ThresholdLut lut{Base2Kernel{24, 4.0, 1.0}};
  EXPECT_EQ(lut.fire_step(kNaN), 0);
  EXPECT_EQ(lut.fire_step(kInf), 0);
  EXPECT_EQ(lut.fire_step(-kInf), kNoSpike);
  EXPECT_FALSE(want.spikes.empty());
}

TEST(FirePhaseEdge, PaddingLanesNeverFireBothFormats) {
  Rng rng{32};
  // cout 5 in an 8-lane stride, and 13 in 16: three and three padding lanes
  // per pixel, all 0.
  for (const auto& [cout, cstride] : {std::pair<std::int64_t, std::int64_t>{5, 8}, {13, 16}}) {
    const auto acc = hwc_span(cout, cstride, 11,
                              [&](std::int64_t) { return rng.uniform_f(-0.5F, 2.0F); });
    const LayerEventTrace want = expect_both_formats_match_definition(acc, cout, cstride, 11);
    EXPECT_EQ(want.neuron_count, cout * 11);
    for (const Spike& s : want.spikes) EXPECT_LT(s.neuron, cout * 11);
  }
}

TEST(FirePhaseEdge, DenseSinglePixelSpanBothFormats) {
  Rng rng{33};
  const auto acc = hwc_span(200, 200, 1, [&](std::int64_t) { return rng.uniform_f(-0.5F, 1.5F); });
  const LayerEventTrace want = expect_both_formats_match_definition(acc, 200, 200, 1);
  EXPECT_FALSE(want.spikes.empty());
  EXPECT_LT(want.spikes.size(), 200U);
}

TEST(ThresholdLutTest, MatchesBase2FireStepEverywhere) {
  for (const double tau : {2.0, 4.0, 3.7}) {
    const Base2Kernel k{24, tau, 1.0};
    const ThresholdLut lut{k};
    ASSERT_EQ(lut.window(), k.window());
    // Exact grid points, midpoints, and the boundaries round-trip identically.
    for (int step = 0; step < k.window(); ++step) {
      EXPECT_EQ(lut.level(step), k.level(step));
      EXPECT_EQ(lut.fire_step(k.level(step)), k.fire_step(k.level(step))) << "tau " << tau;
      const double mid = k.level(step) * 1.01;
      EXPECT_EQ(lut.fire_step(mid), k.fire_step(mid));
    }
    Rng rng{static_cast<std::uint64_t>(tau * 100)};
    for (int trial = 0; trial < 2000; ++trial) {
      const double u = rng.uniform(-0.1, 1.5);
      EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "u " << u;
    }
    EXPECT_EQ(lut.fire_step(0.0), kNoSpike);
    EXPECT_EQ(lut.fire_step(k.min_level()), k.window() - 1);
    EXPECT_EQ(lut.fire_step(std::nextafter(k.min_level(), 0.0)), kNoSpike);
  }
}

TEST(ThresholdLutTest, MatchesBaseEFireStepEverywhere) {
  for (const double td : {0.0, 5.0}) {
    const BaseEKernel k{80, 20.0, td, 1.0};
    const ThresholdLut lut{k};
    Rng rng{static_cast<std::uint64_t>(td) + 9};
    for (int trial = 0; trial < 2000; ++trial) {
      const double u = rng.uniform(-0.1, 2.0);
      EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "td " << td << " u " << u;
    }
    for (int step = 0; step < k.window(); ++step) {
      EXPECT_EQ(lut.fire_step(k.level(step)), k.fire_step(k.level(step)));
    }
  }
}

TEST(SimArenaTest, ReuseAcrossSamplesAndShapesIsStateless) {
  // One arena serving many samples — and then a *differently shaped* network —
  // must behave exactly like a fresh arena each time (no stale scratch).
  Rng rng{88};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({4, 6 * 5 * 5}, rng, -0.1F, 0.12F), Tensor{{4}});

  SnnNetwork tiny{Base2Kernel{24, 4.0, 1.0}};
  tiny.add_conv(Tensor::uniform({2, 1, 3, 3}, rng, -0.2F, 0.3F), Tensor{{2}}, 1, 0);
  tiny.add_fc(Tensor::uniform({3, 2 * 2 * 2}, rng, -0.2F, 0.25F), Tensor{{3}});

  SimArena shared;
  for (int trial = 0; trial < 4; ++trial) {
    const Tensor img = Tensor::uniform({3, 10, 10}, rng, 0.0F, 1.0F);
    const EventTrace with_shared = run_event_sim(net, img, shared);
    const EventTrace fresh = run_event_sim(net, img);
    ASSERT_EQ(with_shared.layers.size(), fresh.layers.size());
    for (std::size_t l = 0; l < fresh.layers.size(); ++l) {
      ASSERT_EQ(with_shared.layers[l].spikes.size(), fresh.layers[l].spikes.size());
      for (std::size_t s = 0; s < fresh.layers[l].spikes.size(); ++s) {
        EXPECT_EQ(with_shared.layers[l].spikes[s].neuron, fresh.layers[l].spikes[s].neuron);
        EXPECT_EQ(with_shared.layers[l].spikes[s].step, fresh.layers[l].spikes[s].step);
      }
      EXPECT_EQ(with_shared.layers[l].integration_ops, fresh.layers[l].integration_ops);
      EXPECT_EQ(with_shared.layers[l].encoder_cycles, fresh.layers[l].encoder_cycles);
    }
    for (std::int64_t i = 0; i < fresh.logits.numel(); ++i) {
      EXPECT_EQ(with_shared.logits[i], fresh.logits[i]);
    }

    // Interleave the small net through the same (now oversized) arena.
    const Tensor small_img = Tensor::uniform({1, 4, 4}, rng, 0.0F, 1.0F);
    const EventTrace a = run_event_sim(tiny, small_img, shared);
    const EventTrace b = run_event_sim(tiny, small_img);
    ASSERT_EQ(a.logits.numel(), b.logits.numel());
    for (std::int64_t i = 0; i < b.logits.numel(); ++i) EXPECT_EQ(a.logits[i], b.logits[i]);
  }
}

// --- Pooling straight from the step grid ------------------------------------
//
// A pool reads the step grid the layer before it left: HWC at a conv's padded
// channel stride, CHW after the input encoding, HWC at padded(c) after
// another pool. Each case runs a net in both membrane formats. The float run
// must equal the frozen reference bit for bit; the fixed-point run (on the
// log-quantized net) must equal the float event sim of that net in spikes,
// ops and cycles, as the engine conformance suite asserts; and in both, every
// pool layer must be the definition applied to the layer before it.

// Earliest-spike pooling by definition: neuron (ch, oy, ox) fires at the
// least step in its window of the c x h x w input spikes, if any; spikes in
// (step, neuron) order, no encoder cycles.
LayerEventTrace pool_definition(const std::vector<Spike>& in, std::int64_t c, std::int64_t h,
                                std::int64_t w, const SnnPool& pool, int window) {
  std::vector<int> grid(static_cast<std::size_t>(c * h * w), kNoSpike);
  for (const Spike& s : in) grid[static_cast<std::size_t>(s.neuron)] = s.step;
  const std::int64_t oh = (h - pool.kernel) / pool.stride + 1;
  const std::int64_t ow = (w - pool.kernel) / pool.stride + 1;
  std::vector<int> out(static_cast<std::size_t>(c * oh * ow), kNoSpike);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        int& best = out[static_cast<std::size_t>((ch * oh + oy) * ow + ox)];
        for (std::int64_t ky = 0; ky < pool.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < pool.kernel; ++kx) {
            const int s = grid[static_cast<std::size_t>(
                (ch * h + oy * pool.stride + ky) * w + ox * pool.stride + kx)];
            if (s != kNoSpike && (best == kNoSpike || s < best)) best = s;
          }
        }
      }
    }
  }
  LayerEventTrace t;
  for (int step = 0; step < window; ++step) {
    for (std::size_t n = 0; n < out.size(); ++n) {
      if (out[n] == step) t.spikes.push_back({static_cast<std::int32_t>(n), step});
    }
  }
  t.neuron_count = c * oh * ow;
  return t;
}

// Checks every pool layer of `trace` (a run of `net` on a c x h x w image)
// against pool_definition over the trace layer before it.
void expect_pools_match_definition(const SnnNetwork& net, const EventTrace& trace,
                                   std::int64_t c, std::int64_t h, std::int64_t w,
                                   const std::string& label) {
  for (std::size_t li = 0; li < net.layers().size() && li + 1 < trace.layers.size(); ++li) {
    const SnnLayer& layer = net.layers()[li];
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      h = (h + 2 * conv->pad - conv->weight.dim(2)) / conv->stride + 1;
      w = (w + 2 * conv->pad - conv->weight.dim(3)) / conv->stride + 1;
      c = conv->weight.dim(0);
    } else if (const auto* pool = std::get_if<SnnPool>(&layer)) {
      expect_same_trace(trace.layers[li + 1],
                        pool_definition(trace.layers[li].spikes, c, h, w, *pool,
                                        net.kernel().window()),
                        label + " pool at layer " + std::to_string(li));
      h = (h - pool->kernel) / pool->stride + 1;
      w = (w - pool->kernel) / pool->stride + 1;
    }
  }
}

void expect_same_spikes_ops_cycles(const EventTrace& got, const EventTrace& want,
                                   const std::string& label) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << label;
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    const LayerEventTrace& a = got.layers[l];
    const LayerEventTrace& b = want.layers[l];
    ASSERT_EQ(a.spikes.size(), b.spikes.size()) << label << " layer " << l;
    for (std::size_t i = 0; i < b.spikes.size(); ++i) {
      ASSERT_EQ(a.spikes[i].neuron, b.spikes[i].neuron) << label << " layer " << l << " spike " << i;
      ASSERT_EQ(a.spikes[i].step, b.spikes[i].step) << label << " layer " << l << " spike " << i;
    }
    EXPECT_EQ(a.neuron_count, b.neuron_count) << label << " layer " << l;
    EXPECT_EQ(a.integration_ops, b.integration_ops) << label << " layer " << l;
    EXPECT_EQ(a.encoder_cycles, b.encoder_cycles) << label << " layer " << l;
  }
}

// Runs a dense and a sparse c x h x w image through `net` in both formats,
// each twice on one arena so a stale pooled grid would show, on every
// supported kernel tier.
void expect_pools_match_in_both_formats(const SnnNetwork& net, std::int64_t c, std::int64_t h,
                                        std::int64_t w, Rng& rng) {
  SnnNetwork qnet = net;
  cat::log_quantize_network(qnet, cat::LogQuantConfig{});
  const Engine qengine{qnet};
  InferenceSession quant = qengine.session(BackendKind::kQuantized);
  RunOptions ropts;
  ropts.traces = true;
  SimArena arena;
  for (const kernels::Tier tier : kernel_test::runnable_tiers()) {
    kernel_test::ScopedTier path{tier};
    for (const double keep : {1.0, 0.3}) {
      Tensor img{{c, h, w}};
      for (std::int64_t i = 0; i < img.numel(); ++i) {
        const float v = rng.uniform_f(0.0F, 1.0F);
        img[i] = rng.bernoulli(keep) ? v : 0.0F;
      }
      const std::string label = std::string{kernels::isa()} + " keep=" + std::to_string(keep);
      const EventTrace ref = reference::run_event_sim(net, img);
      for (int run = 0; run < 2; ++run) {
        const EventTrace got = run_event_sim(net, img, arena);
        expect_same_spikes_ops_cycles(got, ref, label + " float");
        ASSERT_EQ(got.logits.numel(), ref.logits.numel()) << label;
        for (std::int64_t i = 0; i < ref.logits.numel(); ++i) {
          EXPECT_EQ(got.logits[i], ref.logits[i]) << label << " logit " << i;
        }
        expect_pools_match_definition(net, got, c, h, w, label + " float");
      }
      const EventTrace qfloat = run_event_sim(qnet, img);
      const Tensor one = img.reshaped({1, c, h, w});
      for (int run = 0; run < 2; ++run) {
        const RunResult r = quant.run(BatchView{one}, ropts);
        ASSERT_EQ(r.traces.size(), 1U) << label;
        expect_same_spikes_ops_cycles(r.traces[0], qfloat, label + " fixed-point");
        expect_pools_match_definition(qnet, r.traces[0], c, h, w, label + " fixed-point");
      }
    }
  }
}

TEST(PoolFromStepGrid, OverlappingAndUnitStridePoolsOnOddSidesAndPaddedStrides) {
  // 3x10x9 -> conv 13 (cstride 16) 10x9 -> pool (3, 2) 4x4 -> conv 24
  // (cstride 24) 4x4 -> pool (2, 1) 3x3 -> fc. The (3, 2) windows overlap and
  // leave the last input row unread; the odd width leaves a column over.
  Rng rng{931};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({13, 3, 3, 3}, rng, -0.15F, 0.3F),
               Tensor::uniform({13}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(3, 2);
  net.add_conv(Tensor::uniform({24, 13, 3, 3}, rng, -0.1F, 0.2F),
               Tensor::uniform({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 1);
  net.add_fc(Tensor::uniform({10, 24 * 3 * 3}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  expect_pools_match_in_both_formats(net, 3, 10, 9, rng);
}

TEST(PoolFromStepGrid, PoolAfterTheInputEncodingAndPoolAfterPool) {
  // 3x13x13 -> pool (2, 2) on the CHW encoding grid 6x6 -> pool (3, 1) on a
  // pooled grid 4x4 -> conv 13 4x4 -> pool (2, 2) 2x2 -> pool (2, 1) 1x1 ->
  // fc: the pooled grid alternates between the two arena grids, both ways.
  Rng rng{932};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_pool(2, 2);
  net.add_pool(3, 1);
  net.add_conv(Tensor::uniform({13, 3, 3, 3}, rng, -0.15F, 0.3F),
               Tensor::uniform({13}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_pool(2, 1);
  net.add_fc(Tensor::uniform({10, 13}, rng, -0.2F, 0.25F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  expect_pools_match_in_both_formats(net, 3, 13, 13, rng);
}

TEST(PackedWeights, RepackRebuildsAfterMutation) {
  // mutable_layers() dirties the pack; the next simulation must see the new
  // weights, not the stale repack.
  Rng rng{89};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({4, 2, 3, 3}, rng, -0.2F, 0.3F), Tensor{{4}}, 1, 1);
  net.add_fc(Tensor::uniform({3, 4 * 6 * 6}, rng, -0.1F, 0.15F), Tensor{{3}});
  const Tensor img = Tensor::uniform({2, 6, 6}, rng, 0.2F, 1.0F);

  const EventTrace before = run_event_sim(net, img);
  for (auto& layer : net.mutable_layers()) {
    if (auto* conv = std::get_if<SnnConv>(&layer)) {
      for (std::int64_t i = 0; i < conv->weight.numel(); ++i) conv->weight[i] *= 0.5F;
    }
  }
  const EventTrace after = run_event_sim(net, img);
  const EventTrace ref = reference::run_event_sim(net, img);
  ASSERT_EQ(after.logits.numel(), ref.logits.numel());
  bool changed = false;
  for (std::int64_t i = 0; i < ref.logits.numel(); ++i) {
    EXPECT_EQ(after.logits[i], ref.logits[i]);
    if (after.logits[i] != before.logits[i]) changed = true;
  }
  EXPECT_TRUE(changed) << "halved conv weights must change the logits";
}

}  // namespace
}  // namespace ttfs::snn
