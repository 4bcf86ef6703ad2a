// Kernel-layer tests (snn/simd.h): primitive bit-identity between the
// float-kernel tiers across tail geometries, the aligned-buffer contract, the
// packed-row bias broadcast, cache-block tiling, and full-simulator
// conformance against the frozen reference for geometries that stress the
// lane padding — cout/out not a multiple of the vector width, stride-2 +
// padded conv taps, single-pixel layers, and empty timestep groups. Every
// bit-identity case runs once per tier this build and CPU support, through
// the dispatch cap (kernel_tiers.h); in a TTFS_SIMD=OFF build that is the
// portable tier alone, asserted against the reference, which is exactly
// what the CI simd-off lane is for. A stride x pad x kernel x width
// sweep pins integrate_conv's division-free tap walk, whole-window adds
// included, against the per-tap definition, and the walk's Reciprocal decode
// is checked against `/`. A row-run spike train (whole rows at one step,
// runs of 2, runs at both row ends, consecutive ids across a row end) drives
// the same sweep through the walk's same-step runs and the fused run add.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/kernel.h"
#include "snn/network.h"
#include "snn/simd.h"
#include "kernel_tiers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

namespace k = snn::kernels;

constexpr float kInf = std::numeric_limits<float>::infinity();

using kernel_test::runnable_tiers;
using kernel_test::ScopedTier;

// The name isa() reports for a tier.
const char* tier_name(k::Tier tier) {
  switch (tier) {
    case k::Tier::kAvx512:
      return "avx512";
    case k::Tier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

// RAII: shrink the accumulator cache block for one scope.
struct ScopedBlockBytes {
  explicit ScopedBlockBytes(std::int64_t bytes) { k::set_acc_block_bytes(bytes); }
  ~ScopedBlockBytes() { k::set_acc_block_bytes(0); }
};

TEST(AlignedBuffer, PlacesEveryAllocationOnACacheLine) {
  k::AlignedBuffer<float> buf;
  for (const std::int64_t n : {1, 7, 8, 63, 64, 65, 1000}) {
    float* p = buf.ensure(n);
    ASSERT_NE(p, nullptr) << "n=" << n;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % k::kAlignBytes, 0U) << "n=" << n;
    EXPECT_GE(buf.size(), n);
  }
  // Move steals the allocation.
  float* p = buf.data();
  k::AlignedBuffer<float> moved{std::move(buf)};
  EXPECT_EQ(moved.data(), p);
}

TEST(KernelDispatch, ForceScalarFlipsTheActivePath) {
  // With no cap the kernels run the highest tier this build and CPU
  // support; each cap demotes them to itself, never above what is supported,
  // and lifting the cap restores the default.
  const std::vector<k::Tier> tiers = runnable_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), k::supported_tier());
  EXPECT_EQ(k::active_tier(), k::supported_tier());
  EXPECT_STREQ(k::isa(), tier_name(k::supported_tier()));
  for (const k::Tier cap : {k::Tier::kScalar, k::Tier::kAvx2, k::Tier::kAvx512}) {
    ScopedTier scoped{cap};
    const k::Tier want = std::min(cap, k::supported_tier());
    EXPECT_EQ(k::active_tier(), want) << "cap " << tier_name(cap);
    EXPECT_STREQ(k::isa(), tier_name(want)) << "cap " << tier_name(cap);
  }
  EXPECT_EQ(k::active_tier(), k::supported_tier());
  EXPECT_STREQ(k::isa(), tier_name(k::supported_tier()));
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // Dispatch never picks a tier the CPU does not report.
  if (__builtin_cpu_supports("avx512f") == 0) {
    EXPECT_LT(k::supported_tier(), k::Tier::kAvx512);
  }
  if (__builtin_cpu_supports("avx2") == 0) {
    EXPECT_LT(k::supported_tier(), k::Tier::kAvx2);
  }
#endif
}

TEST(AxpyKernel, BitIdenticalToScalarForEveryTailAndOffset) {
  // n = 1..70 covers sub-lane, exact-lane, and every tail length around the
  // 8-, 16- and 32-float strips (one and two registers of each tier);
  // offsets 0..3 de-align both operands. The kernel value is a real TTFS
  // level (a float-rounded transcendental, the operand class where an FMA
  // would diverge). Every supported tier against the portable add.
  Rng rng{900};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  std::vector<float> w(80), a(80), b(80);
  for (const k::Tier tier : runnable_tiers()) {
    ScopedTier path{tier};
    for (std::int64_t n = 1; n <= 70; ++n) {
      for (std::int64_t off = 0; off < 4; ++off) {
        for (float& x : w) x = rng.uniform_f(-1.0F, 1.0F);
        for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = rng.uniform_f(-2.0F, 2.0F);
        const float v = static_cast<float>(kernel.level(static_cast<int>(n) % 24));
        k::axpy(a.data() + off, w.data() + off, v, n);
        k::axpy_scalar(b.data() + off, w.data() + off, v, n);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "isa=" << k::isa() << " n=" << n << " off=" << off
                                << " i=" << i;
        }
      }
    }
  }
}

TEST(BroadcastRows, MatchesPerPixelLoopIncludingPadding) {
  for (const std::int64_t rows : {1, 2, 3, 7, 64}) {
    const std::int64_t cout = 13;
    const std::int64_t cstride = k::padded(cout);
    std::vector<float> acc(static_cast<std::size_t>(rows * cstride), -99.0F);
    for (std::int64_t co = 0; co < cout; ++co) acc[static_cast<std::size_t>(co)] = 0.5F * co;
    for (std::int64_t co = cout; co < cstride; ++co) acc[static_cast<std::size_t>(co)] = 0.0F;
    k::broadcast_rows(acc.data(), rows, cstride);
    for (std::int64_t p = 0; p < rows; ++p) {
      for (std::int64_t co = 0; co < cstride; ++co) {
        const float want = co < cout ? 0.5F * co : 0.0F;
        ASSERT_EQ(acc[static_cast<std::size_t>(p * cstride + co)], want)
            << "row " << p << " lane " << co;
      }
    }
  }
}

TEST(PackedLayout, PadsOutputSpansAndAlignsStorage) {
  Rng rng{901};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({13, 3, 3, 3}, rng, -0.2F, 0.2F), Tensor{{13}}, 1, 1);
  net.add_fc(Tensor::uniform({10, 13 * 8 * 8}, rng, -0.1F, 0.1F), Tensor{{10}});
  net.ensure_packed();

  const auto& conv = std::get<snn::PackedConv>(net.packed_layers()[0]);
  EXPECT_EQ(conv.cstride, k::padded(conv.cout));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(conv.w.data()) % k::kAlignBytes, 0U);
  // Padding lanes of every slot are zero.
  for (std::int64_t slot = 0; slot < conv.cin * conv.kh * conv.kw; ++slot) {
    for (std::int64_t co = conv.cout; co < conv.cstride; ++co) {
      ASSERT_EQ(conv.w.data()[slot * conv.cstride + co], 0.0F) << "slot " << slot;
    }
  }

  const auto& fc = std::get<snn::PackedFc>(net.packed_layers()[1]);
  EXPECT_EQ(fc.ostride, k::padded(fc.out));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fc.w.data()) % k::kAlignBytes, 0U);
  for (std::int64_t i = 0; i < fc.in; ++i) {
    for (std::int64_t j = fc.out; j < fc.ostride; ++j) {
      ASSERT_EQ(fc.w.data()[i * fc.ostride + j], 0.0F) << "column " << i;
    }
  }
}

TEST(PackedLayout, ConvPackHoldsEveryWeightAtItsConvSlot) {
  // A non-square kernel, so a kh/kw mix-up or a mirror on the wrong axis
  // moves weights. Every weight must sit at conv_slot(ci, ky, kx)*cstride+co.
  Rng rng{909};
  const Tensor weight = Tensor::uniform({13, 3, 3, 5}, rng, -0.2F, 0.2F);
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(weight, Tensor{{13}}, 1, 2);
  net.ensure_packed();
  const auto& conv = std::get<snn::PackedConv>(net.packed_layers()[0]);
  ASSERT_EQ(conv.kh, 3);
  ASSERT_EQ(conv.kw, 5);
  for (std::int64_t co = 0; co < conv.cout; ++co) {
    for (std::int64_t ci = 0; ci < conv.cin; ++ci) {
      for (std::int64_t ky = 0; ky < conv.kh; ++ky) {
        for (std::int64_t kx = 0; kx < conv.kw; ++kx) {
          const float want = weight[((co * conv.cin + ci) * conv.kh + ky) * conv.kw + kx];
          ASSERT_EQ(conv.w.data()[k::conv_slot(ci, ky, kx, conv.kh, conv.kw) * conv.cstride + co],
                    want)
              << "co " << co << " ci " << ci << " ky " << ky << " kx " << kx;
        }
      }
    }
  }
}

// --- Comparator-bank fire ------------------------------------------------------
//
// fire_steps counts the levels a float membrane lies below instead of
// searching; it must equal ThresholdLut::fire_step for every float, on every
// supported tier, at every span length (lengths 1..33 put each input in
// every lane of the 32-, 16- and 8-lane blocks and of the masked and the
// scalar tails).
// Inputs: every float within 64 ulps of each level and of the step-0
// boundary, a seeded 1M-sample log-uniform sweep over
// [min_level/2, 2*level(0)], and the special values.

std::vector<float> fire_edge_inputs(const snn::ThresholdLut& lut, double theta0) {
  std::vector<float> u;
  const auto around = [&](float centre) {
    float lo = centre;
    for (int i = 0; i < 64; ++i) lo = std::nextafter(lo, 0.0F);
    float x = lo;
    for (int i = 0; i <= 128; ++i, x = std::nextafter(x, kInf)) u.push_back(x);
  };
  for (int s = 0; s < lut.window(); ++s) around(static_cast<float>(lut.level(s)));
  // The step-0 boundary: Base2Kernel compares against its unrounded theta0.
  around(static_cast<float>(theta0));
  for (const float x : {0.0F, -0.0F, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min(),
                        std::nextafter(std::numeric_limits<float>::min(), 0.0F),
                        -std::numeric_limits<float>::denorm_min(), -1.0F, -0.5F, -1e30F,
                        std::numeric_limits<float>::max(), std::numeric_limits<float>::min()}) {
    u.push_back(x);
  }
  return u;
}

std::vector<float> fire_sweep_inputs(const snn::ThresholdLut& lut, std::uint64_t seed) {
  Rng rng{seed};
  const double lo = std::log2(lut.level(lut.window() - 1) / 2.0);
  const double hi = std::log2(2.0 * lut.level(0));
  std::vector<float> u(1 << 20);
  for (float& x : u) x = static_cast<float>(std::exp2(rng.uniform(lo, hi)));
  return u;
}

// Runs `u` through fire_steps in consecutive spans of `len` and checks every
// step against ThresholdLut::fire_step.
void expect_fire_matches_lut(const snn::ThresholdLut& lut, const std::vector<float>& u,
                             std::int64_t len, const char* what) {
  const auto n = static_cast<std::int64_t>(u.size());
  std::vector<int> got(u.size(), -7);
  for (std::int64_t i = 0; i < n; i += len) {
    k::fire_steps(lut, u.data() + i, std::min(len, n - i), got.data() + i);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = u[static_cast<std::size_t>(i)];
    ASSERT_EQ(got[static_cast<std::size_t>(i)], lut.fire_step(static_cast<double>(x)))
        << what << " len=" << len << " isa=" << k::isa() << " u=" << std::hexfloat << x;
  }
}

void expect_fire_kernel_exact(const snn::ThresholdLut& lut, double theta0, std::uint64_t seed,
                              const char* what) {
  const std::vector<float> edges = fire_edge_inputs(lut, theta0);
  const std::vector<float> sweep = fire_sweep_inputs(lut, seed);
  for (const k::Tier tier : runnable_tiers()) {
    ScopedTier path{tier};
    for (std::int64_t len = 1; len <= 33; ++len) expect_fire_matches_lut(lut, edges, len, what);
    expect_fire_matches_lut(lut, sweep, static_cast<std::int64_t>(sweep.size()), what);
  }
}

TEST(FireKernel, MatchesThresholdLutOnEveryFloatClassBothPaths) {
  const snn::Base2Kernel paper{24, 4.0, 1.0};
  expect_fire_kernel_exact(snn::ThresholdLut{paper}, paper.theta0(), 910, "base2 T=24");
  // theta0 = 0.3 is not a float: level(0) rounds it, top_ does not.
  const snn::Base2Kernel inexact{24, 4.0, 0.3};
  expect_fire_kernel_exact(snn::ThresholdLut{inexact}, inexact.theta0(), 911, "theta0=0.3");
  const snn::Base2Kernel short_window{8, 2.0, 1.0};
  expect_fire_kernel_exact(snn::ThresholdLut{short_window}, 1.0, 912, "base2 T=8");
  const snn::Base2Kernel long_window{64, 8.0, 1.0};
  expect_fire_kernel_exact(snn::ThresholdLut{long_window}, 1.0, 913, "base2 T=64");
  // td > 0 lifts the early levels above theta0; the boundary is level(0).
  const snn::BaseEKernel delayed{40, 9.0, 5.0, 1.0};
  expect_fire_kernel_exact(snn::ThresholdLut{delayed}, delayed.level(0), 914, "base-e td=5");
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
      ASSERT_EQ(got.layers[l].spikes[s].neuron, want.layers[l].spikes[s].neuron)
          << what << " layer " << l << " spike " << s;
      ASSERT_EQ(got.layers[l].spikes[s].step, want.layers[l].spikes[s].step)
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
    ASSERT_EQ(got.logits[i], want.logits[i]) << what << " logit " << i;
  }
}

// A stack chosen to stress the kernel layer's geometry handling: cout 13 and
// fc out 10 (not lane multiples), a stride-2 padded conv, and a conv whose
// output is a single pixel.
snn::SnnNetwork tail_geometry_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({13, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({13}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/1);
  net.add_conv(Tensor::uniform({9, 13, 3, 3}, rng, -0.1F, 0.15F), Tensor{{9}},
               /*stride=*/2, /*pad=*/1);
  net.add_conv(Tensor::uniform({11, 9, 5, 5}, rng, -0.1F, 0.15F),
               Tensor::uniform({11}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/0);
  net.add_fc(Tensor::uniform({10, 11 * 1 * 1}, rng, -0.2F, 0.22F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

// Runs `img` through the event sim and the frozen reference and asserts
// bit-identity, once on each supported tier.
void expect_matches_reference(const snn::SnnNetwork& net, const Tensor& img,
                              const char* what) {
  const snn::EventTrace ref = snn::reference::run_event_sim(net, img);
  for (const k::Tier tier : runnable_tiers()) {
    ScopedTier path{tier};
    SCOPED_TRACE(k::isa());
    expect_traces_identical(snn::run_event_sim(net, img), ref, what);
  }
}

TEST(KernelConformance, TailGeometriesMatchReferenceOnBothPaths) {
  // 3x9x9 input -> 13x9x9 -> 9x5x5 -> 11x1x1 (single pixel) -> 10.
  Rng rng{902};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor img = Tensor::uniform({3, 9, 9}, rng, 0.0F, 1.0F);
    expect_matches_reference(net, img, "tail-geometry");
  }
}

TEST(KernelConformance, SparseAndSilentInputsMatchReference) {
  Rng rng{903};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  // Mostly-zero image: only a few neurons spike, so most timestep groups in
  // the window are empty and several layers integrate tiny spike trains.
  Tensor sparse{{3, 9, 9}};
  sparse[0] = 0.9F;
  sparse[40] = 0.3F;
  expect_matches_reference(net, sparse, "sparse-input");
  // All-zero image: the encoding window emits nothing at all; every layer
  // must integrate an empty spike train (bias-only membranes).
  const Tensor silent{{3, 9, 9}};
  expect_matches_reference(net, silent, "silent-input");
}

TEST(KernelConformance, CacheBlockTilingDoesNotChangeBits) {
  // A tiny block budget forces integrate_conv into many row blocks and
  // integrate_fc into many column blocks (64 bytes = 16 floats, smaller than
  // one padded row); results must not change by a single bit.
  Rng rng{904};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  const Tensor img = Tensor::uniform({3, 9, 9}, rng, 0.0F, 1.0F);
  const snn::EventTrace want = snn::run_event_sim(net, img);
  ScopedBlockBytes tiny{64};
  expect_traces_identical(snn::run_event_sim(net, img), want, "tiny-block");
  expect_matches_reference(net, img, "tiny-block-vs-reference");
}

TEST(KernelConformance, BatchOfFiveMatchesReferenceOnBothPaths) {
  Rng rng{905};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  const Tensor images = Tensor::uniform({5, 3, 9, 9}, rng, 0.0F, 1.0F);
  ThreadPool pool{3};
  for (const k::Tier tier : runnable_tiers()) {
    ScopedTier guard{tier};
    snn::SessionOptions sopts;
    sopts.pool = &pool;
    snn::InferenceSession session = snn::Engine{net}.session(snn::BackendKind::kEventSim, sopts);
    snn::RunOptions opts;
    opts.traces = true;
    const snn::RunResult batched = session.run(snn::BatchView{images}, opts);
    ASSERT_EQ(batched.traces.size(), 5U);
    for (std::int64_t i = 0; i < images.dim(0); ++i) {
      const snn::EventTrace ref = snn::reference::run_event_sim(net, images.sample0(i));
      expect_traces_identical(batched.traces[static_cast<std::size_t>(i)], ref,
                              (std::string{"batch-"} + k::isa()).c_str());
    }
  }
}

TEST(KernelConformance, IntraSampleSplitMatchesReference) {
  // Batch of 1 on a multi-worker pool: the session enables the arena's intra
  // pool, so large layers split disjoint output ranges across workers. A
  // 3x16x16 input through a 3x3 conv clears the split's work threshold; the
  // shrunken block budget additionally composes tiling with the split.
  Rng rng{906};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({12, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 12 * 8 * 8}, rng, -0.05F, 0.06F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  const Tensor img = Tensor::uniform({3, 16, 16}, rng, 0.1F, 1.0F);
  const snn::EventTrace ref = snn::reference::run_event_sim(net, img);

  ThreadPool pool{4};
  snn::SessionOptions sopts;
  sopts.pool = &pool;
  snn::InferenceSession session{net, snn::make_backend(snn::BackendKind::kEventSim),
                                std::move(sopts)};
  snn::RunOptions ropts;
  ropts.traces = true;
  const Tensor one = img.reshaped({1, 3, 16, 16});
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{256}}) {
    ScopedBlockBytes guard{block};
    for (const k::Tier tier : runnable_tiers()) {
      ScopedTier path{tier};
      snn::RunResult run = session.run(snn::BatchView{one}, ropts);
      ASSERT_EQ(run.traces.size(), 1U);
      expect_traces_identical(run.traces[0], ref, (std::string{"intra-"} + k::isa()).c_str());
    }
  }
}

// --- Conv tap walk: stride x pad x kernel sweep -------------------------------
//
// integrate_conv sizes each spike's reachable output run once and steps
// through it with no division; this sweep pins that walk against the per-tap
// definition (tap ky reaches yo = (yi + pad - ky) / stride when the division
// is exact). The 9x8 input is non-square, and several geometries leave
// (h + 2*pad - k) indivisible by the stride, so the input's last rows and
// columns fall past the final output through some taps. The pack mirrors kx
// only (kernels::conv_slot), so a second sweep runs non-square kernels,
// where a kh/kw mix-up in the walk or the slot rule would show. The kernel
// check repeats every geometry over kTapCouts, on every supported tier: on
// a vector tier a 3x3 stride-1 layer hands interior spikes to a
// whole-window add unrolled for channel strides 16, 24, 32 and 64 (couts
// 13, 24, 32, 64; 16-lane bodies at 16, 32 and 64 on the AVX-512 tier,
// 8-lane ones at 24), while 5 and 8 (stride 8) and 72 stay on per-row taps;
// border spikes take per-row taps at every width, spans of 8, 24, 40 or 72
// lanes among them, which no 16-lane register divides.
constexpr std::int64_t kTapCin = 3, kTapH = 9, kTapW = 8, kTapCout = 13;
constexpr std::int64_t kTapCouts[] = {5, 8, 13, 24, 32, 64, 72};

k::ConvGeom tap_walk_geom(int stride, int pad, int kh, int kw, std::int64_t hin = kTapH,
                          std::int64_t win = kTapW) {
  k::ConvGeom g;
  g.cin = kTapCin;
  g.hin = hin;
  g.win = win;
  g.cout = kTapCout;
  g.cstride = k::padded(kTapCout);
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.oh = (hin + 2 * pad - kh) / stride + 1;
  g.ow = (win + 2 * pad - kw) / stride + 1;
  return g;
}

// (stride, pad, kernel): square kernels.
class ConvTapWalk : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  k::ConvGeom geom() const {
    const auto [stride, pad, kernel] = GetParam();
    return tap_walk_geom(stride, pad, kernel, kernel);
  }
};

// (stride, pad, (kh, kw)): non-square kernels.
class ConvTapWalkNonSquare
    : public ::testing::TestWithParam<std::tuple<int, int, std::pair<int, int>>> {
 protected:
  k::ConvGeom geom() const {
    const auto [stride, pad, taps] = GetParam();
    return tap_walk_geom(stride, pad, taps.first, taps.second);
  }
};

// A (step, neuron)-sorted train where ~60% of neurons fire once each.
std::vector<snn::Spike> random_spike_train(std::int64_t neurons, int window, Rng& rng) {
  std::vector<int> step_of(static_cast<std::size_t>(neurons), -1);
  for (int& step : step_of) {
    if (rng.bernoulli(0.6)) step = static_cast<int>(rng.uniform_int(0, window - 1));
  }
  std::vector<snn::Spike> spikes;
  for (int step = 0; step < window; ++step) {
    for (std::int64_t i = 0; i < neurons; ++i) {
      if (step_of[static_cast<std::size_t>(i)] == step) {
        spikes.push_back({static_cast<std::int32_t>(i), step});
      }
    }
  }
  return spikes;
}

// A (step, neuron)-sorted train built for the walk's same-step runs: input
// rows cycle through four patterns — the whole row at one step; runs of
// length 2 (x = 3j, 3j+1); a run of 3 at each end, touching x = 0 and
// x = win - 1, around scattered spikes; scattered spikes only. Whenever a
// row's last pixel fires, the next row's first pixel fires at the same step:
// the two ids are consecutive, but they sit in different input rows and must
// not fuse.
std::vector<snn::Spike> row_run_spike_train(std::int64_t cin, std::int64_t hin,
                                            std::int64_t win, int window, Rng& rng) {
  const auto draw = [&] { return static_cast<int>(rng.uniform_int(0, window - 1)); };
  std::vector<int> step_of(static_cast<std::size_t>(cin * hin * win), -1);
  int seam = -1;  // the step of the previous row's last pixel
  for (std::int64_t row = 0; row < cin * hin; ++row) {
    int* r = step_of.data() + row * win;
    switch (row % 4) {
      case 0:
        std::fill(r, r + win, draw());
        break;
      case 1:
        for (std::int64_t x = 0; x < win; x += 3) {
          const int step = draw();
          r[x] = step;
          if (x + 1 < win) r[x + 1] = step;
        }
        break;
      case 2: {
        const int head = draw(), tail = draw();
        for (std::int64_t x = 0; x < win; ++x) r[x] = rng.bernoulli(0.5) ? draw() : -1;
        for (std::int64_t x = 0; x < std::min<std::int64_t>(3, win); ++x) {
          r[x] = head;
          r[win - 1 - x] = tail;
        }
        break;
      }
      default:
        for (std::int64_t x = 0; x < win; ++x) r[x] = rng.bernoulli(0.6) ? draw() : -1;
        break;
    }
    if (seam >= 0 && r[0] >= 0) r[0] = seam;
    seam = r[win - 1];
  }
  std::vector<snn::Spike> spikes;
  for (int step = 0; step < window; ++step) {
    for (std::size_t i = 0; i < step_of.size(); ++i) {
      if (step_of[i] == step) spikes.push_back({static_cast<std::int32_t>(i), step});
    }
  }
  return spikes;
}

enum class Train { kRandom, kRowRuns };

void expect_walk_matches_per_tap_division(const k::ConvGeom& g, Train train) {
  Rng rng{907};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  const snn::ThresholdLut lut{kernel};
  std::vector<float> w(static_cast<std::size_t>(g.cin * g.kh * g.kw * g.cstride), 0.0F);
  // Drawn in (ci, ky, kx, co) order, so every tap gets the same weight
  // whatever the slot rule.
  for (std::int64_t tap = 0; tap < g.cin * g.kh * g.kw; ++tap) {
    const std::int64_t slot =
        k::conv_slot(tap / (g.kh * g.kw), tap / g.kw % g.kh, tap % g.kw, g.kh, g.kw);
    for (std::int64_t co = 0; co < g.cout; ++co) {
      w[static_cast<std::size_t>(slot * g.cstride + co)] = rng.uniform_f(-0.5F, 0.5F);
    }
  }
  std::vector<float> init(static_cast<std::size_t>(g.oh * g.ow * g.cstride));
  for (float& x : init) x = rng.uniform_f(-0.1F, 0.1F);
  const std::vector<snn::Spike> spikes =
      train == Train::kRowRuns
          ? row_run_spike_train(g.cin, g.hin, g.win, kernel.window(), rng)
          : random_spike_train(g.cin * g.hin * g.win, kernel.window(), rng);
  const auto nspikes = static_cast<std::int64_t>(spikes.size());

  // The definition: every (ky, kx) of every spike, in train order.
  std::vector<float> want = init;
  std::int64_t want_ops = 0;
  for (const snn::Spike& sp : spikes) {
    const std::int64_t ci = sp.neuron / (g.hin * g.win);
    const std::int64_t yi = sp.neuron / g.win % g.hin;
    const std::int64_t xi = sp.neuron % g.win;
    const float v = static_cast<float>(lut.level(sp.step));
    for (std::int64_t ky = 0; ky < g.kh; ++ky) {
      const std::int64_t ynum = yi + g.pad - ky;
      if (ynum < 0 || ynum % g.stride != 0 || ynum / g.stride >= g.oh) continue;
      for (std::int64_t kx = 0; kx < g.kw; ++kx) {
        const std::int64_t xnum = xi + g.pad - kx;
        if (xnum < 0 || xnum % g.stride != 0 || xnum / g.stride >= g.ow) continue;
        const std::int64_t pixel = (ynum / g.stride) * g.ow + xnum / g.stride;
        k::axpy_scalar(want.data() + pixel * g.cstride,
                       w.data() + k::conv_slot(ci, ky, kx, g.kh, g.kw) * g.cstride, v,
                       g.cstride);
        want_ops += g.cout;
      }
    }
  }

  // Default and 64-byte blocks (one row block per output row), whole layer
  // and a two-way row split, every supported tier.
  const std::int64_t mid = g.oh / 2;
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{64}}) {
    ScopedBlockBytes blocks{block};
    for (const k::Tier tier : runnable_tiers()) {
      ScopedTier path{tier};
      for (const bool split : {false, true}) {
        std::vector<float> got = init;
        const auto rows = [&](std::int64_t lo, std::int64_t hi) {
          return k::integrate_conv(g, w.data(), spikes.data(), nspikes, lut, got.data(), lo, hi);
        };
        const std::int64_t ops = split ? rows(0, mid) + rows(mid, g.oh) : rows(0, g.oh);
        EXPECT_EQ(ops, want_ops) << "cout=" << g.cout << " block=" << block
                                 << " isa=" << k::isa() << " split=" << split;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "cout=" << g.cout << " block=" << block
                                     << " isa=" << k::isa() << " split=" << split
                                     << " lane " << i;
        }
      }
    }
  }
}

snn::SnnNetwork tap_walk_net(const k::ConvGeom& g, Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({kTapCout, kTapCin, g.kh, g.kw}, rng, -0.1F, 0.3F),
               Tensor::uniform({kTapCout}, rng, -0.05F, 0.1F), g.stride, g.pad);
  net.add_fc(Tensor::uniform({10, kTapCout * g.oh * g.ow}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

void expect_net_matches_reference_under_tiny_blocks(const k::ConvGeom& g) {
  Rng rng{908};
  const snn::SnnNetwork net = tap_walk_net(g, rng);
  ScopedBlockBytes tiny{64};
  for (int trial = 0; trial < 2; ++trial) {
    const Tensor img = Tensor::uniform({kTapCin, kTapH, kTapW}, rng, 0.0F, 1.0F);
    expect_matches_reference(net, img, "tap-walk");
  }
}

// The same net on an image whose input encoding emits row_run_spike_train:
// pixel i holds the float level of its step (it fires exactly there) or 0
// (silent). Default and 64-byte blocks.
void expect_row_run_net_matches_reference(const k::ConvGeom& g) {
  Rng rng{909};
  const snn::SnnNetwork net = tap_walk_net(g, rng);
  const snn::ThresholdLut& lut = net.threshold_lut();
  const std::vector<snn::Spike> train =
      row_run_spike_train(kTapCin, kTapH, kTapW, lut.window(), rng);
  Tensor img{{kTapCin, kTapH, kTapW}};
  for (const snn::Spike& sp : train) img[sp.neuron] = lut.float_levels()[sp.step];
  const std::vector<snn::Spike> encoded = snn::run_event_sim(net, img).layers[0].spikes;
  ASSERT_EQ(encoded.size(), train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    ASSERT_EQ(encoded[i].neuron, train[i].neuron) << "spike " << i;
    ASSERT_EQ(encoded[i].step, train[i].step) << "spike " << i;
  }
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{64}}) {
    ScopedBlockBytes blocks{block};
    expect_matches_reference(net, img, "row-run tap-walk");
  }
}

// The geometry of `g` at every width in kTapCouts.
void expect_walk_matches_per_tap_division_at_every_cout(const k::ConvGeom& g,
                                                        Train train = Train::kRandom) {
  for (const std::int64_t cout : kTapCouts) {
    k::ConvGeom gc = g;
    gc.cout = cout;
    gc.cstride = k::padded(cout);
    expect_walk_matches_per_tap_division(gc, train);
  }
}

TEST_P(ConvTapWalk, KernelMatchesPerTapDivisionOnBothPathsAndEverySplit) {
  expect_walk_matches_per_tap_division_at_every_cout(geom());
}

TEST_P(ConvTapWalk, NetMatchesReferenceOnBothPathsUnderTinyBlocks) {
  expect_net_matches_reference_under_tiny_blocks(geom());
}

TEST_P(ConvTapWalkNonSquare, KernelMatchesPerTapDivisionOnBothPathsAndEverySplit) {
  expect_walk_matches_per_tap_division_at_every_cout(geom());
}

// Same-step runs: on the vector path a 3x3 stride-1 layer at a whole-window
// width hands each run of two or more spikes to one fused run add.
TEST_P(ConvTapWalk, RowRunsMatchPerTapDivisionOnBothPathsAndEverySplit) {
  expect_walk_matches_per_tap_division_at_every_cout(geom(), Train::kRowRuns);
}

TEST_P(ConvTapWalk, RowRunNetMatchesReferenceOnBothPaths) {
  expect_row_run_net_matches_reference(geom());
}

TEST_P(ConvTapWalkNonSquare, RowRunsMatchPerTapDivisionOnBothPathsAndEverySplit) {
  expect_walk_matches_per_tap_division_at_every_cout(geom(), Train::kRowRuns);
}

// 3x3 stride 1 over 1x1 and 2x2 inputs (pad 1, so the output is as large as
// the input): no spike reaches all 3 output rows and columns, so even the
// widths with a whole-window add run per-row taps only, and every run
// touches both row ends.
TEST(ConvTapWalkTiny, NoInteriorSpikeOn1x1And2x2Inputs) {
  for (const std::int64_t side : {1, 2}) {
    expect_walk_matches_per_tap_division_at_every_cout(tap_walk_geom(1, 1, 3, 3, side, side));
    expect_walk_matches_per_tap_division_at_every_cout(tap_walk_geom(1, 1, 3, 3, side, side),
                                                       Train::kRowRuns);
  }
}

// The walk's neuron-id decode: Reciprocal::divide against `/` for every
// divisor up to 2^16 at each quotient boundary — 0, d - 1, d, the last
// multiple of d below 2^31 and the value before it, and 2^31 - 1 — plus
// large divisors up to the largest int32.
TEST(Reciprocal, MatchesDivisionAtEveryQuotientBoundary) {
  constexpr std::uint32_t kMaxN = 0x7fffffffU;
  const auto check = [](std::uint32_t d) {
    const k::Reciprocal r{d};
    const std::uint32_t top = kMaxN / d * d;  // q*d with q = (2^31 - 1) / d
    for (const std::uint32_t n : {0U, d - 1, d, top - 1, top, kMaxN}) {
      if (r.divide(n) != n / d) {
        ADD_FAILURE() << n << " / " << d << ": got " << r.divide(n) << ", want " << n / d;
        return false;
      }
    }
    return true;
  };
  for (std::uint32_t d = 1; d <= (1U << 16); ++d) {
    if (!check(d)) return;
  }
  for (const std::uint32_t d :
       {(1U << 16) + 1, 1U << 20, (1U << 20) + 1, 3U << 28, 1U << 30, kMaxN - 1, kMaxN}) {
    if (!check(d)) return;
  }
}

TEST_P(ConvTapWalkNonSquare, NetMatchesReferenceOnBothPathsUnderTinyBlocks) {
  expect_net_matches_reference_under_tiny_blocks(geom());
}

// --- One case per tier ------------------------------------------------------------
//
// Each tier gets its own case, skipped with the tier's name where this build
// or CPU does not run it: the tier's HWC pooling kernel matches the
// per-channel definition at every padded width the stacks use (8, 16, 24,
// 32, 64 lanes), out of place and in place.
class TierKernels : public ::testing::TestWithParam<k::Tier> {
 protected:
  void SetUp() override {
    if (GetParam() > k::supported_tier()) {
      GTEST_SKIP() << "the " << tier_name(GetParam())
                   << " kernel tier does not run in this build on this CPU";
    }
  }
};

TEST_P(TierKernels, HwcPoolMatchesDefinitionAtEveryPaddedWidth) {
  ScopedTier path{GetParam()};
  Rng rng{915};
  constexpr std::int64_t kH = 7, kW = 9;
  for (const std::int64_t c : {5, 13, 24, 32, 64}) {
    const std::int64_t lanes = k::padded(c);
    std::vector<int> grid(static_cast<std::size_t>(kH * kW * lanes), snn::kNoSpike);
    for (std::int64_t p = 0; p < kH * kW; ++p) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        grid[static_cast<std::size_t>(p * lanes + ch)] =
            rng.bernoulli(0.3) ? snn::kNoSpike : static_cast<int>(rng.uniform_int(0, 23));
      }
    }
    for (const auto& [kernel, stride] :
         {std::pair{2, 2}, std::pair{3, 2}, std::pair{2, 1}, std::pair{3, 3}}) {
      const std::int64_t oh = (kH - kernel) / stride + 1;
      const std::int64_t ow = (kW - kernel) / stride + 1;
      std::vector<int> want(static_cast<std::size_t>(oh * ow * lanes), snn::kNoSpike);
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            auto best = static_cast<std::uint32_t>(snn::kNoSpike);
            for (std::int64_t ky = 0; ky < kernel; ++ky) {
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                const std::int64_t p = (oy * stride + ky) * kW + ox * stride + kx;
                const int step = grid[static_cast<std::size_t>(p * lanes + ch)];
                best = std::min(best, static_cast<std::uint32_t>(step));
              }
            }
            want[static_cast<std::size_t>((oy * ow + ox) * lanes + ch)] = static_cast<int>(best);
          }
        }
      }
      const k::StepGrid in{grid.data(), c, kH, kW, lanes, 1};
      std::vector<int> got(want.size(), -7);
      k::pool_steps(in, kernel, stride, got.data());
      EXPECT_EQ(got, want) << "c=" << c << " kernel=" << kernel << " stride=" << stride;
      std::vector<int> in_place = grid;
      k::pool_steps({in_place.data(), c, kH, kW, lanes, 1}, kernel, stride, in_place.data());
      in_place.resize(want.size());
      EXPECT_EQ(in_place, want) << "in place, c=" << c << " kernel=" << kernel
                                << " stride=" << stride;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, TierKernels,
                         ::testing::Values(k::Tier::kScalar, k::Tier::kAvx2, k::Tier::kAvx512),
                         [](const ::testing::TestParamInfo<k::Tier>& info) {
                           return std::string{tier_name(info.param)};
                         });

INSTANTIATE_TEST_SUITE_P(StridePadKernel, ConvTapWalk,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 3, 5)));

INSTANTIATE_TEST_SUITE_P(StridePadKhKw, ConvTapWalkNonSquare,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(std::pair{3, 5}, std::pair{1, 3},
                                                              std::pair{5, 1})));

}  // namespace
}  // namespace ttfs
