// Kernel-layer tests (snn/simd.h): primitive bit-identity between the SIMD
// and scalar paths across tail geometries, the aligned-buffer contract, the
// packed-row bias broadcast, cache-block tiling, and full-simulator
// conformance against the frozen reference for geometries that stress the
// lane padding — cout/out not a multiple of the vector width, stride-2 +
// padded conv taps, single-pixel layers, and empty timestep groups. In a
// TTFS_SIMD=OFF build force_scalar() is a no-op and every case still runs:
// the suite then asserts the scalar fallback against the reference, which is
// exactly what the CI simd-off lane is for. A stride x pad x kernel sweep pins
// integrate_conv's division-free tap walk against the per-tap definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/kernel.h"
#include "snn/network.h"
#include "snn/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

namespace k = snn::kernels;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// RAII: force the scalar path for one scope, restore on exit.
struct ScopedScalar {
  explicit ScopedScalar(bool on) { k::force_scalar(on); }
  ~ScopedScalar() { k::force_scalar(false); }
};

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
  // In a SIMD build on an AVX2 machine the default path is "avx2" and
  // force_scalar(true) must demote it; in a scalar build both reads say
  // "scalar". Either way the flag round-trips.
  const bool simd_default = k::simd_active();
  EXPECT_STREQ(k::isa(), simd_default ? "avx2" : "scalar");
  {
    ScopedScalar scalar{true};
    EXPECT_FALSE(k::simd_active());
    EXPECT_STREQ(k::isa(), "scalar");
  }
  EXPECT_EQ(k::simd_active(), simd_default);
}

TEST(AxpyKernel, BitIdenticalToScalarForEveryTailAndOffset) {
  // n = 1..33 covers sub-lane, exact-lane, and every tail length around the
  // 8- and 16-float strips; offsets 0..3 de-align both operands. The kernel
  // value is a real TTFS level (a float-rounded transcendental, the operand
  // class where an FMA would diverge).
  Rng rng{900};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  std::vector<float> w(64), a(64), b(64);
  for (std::int64_t n = 1; n <= 33; ++n) {
    for (std::int64_t off = 0; off < 4; ++off) {
      for (float& x : w) x = rng.uniform_f(-1.0F, 1.0F);
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = rng.uniform_f(-2.0F, 2.0F);
      const float v = static_cast<float>(kernel.level(static_cast<int>(n) % 24));
      k::axpy(a.data() + off, w.data() + off, v, n);
      k::axpy_scalar(b.data() + off, w.data() + off, v, n);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "n=" << n << " off=" << off << " i=" << i;
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
  net.add_conv(random_tensor({13, 3, 3, 3}, rng, -0.2F, 0.2F), Tensor{{13}}, 1, 1);
  net.add_fc(random_tensor({10, 13 * 8 * 8}, rng, -0.1F, 0.1F), Tensor{{10}});
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
  net.add_conv(random_tensor({13, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({13}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/1);
  net.add_conv(random_tensor({9, 13, 3, 3}, rng, -0.1F, 0.15F), Tensor{{9}},
               /*stride=*/2, /*pad=*/1);
  net.add_conv(random_tensor({11, 9, 5, 5}, rng, -0.1F, 0.15F),
               random_tensor({11}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/0);
  net.add_fc(random_tensor({10, 11 * 1 * 1}, rng, -0.2F, 0.22F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

// Runs `img` through the event sim and the frozen reference and asserts
// bit-identity, once on the dispatch-default path and once forced scalar.
void expect_matches_reference(const snn::SnnNetwork& net, const Tensor& img,
                              const char* what) {
  const snn::EventTrace ref = snn::reference::run_event_sim(net, img);
  expect_traces_identical(snn::run_event_sim(net, img), ref, what);
  ScopedScalar scalar{true};
  expect_traces_identical(snn::run_event_sim(net, img), ref, what);
}

TEST(KernelConformance, TailGeometriesMatchReferenceOnBothPaths) {
  // 3x9x9 input -> 13x9x9 -> 9x5x5 -> 11x1x1 (single pixel) -> 10.
  Rng rng{902};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor img = random_tensor({3, 9, 9}, rng, 0.0F, 1.0F);
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
  const Tensor img = random_tensor({3, 9, 9}, rng, 0.0F, 1.0F);
  const snn::EventTrace want = snn::run_event_sim(net, img);
  ScopedBlockBytes tiny{64};
  expect_traces_identical(snn::run_event_sim(net, img), want, "tiny-block");
  expect_matches_reference(net, img, "tiny-block-vs-reference");
}

TEST(KernelConformance, BatchOfFiveMatchesReferenceOnBothPaths) {
  Rng rng{905};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  const Tensor images = random_tensor({5, 3, 9, 9}, rng, 0.0F, 1.0F);
  ThreadPool pool{3};
  for (const bool scalar : {false, true}) {
    ScopedScalar guard{scalar};
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
                              scalar ? "batch-scalar" : "batch-simd");
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
  net.add_conv(random_tensor({12, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 12 * 8 * 8}, rng, -0.05F, 0.06F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  const Tensor img = random_tensor({3, 16, 16}, rng, 0.1F, 1.0F);
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
    for (const bool scalar : {false, true}) {
      ScopedScalar path{scalar};
      snn::RunResult run = session.run(snn::BatchView{one}, ropts);
      ASSERT_EQ(run.traces.size(), 1U);
      expect_traces_identical(run.traces[0], ref, scalar ? "intra-scalar" : "intra-simd");
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
// columns fall past the final output through some taps.
class ConvTapWalk : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  static constexpr std::int64_t kCin = 3, kH = 9, kW = 8, kCout = 13;

  k::ConvGeom geom() const {
    const auto [stride, pad, kernel] = GetParam();
    k::ConvGeom g;
    g.cin = kCin;
    g.hin = kH;
    g.win = kW;
    g.cout = kCout;
    g.cstride = k::padded(kCout);
    g.kh = g.kw = kernel;
    g.stride = stride;
    g.pad = pad;
    g.oh = (kH + 2 * pad - kernel) / stride + 1;
    g.ow = (kW + 2 * pad - kernel) / stride + 1;
    return g;
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

TEST_P(ConvTapWalk, KernelMatchesPerTapDivisionOnBothPathsAndEverySplit) {
  const k::ConvGeom g = geom();
  Rng rng{907};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  const snn::ThresholdLut lut{kernel};
  std::vector<float> w(static_cast<std::size_t>(g.cin * g.kh * g.kw * g.cstride), 0.0F);
  for (std::int64_t slot = 0; slot < g.cin * g.kh * g.kw; ++slot) {
    for (std::int64_t co = 0; co < g.cout; ++co) {
      w[static_cast<std::size_t>(slot * g.cstride + co)] = rng.uniform_f(-0.5F, 0.5F);
    }
  }
  std::vector<float> init(static_cast<std::size_t>(g.oh * g.ow * g.cstride));
  for (float& x : init) x = rng.uniform_f(-0.1F, 0.1F);
  const std::vector<snn::Spike> spikes =
      random_spike_train(g.cin * g.hin * g.win, kernel.window(), rng);
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
                       w.data() + ((ci * g.kh + ky) * g.kw + kx) * g.cstride, v, g.cstride);
        want_ops += g.cout;
      }
    }
  }

  // Default and 64-byte blocks (one row block per output row), whole layer
  // and a two-way row split, dispatch-default and forced-scalar paths.
  const std::int64_t mid = g.oh / 2;
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{64}}) {
    ScopedBlockBytes blocks{block};
    for (const bool scalar : {false, true}) {
      ScopedScalar path{scalar};
      for (const bool split : {false, true}) {
        std::vector<float> got = init;
        const auto rows = [&](std::int64_t lo, std::int64_t hi) {
          return k::integrate_conv(g, w.data(), spikes.data(), nspikes, lut, got.data(), lo, hi);
        };
        const std::int64_t ops = split ? rows(0, mid) + rows(mid, g.oh) : rows(0, g.oh);
        EXPECT_EQ(ops, want_ops) << "block=" << block << " scalar=" << scalar
                                 << " split=" << split;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "block=" << block << " scalar=" << scalar
                                     << " split=" << split << " lane " << i;
        }
      }
    }
  }
}

TEST_P(ConvTapWalk, NetMatchesReferenceOnBothPathsUnderTinyBlocks) {
  const k::ConvGeom g = geom();
  Rng rng{908};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({kCout, kCin, g.kh, g.kw}, rng, -0.1F, 0.3F),
               random_tensor({kCout}, rng, -0.05F, 0.1F), g.stride, g.pad);
  net.add_fc(random_tensor({10, kCout * g.oh * g.ow}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  ScopedBlockBytes tiny{64};
  for (int trial = 0; trial < 2; ++trial) {
    const Tensor img = random_tensor({kCin, kH, kW}, rng, 0.0F, 1.0F);
    expect_matches_reference(net, img, "tap-walk");
  }
}

INSTANTIATE_TEST_SUITE_P(StridePadKernel, ConvTapWalk,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 3, 5)));

}  // namespace
}  // namespace ttfs
