// Quantized integer inference path (snn/quant.h): pack construction, the
// integer kernels, and the quantized simulator's fixed-point arithmetic.
//
// The load-bearing properties, each pinned here:
//  * the pack's int16 codes are EXACTLY the codes cat::log_quantize_code
//    emits — not re-derived from the expanded floats (lossy at the clamp
//    edge) — and round-trip through cat::expand_code to the stored weights;
//  * the pack's LUT is bit-identical to cat::LogPe's, and one synaptic add
//    through integrate_fc_q equals LogPe::accumulate add-for-add, so traces
//    from the quantized kernels co-simulate against hw/processor exactly —
//    and integrate_conv_q's tap walk matches LogPe add-for-add over a
//    stride x pad x kernel sweep, under multi-block tiling;
//  * the saturating int32 accumulator clamps to [-limit, limit - 1] like the
//    PE's Vmem register, with products of huge weights capped so the barrel
//    shift stays defined and still lands on the rail LogPe lands on;
//  * the pack build rejects unquantized weights and non-hardware kernels
//    instead of silently packing nearest codes;
//  * the quantized pack is ~2x smaller than the float event pack under the
//    same byte accounting the model registry uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "snn/quant.h"
#include "snn/simd.h"
#include "util/rng.h"

namespace ttfs {
namespace {

// Conv/pool/fc stack on 3x8x8 inputs, same shape family as the engine
// conformance net. theta0 = 1 and tau = 4 = 2^2 satisfy the hardware kernel
// constraints (Eq. 18) the pack build enforces.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

// Walks one weight tensor against its packed codes via an accessor
// (tensor index -> packed int16), asserting the pack stores exactly the code
// the quantizer emits for the ORIGINAL weight — the property that breaks if
// the pack re-derives q from the expanded float at the clamp edge.
template <typename CodeAt>
void expect_codes_match(const Tensor& original, const Tensor& quantized, int q_max,
                        const cat::LogQuantConfig& qconfig, CodeAt code_at,
                        const std::string& what) {
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    const cat::LogQuantCode code = cat::log_quantize_code(original[i], q_max, qconfig);
    const std::int16_t packed = code_at(i);
    if (code.zero) {
      EXPECT_EQ(packed, snn::kQuantZeroCode) << what << " weight " << i;
      EXPECT_EQ(quantized[i], 0.0F) << what << " weight " << i;
    } else {
      const std::int16_t want =
          static_cast<std::int16_t>(code.q * 2 + (code.sign < 0 ? 1 : 0));
      EXPECT_EQ(packed, want) << what << " weight " << i;
      // Decode the packed lane back to (sign, q) and expand: must hit the
      // quantized tensor's float exactly (the round-trip property).
      cat::LogQuantCode back;
      back.zero = false;
      back.q = packed >> 1;  // arithmetic shift recovers q for either sign
      back.sign = (packed & 1) != 0 ? -1 : 1;
      EXPECT_EQ(static_cast<float>(cat::expand_code(back, qconfig)), quantized[i])
          << what << " weight " << i;
    }
  }
}

// The pack stores the quantizer's exact code stream, per layer, for both
// layouts (conv slot-major, fc column-major).
TEST(QuantizedWeightPack, PackCodesAreExactlyTheQuantizerCodes) {
  Rng rng{2024};
  snn::SnnNetwork net = make_net(rng);
  const snn::SnnNetwork original = net;  // pre-quantization copy

  cat::LogQuantConfig qconfig;  // bits = 5, z = 1
  const std::vector<cat::LayerQuantInfo> infos = cat::log_quantize_network(net, qconfig);

  static_assert(snn::kQuantZ == 1, "the pack's z matches the quantizer's");
  const snn::QuantizedWeightPack pack = snn::build_quantized_pack(net);
  ASSERT_EQ(pack.layers.size(), net.layers().size());

  std::size_t info_idx = 0;
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    if (const auto* conv = std::get_if<snn::SnnConv>(&net.layers()[li])) {
      const auto& orig = std::get<snn::SnnConv>(original.layers()[li]);
      const auto& qc = std::get<snn::QuantizedConv>(pack.layers[li]);
      const int q_max = infos[info_idx++].q_max;
      const std::int64_t slots = qc.cin * qc.kh * qc.kw;
      // Tensor index (co, ci, ky, kx) row-major -> pack lane
      // conv_slot(ci, ky, kx)*cstride + co.
      expect_codes_match(orig.weight, conv->weight, q_max, qconfig,
                         [&](std::int64_t i) {
                           const std::int64_t co = i / slots;
                           const std::int64_t ci = i % slots / (qc.kh * qc.kw);
                           const std::int64_t ky = i % (qc.kh * qc.kw) / qc.kw;
                           const std::int64_t kx = i % qc.kw;
                           const std::int64_t slot =
                               snn::kernels::conv_slot(ci, ky, kx, qc.kh, qc.kw);
                           return qc.w.data()[slot * qc.cstride + co];
                         },
                         "conv layer " + std::to_string(li));
    } else if (const auto* fc = std::get_if<snn::SnnFc>(&net.layers()[li])) {
      const auto& orig = std::get<snn::SnnFc>(original.layers()[li]);
      const auto& qf = std::get<snn::QuantizedFc>(pack.layers[li]);
      const int q_max = infos[info_idx++].q_max;
      expect_codes_match(orig.weight, fc->weight, q_max, qconfig,
                         [&](std::int64_t i) {
                           const std::int64_t j = i / qf.in;
                           const std::int64_t col = i % qf.in;
                           return qf.w.data()[col * qf.ostride + j];
                         },
                         "fc layer " + std::to_string(li));
    }
  }
}

// The pack's LUT must be bit-identical to LogPe's for the same geometry —
// this is the shared table that makes kernel products equal PE products.
TEST(QuantizedWeightPack, LutIsBitIdenticalToLogPe) {
  Rng rng{7};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});
  const snn::QuantizedWeightPack pack = snn::build_quantized_pack(net);

  cat::LogPeConfig pe_config;
  pe_config.p = pack.p;
  pe_config.z = snn::kQuantZ;
  pe_config.lut_bits = snn::kQuantLutBits;
  pe_config.acc_frac_bits = snn::kQuantAccFracBits;
  pe_config.acc_int_bits = snn::kQuantAccIntBits;
  const cat::LogPe pe{pe_config};
  ASSERT_EQ(pack.lut.size(), pe.lut().size());
  for (std::size_t i = 0; i < pack.lut.size(); ++i) {
    EXPECT_EQ(pack.lut[i], pe.lut()[i]) << "LUT entry " << i;
  }
  EXPECT_EQ(pack.frac_bits(), pe_config.frac_bits());
}

// Kernel parameters over a LogPe's own LUT, premultiplied as the pack build
// does (quant.cpp); the code range is left to the caller.
snn::kernels::QuantKernelParams kernel_params(const cat::LogPe& pe) {
  const cat::LogPeConfig& c = pe.config();
  snn::kernels::QuantKernelParams qp;
  qp.lut = pe.lut().data();  // the shared table, by construction
  qp.frac_bits = c.frac_bits();
  qp.lut_bits = c.lut_bits;
  qp.acc_frac_bits = c.acc_frac_bits;
  qp.acc_limit = std::int64_t{1} << (c.acc_int_bits + c.acc_frac_bits);
  qp.wmul = 1 << (qp.frac_bits - c.z);
  qp.smul = 1 << (qp.frac_bits - c.p);
  return qp;
}

// One synaptic add through the integer FC kernel equals LogPe::accumulate
// add-for-add, across the full (sign, q, step) grid: the conformance that
// lets quantized traces co-simulate against hw/processor with no drift.
TEST(QuantKernels, IntegrateFcMatchesLogPeAccumulateAddForAdd) {
  cat::LogPeConfig pe_config;  // p = 2, z = 1
  pe_config.lut_bits = 24;
  pe_config.acc_frac_bits = 24;
  pe_config.acc_int_bits = 7;
  cat::LogPe pe{pe_config};
  snn::kernels::QuantKernelParams qp = kernel_params(pe);

  const std::int64_t ostride = snn::kernels::kLaneFloats;
  for (int q = -12; q <= 12; ++q) {
    qp.q_lo = q;
    qp.q_hi = q;
    for (const int sign : {1, -1}) {
      std::int16_t codes[8];
      std::fill(codes, codes + 8, snn::kQuantZeroCode);
      codes[0] = static_cast<std::int16_t>(q * 2 + (sign < 0 ? 1 : 0));
      for (const int step : {0, 1, 5, 11, 23}) {
        std::int32_t acc[8] = {0};
        const snn::Spike spike{0, step};
        const std::int64_t ops = snn::kernels::integrate_fc_q(
            /*out=*/1, ostride, codes, &spike, 1, qp, acc, 0, ostride);
        EXPECT_EQ(ops, 1) << "q=" << q << " step=" << step;

        pe.reset();
        const std::int64_t add = pe.accumulate(sign, q, step);
        // Single add, no saturation at this config: the kernel's int32
        // accumulator must hold exactly the PE's added LSBs.
        EXPECT_EQ(static_cast<std::int64_t>(acc[0]), add)
            << "sign=" << sign << " q=" << q << " step=" << step;
        EXPECT_EQ(std::ldexp(static_cast<double>(acc[0]), -qp.acc_frac_bits), pe.membrane())
            << "sign=" << sign << " q=" << q << " step=" << step;
        // Zero lanes stay untouched.
        for (int lane = 1; lane < 8; ++lane) EXPECT_EQ(acc[lane], 0);
      }
    }
  }
}

// The kernel accumulator saturates to the two's-complement register range
// [-limit, limit - 1], matching LogPe's post-fix clamp on both rails.
TEST(QuantKernels, AccumulatorSaturatesToRegisterRange) {
  cat::LogPeConfig pe_config;
  pe_config.lut_bits = 24;
  pe_config.acc_frac_bits = 24;
  pe_config.acc_int_bits = 2;  // limit = 2^26 LSBs = 4.0: easy to overflow
  cat::LogPe pe{pe_config};
  snn::kernels::QuantKernelParams qp = kernel_params(pe);
  qp.q_lo = 4;  // q = 4, z = 1 -> weight 2^2 = 4.0
  qp.q_hi = 4;

  for (const int sign : {1, -1}) {
    std::int16_t codes[8];
    std::fill(codes, codes + 8, snn::kQuantZeroCode);
    codes[0] = static_cast<std::int16_t>(4 * 2 + (sign < 0 ? 1 : 0));
    // Two spikes at step 0: each adds sign * 4.0, so the second add pushes
    // past the +-4.0 register and must clamp, exactly like the PE.
    const snn::Spike spikes[2] = {{0, 0}, {0, 0}};
    std::int32_t acc[8] = {0};
    (void)snn::kernels::integrate_fc_q(1, 8, codes, spikes, 2, qp, acc, 0, 8);

    pe.reset();
    pe.accumulate(sign, 4, 0);
    pe.accumulate(sign, 4, 0);
    EXPECT_EQ(std::ldexp(static_cast<double>(acc[0]), -qp.acc_frac_bits), pe.membrane())
        << "sign=" << sign;
    if (sign > 0) {
      EXPECT_EQ(static_cast<std::int64_t>(acc[0]), qp.acc_limit - 1);
    } else {
      EXPECT_EQ(static_cast<std::int64_t>(acc[0]), -qp.acc_limit);
    }
  }
}

// Weights far past the register: 2^40 is on the z = 1 grid (q = 80), so the
// pack accepts it, and an uncapped barrel shift of it overflows int64
// (undefined; the UBSan lane reports it). The product caps at 2*limit - 1,
// which saturates wherever the exact product would, so through both integer
// kernels and the whole simulator +-2^40 weights put every logit on the rail
// (limit - 1 or -limit LSBs) and agree with a LogPe replay of the same adds.
TEST(QuantKernels, HugeWeightsSaturateToTheRailsLikeLogPe) {
  cat::LogPeConfig pe_config;  // p = 2 (tau = 4), z = 1
  pe_config.lut_bits = snn::kQuantLutBits;
  pe_config.acc_frac_bits = snn::kQuantAccFracBits;
  pe_config.acc_int_bits = snn::kQuantAccIntBits;
  cat::LogPe pe{pe_config};
  const std::int64_t limit = snn::kQuantAccLimit;  // 2^31 LSBs
  const auto rail = [&](int sign) {
    return std::ldexp(static_cast<double>(sign > 0 ? limit - 1 : -limit), -snn::kQuantAccFracBits);
  };
  const float big = std::ldexp(1.0F, 40);
  const int q_big = 80;  // 2^(80 * 2^-1)
  Rng rng{77};

  // FC 4 -> 2: output 0 reads +2^40 from every input, output 1 reads -2^40.
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
    Tensor w{{2, 4}};
    for (std::int64_t i = 0; i < 4; ++i) {
      w[i] = big;
      w[4 + i] = -big;
    }
    net.add_fc(std::move(w), Tensor{});
    net.ensure_quantized();
    const Tensor img = Tensor::uniform({4, 1, 1}, rng, 0.1F, 1.0F);
    snn::SimArena arena;
    snn::EventTrace trace;
    snn::detail::run_quantized_event_sim_span(net, img.data(), 4, 1, 1, arena, trace);
    ASSERT_EQ(trace.logits.numel(), 2);
    ASSERT_FALSE(trace.layers[0].spikes.empty());
    for (std::int64_t j = 0; j < 2; ++j) {
      const int sign = j == 0 ? 1 : -1;
      pe.reset();
      for (const snn::Spike& s : trace.layers[0].spikes) pe.accumulate(sign, q_big, s.step);
      EXPECT_EQ(pe.membrane(), rail(sign)) << "fc output " << j;
      EXPECT_EQ(trace.logits[j], static_cast<float>(pe.membrane())) << "fc output " << j;
    }
  }

  // Conv 1 -> 2, 3x3, pad 1 on a 4x4 image: channel 0 is all +2^40, channel
  // 1 all -2^40. The replay feeds each output the taps the per-tap
  // definition assigns it, in spike order.
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
    Tensor w{{2, 1, 3, 3}};
    for (std::int64_t i = 0; i < 9; ++i) {
      w[i] = big;
      w[9 + i] = -big;
    }
    net.add_conv(std::move(w), Tensor{}, 1, 1);
    net.ensure_quantized();
    const Tensor img = Tensor::uniform({1, 4, 4}, rng, 0.1F, 1.0F);
    snn::SimArena arena;
    snn::EventTrace trace;
    snn::detail::run_quantized_event_sim_span(net, img.data(), 1, 4, 4, arena, trace);
    ASSERT_EQ(trace.logits.numel(), 2 * 16);
    for (std::int64_t co = 0; co < 2; ++co) {
      const int sign = co == 0 ? 1 : -1;
      for (std::int64_t yo = 0; yo < 4; ++yo) {
        for (std::int64_t xo = 0; xo < 4; ++xo) {
          pe.reset();
          for (const snn::Spike& s : trace.layers[0].spikes) {
            const std::int64_t ky = s.neuron / 4 + 1 - yo;
            const std::int64_t kx = s.neuron % 4 + 1 - xo;
            if (ky >= 0 && ky < 3 && kx >= 0 && kx < 3) pe.accumulate(sign, q_big, s.step);
          }
          EXPECT_EQ(pe.membrane(), rail(sign)) << "conv " << co << "," << yo << "," << xo;
          EXPECT_EQ(trace.logits[(co * 4 + yo) * 4 + xo], static_cast<float>(pe.membrane()))
              << "conv " << co << "," << yo << "," << xo;
        }
      }
    }
  }
}

// LogPe's own register may be up to 62 bits wide. Huge products there stay
// defined too: capped at 2*limit - 1 = 2^63 - 1 and tested against the
// headroom instead of summed, they land on the rails.
TEST(QuantKernels, LogPeHugeProductsSaturateA62BitRegister) {
  cat::LogPeConfig config;
  config.lut_bits = 24;
  config.acc_frac_bits = 31;
  config.acc_int_bits = 31;  // limit = 2^62
  cat::LogPe pe{config};
  const std::int64_t limit = std::int64_t{1} << 62;
  // 2^100 caps at 2*limit - 1 = 2^63 - 1.
  EXPECT_EQ(pe.accumulate(1, 200, 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(pe.membrane(), std::ldexp(static_cast<double>(limit - 1), -31));
  (void)pe.accumulate(1, 200, 0);  // at the top rail: stays there
  EXPECT_EQ(pe.membrane(), std::ldexp(static_cast<double>(limit - 1), -31));
  (void)pe.accumulate(-1, 200, 0);
  EXPECT_EQ(pe.membrane(), std::ldexp(static_cast<double>(-limit), -31));
  (void)pe.accumulate(-1, 200, 0);  // at the bottom rail: stays there
  EXPECT_EQ(pe.membrane(), std::ldexp(static_cast<double>(-limit), -31));
}

// integrate_conv_q's tap walk against LogPe add-for-add, over stride {1,2,3}
// x pad {0,1,2} x kernel {1,3,5} on a non-square 9x8 input (several
// geometries leave h + 2*pad - k indivisible by the stride), and again over
// the non-square kernels (kh, kw) in {(3,5), (1,3), (5,1)}: the pack mirrors
// kx only, so a kh/kw mix-up shows there. Each output lane replays, in spike
// order, exactly the taps the per-tap definition assigns it
// (ky = yi + pad - yo*stride in range) through one LogPe; the narrow
// register saturates, so a reordered or doubled tap shows. Run on 64-byte
// blocks (one output row per block) and as a two-way row split.
void expect_conv_q_matches_log_pe(int stride, int pad, int kh, int kw, std::uint64_t seed) {
  snn::kernels::ConvGeom g;
  g.cin = 3;
  g.hin = 9;
  g.win = 8;
  g.cout = 5;
  g.cstride = snn::kernels::padded(g.cout);
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.oh = (g.hin + 2 * pad - kh) / stride + 1;
  g.ow = (g.win + 2 * pad - kw) / stride + 1;

  cat::LogPeConfig pe_config;  // p = 2, z = 1
  pe_config.lut_bits = 24;
  pe_config.acc_frac_bits = 24;
  pe_config.acc_int_bits = 2;  // saturates at +-4.0: dense trains clip
  cat::LogPe pe{pe_config};
  snn::kernels::QuantKernelParams qp = kernel_params(pe);
  qp.q_lo = -3;
  qp.q_hi = 2;

  Rng rng{seed};
  std::vector<std::int16_t> w(static_cast<std::size_t>(g.cin * g.kh * g.kw * g.cstride),
                              snn::kQuantZeroCode);
  // Drawn in (ci, ky, kx, co) order, so every tap gets the same weight
  // whatever the slot rule.
  for (std::int64_t tap = 0; tap < g.cin * g.kh * g.kw; ++tap) {
    const std::int64_t slot = snn::kernels::conv_slot(tap / (g.kh * g.kw), tap / g.kw % g.kh,
                                                      tap % g.kw, g.kh, g.kw);
    for (std::int64_t co = 0; co < g.cout; ++co) {
      if (rng.bernoulli(0.2)) continue;  // zero weight
      const int q = static_cast<int>(rng.uniform_int(qp.q_lo, qp.q_hi));
      // Mostly positive, so the upper rail is reached on dense outputs.
      w[static_cast<std::size_t>(slot * g.cstride + co)] =
          static_cast<std::int16_t>(q * 2 + (rng.bernoulli(0.25) ? 1 : 0));
    }
  }
  // ~70% of neurons fire once each, (step, neuron)-sorted.
  const std::int64_t neurons = g.cin * g.hin * g.win;
  std::vector<int> step_of(static_cast<std::size_t>(neurons), -1);
  for (int& step : step_of) {
    if (rng.bernoulli(0.7)) step = static_cast<int>(rng.uniform_int(0, 23));
  }
  std::vector<snn::Spike> spikes;
  for (int step = 0; step < 24; ++step) {
    for (std::int64_t i = 0; i < neurons; ++i) {
      if (step_of[static_cast<std::size_t>(i)] == step) {
        spikes.push_back({static_cast<std::int32_t>(i), step});
      }
    }
  }
  const auto nspikes = static_cast<std::int64_t>(spikes.size());

  struct BlockBytes {
    explicit BlockBytes(std::int64_t bytes) { snn::kernels::set_acc_block_bytes(bytes); }
    ~BlockBytes() { snn::kernels::set_acc_block_bytes(0); }
  } tiny{64};
  const std::int64_t mid = g.oh / 2;
  for (const bool split : {false, true}) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(g.oh * g.ow * g.cstride), 0);
    const auto rows = [&](std::int64_t lo, std::int64_t hi) {
      return snn::kernels::integrate_conv_q(g, w.data(), spikes.data(), nspikes, qp, acc.data(),
                                            lo, hi);
    };
    const std::int64_t ops = split ? rows(0, mid) + rows(mid, g.oh) : rows(0, g.oh);

    std::int64_t want_ops = 0;
    int saturated = 0;
    for (std::int64_t yo = 0; yo < g.oh; ++yo) {
      for (std::int64_t xo = 0; xo < g.ow; ++xo) {
        const std::int64_t row = (yo * g.ow + xo) * g.cstride;
        for (std::int64_t co = 0; co < g.cstride; ++co) {
          pe.reset();
          for (const snn::Spike& sp : spikes) {
            const std::int64_t ci = sp.neuron / (g.hin * g.win);
            const std::int64_t ky = sp.neuron / g.win % g.hin + pad - yo * stride;
            const std::int64_t kx = sp.neuron % g.win + pad - xo * stride;
            if (ky < 0 || ky >= g.kh || kx < 0 || kx >= g.kw) continue;
            if (co == 0) want_ops += g.cout;
            const std::int16_t code = w[static_cast<std::size_t>(
                snn::kernels::conv_slot(ci, ky, kx, g.kh, g.kw) * g.cstride + co)];
            if (code == snn::kQuantZeroCode) continue;
            pe.accumulate((code & 1) != 0 ? -1 : 1, code >> 1, sp.step);
          }
          const std::int32_t got = acc[static_cast<std::size_t>(row + co)];
          ASSERT_EQ(std::ldexp(static_cast<double>(got), -qp.acc_frac_bits), pe.membrane())
              << "split=" << split << " yo=" << yo << " xo=" << xo << " co=" << co;
          if (got == qp.acc_limit - 1 || got == -qp.acc_limit) ++saturated;
        }
      }
    }
    EXPECT_EQ(ops, want_ops) << "split=" << split;
    // Dense geometries must reach the rail, or saturation order is untested.
    if (kh > 1 && kw > 1 && stride == 1) {
      EXPECT_GT(saturated, 0) << "split=" << split;
    }
  }
}

// (stride, pad, kernel): square kernels.
class ConvQTapWalk : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvQTapWalk, IntegrateConvQMatchesLogPeAddForAdd) {
  const auto [stride, pad, kernel] = GetParam();
  expect_conv_q_matches_log_pe(
      stride, pad, kernel, kernel,
      static_cast<std::uint64_t>(3000 + stride * 100 + pad * 10 + kernel));
}

INSTANTIATE_TEST_SUITE_P(StridePadKernel, ConvQTapWalk,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 3, 5)));

// (stride, pad, (kh, kw)): non-square kernels.
class ConvQTapWalkNonSquare
    : public ::testing::TestWithParam<std::tuple<int, int, std::pair<int, int>>> {};

TEST_P(ConvQTapWalkNonSquare, IntegrateConvQMatchesLogPeAddForAdd) {
  const auto [stride, pad, taps] = GetParam();
  const auto [kh, kw] = taps;
  expect_conv_q_matches_log_pe(
      stride, pad, kh, kw,
      static_cast<std::uint64_t>(4000 + stride * 1000 + pad * 100 + kh * 10 + kw));
}

INSTANTIATE_TEST_SUITE_P(StridePadKhKw, ConvQTapWalkNonSquare,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(std::pair{3, 5}, std::pair{1, 3},
                                                              std::pair{5, 1})));

// Unquantized weights must be rejected with a pointer at the quantizer, not
// silently snapped to the nearest code.
TEST(QuantizedWeightPack, RejectsUnquantizedNetwork) {
  Rng rng{11};
  const snn::SnnNetwork net = make_net(rng);  // raw random weights
  EXPECT_THROW((void)snn::build_quantized_pack(net), std::invalid_argument);
}

// The hardware kernel constraints (Eq. 18) gate the build.
TEST(QuantizedWeightPack, RejectsNonHardwareKernels) {
  const Tensor w{{1, 1}, std::vector<float>{1.0F}};  // exactly on the grid
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 3.0, 1.0}};  // tau not a power of 2
    net.add_fc(w, Tensor{{1}});
    EXPECT_THROW((void)snn::build_quantized_pack(net), std::invalid_argument);
  }
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.5}};  // theta0 != 1
    net.add_fc(w, Tensor{{1}});
    EXPECT_THROW((void)snn::build_quantized_pack(net), std::invalid_argument);
  }
}

// Registry-accounting footprint: the quantized pack (int16 codes + int32
// bias registers + the shared LUT) must come in at <= 0.6x the float event
// pack for the conformance-net shape family.
TEST(QuantizedWeightPack, PackBytesAreAtMost60PercentOfFloatPack) {
  Rng rng{99};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});

  net.ensure_packed();
  net.ensure_quantized();
  const std::size_t float_bytes = net.packed_bytes();
  const std::size_t quant_bytes = net.quantized_bytes();
  ASSERT_GT(float_bytes, 0U);
  ASSERT_GT(quant_bytes, 0U);
  EXPECT_LE(static_cast<double>(quant_bytes), 0.6 * static_cast<double>(float_bytes))
      << "quantized " << quant_bytes << " bytes vs float " << float_bytes;
}

// Every code lane, bias register and LUT entry of a pack, flattened, so two
// packs compare lane for lane.
std::vector<std::int64_t> pack_contents(const snn::QuantizedWeightPack& pack) {
  std::vector<std::int64_t> out(pack.lut.begin(), pack.lut.end());
  const auto append = [&](const auto& layer) {
    out.insert(out.end(), layer.w.data(), layer.w.data() + layer.w.size());
    out.insert(out.end(), layer.bias_acc.data(), layer.bias_acc.data() + layer.bias_acc.size());
    out.push_back(layer.q_lo);
    out.push_back(layer.q_hi);
  };
  for (const snn::QuantizedLayer& layer : pack.layers) {
    if (const auto* conv = std::get_if<snn::QuantizedConv>(&layer)) append(*conv);
    if (const auto* fc = std::get_if<snn::QuantizedFc>(&layer)) append(*fc);
  }
  return out;
}

// ensure/release lifecycle: release drops the bytes to zero, ensure rebuilds
// bit-identically, and re-quantizing the weights (through mutable_layers)
// makes the next ensure serve the new codes.
TEST(QuantizedWeightPack, EnsureReleaseRebuildLifecycle) {
  Rng rng{42};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});

  net.ensure_quantized();
  const std::size_t bytes_a = net.quantized_bytes();
  ASSERT_GT(bytes_a, 0U);
  const std::vector<std::int64_t> contents_a = pack_contents(net.quantized_pack());

  net.release_quantized();
  EXPECT_EQ(net.quantized_bytes(), 0U);
  EXPECT_THROW((void)net.quantized_pack(), std::invalid_argument);

  net.ensure_quantized();
  EXPECT_EQ(net.quantized_bytes(), bytes_a);
  EXPECT_EQ(pack_contents(net.quantized_pack()), contents_a);

  // Re-quantize at 3 bits: fewer magnitude levels, so codes change.
  cat::LogQuantConfig narrow;
  narrow.bits = 3;
  cat::log_quantize_network(net, narrow);
  net.ensure_quantized();
  const std::vector<std::int64_t> contents_b = pack_contents(net.quantized_pack());
  EXPECT_NE(contents_b, contents_a);
  EXPECT_EQ(contents_b, pack_contents(snn::build_quantized_pack(net)));

  // The simulator end-to-end still runs after the lifecycle churn.
  Rng img_rng{5};
  const Tensor img = Tensor::uniform({3, 8, 8}, img_rng, 0.0F, 1.0F);
  snn::SimArena arena;
  snn::EventTrace trace;
  snn::detail::run_quantized_event_sim_span(net, img.data(), 3, 8, 8, arena, trace);
  EXPECT_EQ(trace.logits.numel(), 10);
}

}  // namespace
}  // namespace ttfs
