#include <gtest/gtest.h>

#include "nn/functional.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"

namespace ttfs::snn {
namespace {

// A small conv->pool->conv->fc->fc SNN with random weights scaled so hidden
// membranes land in the representable range.
SnnNetwork make_test_net(Rng& rng, int window = 24, double tau = 4.0) {
  SnnNetwork net{Base2Kernel{window, tau, 1.0}};
  Tensor w1 = Tensor::uniform({4, 2, 3, 3}, rng, -0.15F, 0.25F);
  Tensor b1 = Tensor::uniform({4}, rng, -0.05F, 0.1F);
  net.add_conv(std::move(w1), std::move(b1), 1, 1);
  net.add_pool(2, 2);
  Tensor w2 = Tensor::uniform({6, 4, 3, 3}, rng, -0.1F, 0.15F);
  Tensor b2 = Tensor::uniform({6}, rng, -0.05F, 0.1F);
  net.add_conv(std::move(w2), std::move(b2), 1, 1);
  Tensor w3 = Tensor::uniform({8, 6 * 4 * 4}, rng, -0.05F, 0.08F);
  Tensor b3 = Tensor::uniform({8}, rng, -0.05F, 0.05F);
  net.add_fc(std::move(w3), std::move(b3));
  Tensor w4 = Tensor::uniform({3, 8}, rng, -0.3F, 0.3F);
  Tensor b4 = Tensor::uniform({3}, rng, -0.1F, 0.1F);
  net.add_fc(std::move(w4), std::move(b4));
  return net;
}

TEST(SnnNetwork, StructureAccounting) {
  Rng rng{30};
  SnnNetwork net = make_test_net(rng);
  EXPECT_EQ(net.weighted_layer_count(), 4U);
  // Latency: (1 input window + 4 weighted layers) * T.
  EXPECT_EQ(net.latency_timesteps(), 5 * 24);
}

TEST(SnnNetwork, EncodeDecodeRoundTrip) {
  Rng rng{31};
  SnnNetwork net = make_test_net(rng);
  Tensor values = Tensor::uniform({2, 4, 4}, rng, 0.0F, 1.0F);
  const SpikeMap map = net.encode(values);
  EXPECT_EQ(map.neuron_count(), values.numel());
  // Decode through the kernel: decode(encode(x)) == phi_TTFS(x), and
  // re-encoding must be a fixed point.
  Tensor decoded{values.shape()};
  for (std::int64_t i = 0; i < decoded.numel(); ++i) {
    const int k = map.steps[static_cast<std::size_t>(i)];
    decoded[i] = k == kNoSpike ? 0.0F : static_cast<float>(net.kernel().level(k));
    EXPECT_EQ(decoded[i], static_cast<float>(net.kernel().quantize(values[i]))) << i;
  }
  const SpikeMap again = net.encode(decoded);
  EXPECT_EQ(map.steps, again.steps);
}

TEST(SnnNetwork, ForwardMatchesQuantizedAnn) {
  // The SNN must compute exactly the ANN-with-phi_TTFS forward pass: conv and
  // fc on quantized values with quantization after every hidden layer.
  Rng rng{32};
  SnnNetwork net = make_test_net(rng);
  const Base2Kernel& kernel = net.kernel();
  Tensor x = Tensor::uniform({3, 2, 8, 8}, rng, 0.0F, 1.0F);

  const Tensor snn_logits = net.forward(x);

  // Reference: manual quantized forward.
  Tensor q{x.shape()};
  for (std::int64_t i = 0; i < x.numel(); ++i) q[i] = static_cast<float>(kernel.quantize(x[i]));
  const auto* conv1 = std::get_if<SnnConv>(&net.layers()[0]);
  Tensor h = nn::conv2d_forward(q, conv1->weight, &conv1->bias, 1, 1);
  for (std::int64_t i = 0; i < h.numel(); ++i) h[i] = static_cast<float>(kernel.quantize(h[i]));
  h = nn::maxpool_forward(h, 2, 2);
  const auto* conv2 = std::get_if<SnnConv>(&net.layers()[2]);
  h = nn::conv2d_forward(h, conv2->weight, &conv2->bias, 1, 1);
  for (std::int64_t i = 0; i < h.numel(); ++i) h[i] = static_cast<float>(kernel.quantize(h[i]));
  h = h.reshaped({3, h.numel() / 3});
  const auto* fc1 = std::get_if<SnnFc>(&net.layers()[3]);
  h = nn::linear_forward(h, fc1->weight, &fc1->bias);
  for (std::int64_t i = 0; i < h.numel(); ++i) h[i] = static_cast<float>(kernel.quantize(h[i]));
  const auto* fc2 = std::get_if<SnnFc>(&net.layers()[4]);
  h = nn::linear_forward(h, fc2->weight, &fc2->bias);

  EXPECT_TRUE(snn_logits.allclose(h, 1e-5F));
}

TEST(SnnNetwork, StatsCountSpikes) {
  Rng rng{33};
  SnnNetwork net = make_test_net(rng);
  Tensor x = Tensor::uniform({2, 2, 8, 8}, rng, 0.3F, 1.0F);
  SnnRunStats stats;
  (void)net.forward(x, &stats);
  ASSERT_EQ(stats.spikes_per_layer.size(), 4U);  // input + 3 hidden fire phases
  EXPECT_EQ(stats.images, 2);
  // Bright pixels all spike.
  EXPECT_EQ(stats.spikes_per_layer[0], 2 * 2 * 8 * 8);
  EXPECT_EQ(stats.neurons_per_layer[0], 2 * 2 * 8 * 8);
  for (std::size_t i = 0; i < stats.spikes_per_layer.size(); ++i) {
    EXPECT_LE(stats.spikes_per_layer[i], stats.neurons_per_layer[i]);  // <=1 spike/neuron (TTFS)
  }
  EXPECT_GT(stats.avg_firing_rate(), 0.0);
  EXPECT_LE(stats.avg_firing_rate(), 1.0);
}

TEST(SnnNetwork, MaxPoolIsEarliestSpike) {
  // Pooling on decoded values must equal min-over-window of fire steps.
  Rng rng{34};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  Tensor w = Tensor{{1, 1, 1, 1}, {1.0F}};
  net.add_conv(std::move(w), Tensor{{1}}, 1, 0);
  net.add_pool(2, 2);
  Tensor w2 = Tensor{{1, 1}, {1.0F}};
  net.add_fc(std::move(w2), Tensor{{1}});

  Tensor x{{1, 1, 2, 2}, {0.3F, 0.8F, 0.1F, 0.5F}};
  const auto maps = net.trace(x.reshaped({1, 2, 2}));
  // maps: [0] input, [1] conv fire, [2] pool.
  ASSERT_EQ(maps.size(), 3U);
  const Base2Kernel& k = net.kernel();
  int min_step = k.fire_step(0.8F);
  // Pool output carries the earliest (smallest-step) spike of the window —
  // conv is identity, so compare directly against quantized pixels.
  EXPECT_EQ(maps[2].steps[0], min_step);
}

TEST(SnnNetwork, NegativeMembranesSilent) {
  SnnNetwork net{Base2Kernel{16, 2.0, 1.0}};
  // Strongly negative weights guarantee negative membranes.
  Tensor w = Tensor::full({2, 1, 1, 1}, -1.0F);
  net.add_conv(std::move(w), Tensor{{2}}, 1, 0);
  Tensor w2 = Tensor::full({2, 2 * 2 * 2}, 1.0F);
  net.add_fc(std::move(w2), Tensor{{2}});
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0F);
  SnnRunStats stats;
  (void)net.forward(x, &stats);
  EXPECT_EQ(stats.spikes_per_layer[1], 0);  // conv layer fire phase silent
}

TEST(EventSim, MatchesFastPathSpikes) {
  Rng rng{35};
  SnnNetwork net = make_test_net(rng);
  for (int trial = 0; trial < 3; ++trial) {
    Tensor img = Tensor::uniform({2, 8, 8}, rng, 0.0F, 1.0F);
    const auto maps = net.trace(img);
    const EventTrace events = run_event_sim(net, img);
    ASSERT_EQ(events.layers.size(), maps.size());
    for (std::size_t l = 0; l < maps.size(); ++l) {
      // Rebuild a step grid from the event spikes.
      std::vector<int> steps(static_cast<std::size_t>(maps[l].neuron_count()), kNoSpike);
      for (const Spike& s : events.layers[l].spikes) {
        steps[static_cast<std::size_t>(s.neuron)] = s.step;
      }
      EXPECT_EQ(steps, maps[l].steps) << "layer " << l << " trial " << trial;
    }
  }
}

TEST(EventSim, LogitsMatchFastPath) {
  Rng rng{36};
  SnnNetwork net = make_test_net(rng);
  Tensor img = Tensor::uniform({2, 8, 8}, rng, 0.0F, 1.0F);
  Tensor batch{{1, 2, 8, 8}, std::vector<float>(img.vec())};
  const Tensor fast = net.forward(batch);
  const EventTrace events = run_event_sim(net, img);
  ASSERT_EQ(events.logits.numel(), fast.numel());
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    EXPECT_NEAR(events.logits[i], fast[i], 2e-4F) << "logit " << i;
  }
}

TEST(EventSim, SpikesOrderedByStepThenPriority) {
  Rng rng{37};
  SnnNetwork net = make_test_net(rng);
  Tensor img = Tensor::uniform({2, 8, 8}, rng, 0.0F, 1.0F);
  const EventTrace events = run_event_sim(net, img);
  for (const auto& layer : events.layers) {
    for (std::size_t i = 1; i < layer.spikes.size(); ++i) {
      const Spike& a = layer.spikes[i - 1];
      const Spike& b = layer.spikes[i];
      EXPECT_TRUE(a.step < b.step || (a.step == b.step && a.neuron < b.neuron));
    }
  }
}

TEST(EventSim, CycleAccounting) {
  Rng rng{38};
  SnnNetwork net = make_test_net(rng);
  Tensor img = Tensor::uniform({2, 8, 8}, rng, 0.2F, 1.0F);
  const EventTrace events = run_event_sim(net, img);
  for (const auto& layer : events.layers) {
    if (layer.encoder_cycles > 0) {
      EXPECT_EQ(layer.encoder_cycles,
                net.kernel().window() + static_cast<std::int64_t>(layer.spikes.size()));
    }
  }
  EXPECT_GT(events.total_integration_ops(), 0);
  EXPECT_GT(events.total_spikes(), 0);
}

TEST(FirePhase, PriorityOrderAndCycles) {
  const Base2Kernel k{8, 2.0, 1.0};
  // vmem[2] fires first (largest), then 0 and 3 tie on step (priority: 0 < 3).
  const std::vector<double> vmem{0.5, -1.0, 1.0, 0.5, 0.001};
  const LayerEventTrace t = fire_phase(k, vmem);
  ASSERT_EQ(t.spikes.size(), 3U);
  EXPECT_EQ(t.spikes[0].neuron, 2);
  EXPECT_EQ(t.spikes[1].neuron, 0);
  EXPECT_EQ(t.spikes[2].neuron, 3);
  EXPECT_EQ(t.encoder_cycles, 8 + 3);
  EXPECT_EQ(t.neuron_count, 5);
}

}  // namespace
}  // namespace ttfs::snn
