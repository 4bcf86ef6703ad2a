// Trace-driven processor pricing vs the analytic activity model: the two must
// agree when the analytic model is fed the measured activity profile.
#include <gtest/gtest.h>

#include <string>

#include "cat/logquant.h"
#include "hw/activity.h"
#include "hw/trace_run.h"
#include "hw/workload.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"

namespace ttfs::hw {
namespace {

snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.12F, 0.2F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({12, 8, 3, 3}, rng, -0.08F, 0.12F),
               Tensor::uniform({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_fc(Tensor::uniform({5, 12 * 6 * 6}, rng, -0.04F, 0.06F),
             Tensor::uniform({5}, rng, -0.05F, 0.05F));
  return net;
}

TEST(TraceRun, ProducesConsistentReport) {
  Rng rng{400};
  snn::SnnNetwork net = make_net(rng);
  Tensor img = Tensor::uniform({3, 12, 12}, rng, 0.0F, 1.0F);

  ArchConfig arch;
  arch.window = 24;
  const SnnProcessorModel model{arch, default_tech()};
  const ProcessorReport r = price_trace(model, net, snn::run_event_sim(net, img), 12, 12);

  EXPECT_GT(r.total_cycles, 0);
  EXPECT_GT(r.energy_per_image_uj(), 0.0);
  EXPECT_GT(r.fps, 0.0);
  std::int64_t cycles = 0;
  for (const auto& l : r.layers) cycles += l.cycles;
  EXPECT_EQ(cycles, r.total_cycles);
  // SOPs bounded by dense MACs.
  const NetworkWorkload w = workload_from_snn(net, 3, 12, "net");
  std::int64_t sops = 0;
  for (const auto& l : r.layers) sops += l.sops;
  EXPECT_LE(sops, w.total_macs());
  EXPECT_GT(sops, 0);
}

TEST(TraceRun, AgreesWithAnalyticModelUnderMeasuredActivity) {
  Rng rng{401};
  snn::SnnNetwork net = make_net(rng);

  // Measured activity over a small batch drives the analytic model.
  data::LabeledData data;
  data.classes = 5;
  data.images = Tensor::uniform({8, 3, 12, 12}, rng, 0.0F, 1.0F);
  data.labels.assign(8, 0);
  const auto activity = measure_activity(net, data);

  NetworkWorkload w = workload_from_snn(net, 3, 12, "net");
  w.activity = activity;
  ArchConfig arch;
  arch.window = 24;
  const SnnProcessorModel model{arch, default_tech()};
  const ProcessorReport analytic = model.run(w);

  // Trace-driven pricing of one image from the same distribution.
  Tensor img{{3, 12, 12},
             std::vector<float>(data.images.data(), data.images.data() + 3 * 12 * 12)};
  const ProcessorReport traced = price_trace(model, net, snn::run_event_sim(net, img), 12, 12);

  // The analytic model uses interior-receptive-field approximations and batch
  // averages; agreement within ~40% validates both.
  EXPECT_NEAR(traced.energy_per_image_uj() / analytic.energy_per_image_uj(), 1.0, 0.4);
  EXPECT_NEAR(static_cast<double>(traced.total_cycles) /
                  static_cast<double>(analytic.total_cycles),
              1.0, 0.4);
}

TEST(TraceRun, QuantizedBackendPricesIdenticallyToEventSim) {
  // The quantized backend's integer artifacts (spikes, SOPs, cycles) must
  // match the float event sim exactly on a log-quantized network, so the
  // processor co-sim prices both traces to the same report — the property
  // that lets hardware studies run on the int16 pack interchangeably.
  Rng rng{403};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});
  const Tensor img = Tensor::uniform({3, 12, 12}, rng, 0.0F, 1.0F);

  const snn::Engine engine{net};
  snn::RunOptions opts;
  opts.traces = true;
  snn::InferenceSession event = engine.session(snn::BackendKind::kEventSim);
  snn::InferenceSession quant = engine.session(snn::BackendKind::kQuantized);
  const std::vector<const Tensor*> batch{&img};
  const snn::RunResult event_run = event.run(snn::BatchView{batch}, opts);
  const snn::RunResult quant_run = quant.run(snn::BatchView{batch}, opts);
  ASSERT_EQ(event_run.traces.size(), 1U);
  ASSERT_EQ(quant_run.traces.size(), 1U);

  ArchConfig arch;
  arch.window = 24;
  const SnnProcessorModel model{arch, default_tech()};
  const ProcessorReport a = price_trace(model, net, event_run.traces[0], 12, 12);
  const ProcessorReport b = price_trace(model, net, quant_run.traces[0], 12, 12);

  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].in_spikes, b.layers[l].in_spikes) << "layer " << l;
    EXPECT_EQ(a.layers[l].sops, b.layers[l].sops) << "layer " << l;
    EXPECT_EQ(a.layers[l].cycles, b.layers[l].cycles) << "layer " << l;
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.energy_per_image_uj(), b.energy_per_image_uj());
  EXPECT_EQ(a.fps, b.fps);
}

TEST(TraceRun, SilentNetworkCostsLittle) {
  // All-negative weights silence every hidden layer; the trace-driven cost
  // must then be encoder/overhead-dominated with near-zero SOPs after conv1.
  Rng rng{402};
  snn::SnnNetwork net{snn::Base2Kernel{16, 2.0, 1.0}};
  net.add_conv(Tensor::full({4, 1, 3, 3}, -0.5F), Tensor{{4}}, 1, 1);
  net.add_fc(Tensor::full({3, 4 * 6 * 6}, 0.1F), Tensor{{3}});
  Tensor img = Tensor::uniform({1, 6, 6}, rng, 0.5F, 1.0F);

  ArchConfig arch;
  arch.window = 16;
  const ProcessorReport r =
      price_trace(SnnProcessorModel{arch, default_tech()}, net, snn::run_event_sim(net, img), 6, 6);
  // conv1 integrates input spikes; the fc output layer sees zero spikes.
  EXPECT_EQ(r.layers.back().in_spikes, 0);
  EXPECT_EQ(r.layers.back().sops, 0);
}

TEST(TraceRun, RejectsATraceOfAnotherNet) {
  // A one-FC net's trace has a single phase; pricing it against the
  // conv-pool-conv-fc net must throw instead of reading past its end.
  Rng rng{404};
  snn::SnnNetwork fc_only{snn::Base2Kernel{24, 4.0, 1.0}};
  fc_only.add_fc(Tensor::uniform({5, 3 * 12 * 12}, rng, -0.04F, 0.06F), Tensor{{5}});
  const snn::SnnNetwork net = make_net(rng);
  const Tensor img = Tensor::uniform({3, 12, 12}, rng, 0.0F, 1.0F);
  const SnnProcessorModel model{ArchConfig{}, default_tech()};

  EXPECT_THROW(price_trace(model, net, snn::run_event_sim(fc_only, img), 12, 12),
               std::invalid_argument);
  EXPECT_THROW(price_trace(model, fc_only, snn::run_event_sim(net, img), 12, 12),
               std::invalid_argument);
}

TEST(TraceRun, RefusesANetThatEndsInAConv) {
  // The output layer never fires, so the trace holds no record of its ops;
  // pricing an output conv with the fc fan-out (in_spikes x cout) would come
  // out about k^2 low without a word, so price_trace must refuse it.
  Rng rng{406};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({4, 1, 3, 3}, rng, -0.1F, 0.3F), Tensor{{4}}, 1, 1);
  net.add_conv(Tensor::uniform({2, 4, 3, 3}, rng, -0.1F, 0.3F), Tensor{{2}}, 1, 1);
  const snn::EventTrace trace =
      snn::run_event_sim(net, Tensor::uniform({1, 8, 8}, rng, 0.0F, 1.0F));
  ASSERT_EQ(trace.layers.size(), 2U);
  ASSERT_FALSE(trace.layers[1].spikes.empty());  // the output conv has spikes to integrate
  try {
    (void)price_trace(SnnProcessorModel{ArchConfig{}, default_tech()}, net, trace, 8, 8);
    ADD_FAILURE() << "priced a net whose output layer is a conv";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("output conv"), std::string::npos) << e.what();
  }
}

TEST(TraceRun, RejectsTheWrongInputSize) {
  Rng rng{405};
  const snn::SnnNetwork net = make_net(rng);
  const snn::EventTrace trace =
      snn::run_event_sim(net, Tensor::uniform({3, 12, 12}, rng, 0.0F, 1.0F));
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  EXPECT_NO_THROW(price_trace(model, net, trace, 12, 12));
  const std::int64_t wrong[][2] = {{6, 6}, {12, 6}, {16, 12}, {24, 24}, {0, 12}, {12, -1}};
  for (const auto& hw : wrong) {
    EXPECT_THROW(price_trace(model, net, trace, hw[0], hw[1]), std::invalid_argument)
        << hw[0] << "x" << hw[1];
  }
}

}  // namespace
}  // namespace ttfs::hw
