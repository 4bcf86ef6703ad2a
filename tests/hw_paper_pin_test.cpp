// Pins the paper-model numbers of src/hw: Table 4's SNN columns, the Fig. 6
// rows, the trace pricing of one fixed stack and image, and Table 2's VGG-16
// latency. The shape tests in hw_test.cpp only bound these loosely, so a
// refactor of the cost model could move a headline figure and still pass
// them; this suite fails instead.
//
// The values were read off the model itself, not the paper (the paper's own
// figures sit in the benches' "paper" columns). If a change to the model is
// meant to move them, re-read them and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "hw/area_power.h"
#include "hw/processor.h"
#include "hw/trace_run.h"
#include "hw/workload.h"
#include "nn/vgg.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"

namespace ttfs::hw {
namespace {

// One tolerance per pinned quantity, all relative except the cycle count.
// 1e-9 absorbs a few ulps of reassociation and nothing a model change moves.
constexpr double kEnergyRelTol = 1e-9;     // uJ per image
constexpr double kFpsRelTol = 1e-9;        // images per second
constexpr double kChipPowerRelTol = 1e-9;  // on-chip mW
constexpr double kChipAreaRelTol = 1e-9;   // die mm^2
constexpr double kPeAreaRelTol = 1e-9;     // Fig. 6 PE array / decoder mm^2
constexpr double kPePowerRelTol = 1e-9;    // Fig. 6 PE array / decoder mW
constexpr std::int64_t kCyclesTol = 0;     // priced cycles are integers

void expect_rel(double got, double want, double rel_tol, const std::string& what) {
  EXPECT_NEAR(got, want, rel_tol * std::fabs(want)) << what;
}

TEST(PaperModelPin, Table4SnnColumns) {
  struct Row {
    const char* dataset;
    NetworkWorkload workload;
    double energy_uj, fps, power_mw, area_mm2;
  };
  const Row rows[] = {
      {"CIFAR-10", vgg16_workload("vgg16-cifar10", 32, 10), 535.87698120371419,
       257.87498633262572, 56.862859298176282, 0.91099687500000015},
      {"CIFAR-100", vgg16_workload("vgg16-cifar100", 32, 100), 536.80528584371416,
       257.87498633262572, 56.864588257124637, 0.91099687500000015},
      {"Tiny-ImageNet", vgg16_workload("vgg16-tiny", 64, 200), 1246.4282196071426,
       64.491929995815767, 56.864018224332256, 0.91099687500000015},
  };
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  for (const Row& row : rows) {
    const ProcessorReport r = model.run(row.workload);
    const std::string at = std::string{" on "} + row.dataset;
    expect_rel(r.energy_per_image_uj(), row.energy_uj, kEnergyRelTol, "uJ/image" + at);
    expect_rel(r.fps, row.fps, kFpsRelTol, "fps" + at);
    expect_rel(r.power_mw, row.power_mw, kChipPowerRelTol, "chip mW" + at);
    expect_rel(r.area_mm2, row.area_mm2, kChipAreaRelTol, "area mm2" + at);
  }
}

TEST(PaperModelPin, Fig6Rows) {
  struct Row {
    const char* label;
    double pe_area_mm2, decoder_area_mm2, pe_power_mw, decoder_power_mw;
  };
  const Row rows[] = {
      {"Base", 0.14335999999999999, 0.021499999999999998, 15.359999999999999, 2.7400000000000002},
      {"I", 0.14335999999999999, 0.00059999999999999995, 15.359999999999999,
       0.080000000000000002},
      {"I+II", 0.13056000000000001, 0.00059999999999999995, 13.798400000000001,
       0.080000000000000002},
  };
  const auto points = fig6_design_points(128, default_tech());
  ASSERT_EQ(points.size(), std::size(rows));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PeArrayCost& p = points[i];
    const Row& want = rows[i];
    ASSERT_EQ(p.label, want.label);
    const std::string at = std::string{" of "} + want.label;
    expect_rel(p.pe_area_mm2, want.pe_area_mm2, kPeAreaRelTol, "PE mm2" + at);
    expect_rel(p.decoder_area_mm2, want.decoder_area_mm2, kPeAreaRelTol, "decoder mm2" + at);
    expect_rel(p.pe_power_mw, want.pe_power_mw, kPePowerRelTol, "PE mW" + at);
    expect_rel(p.decoder_power_mw, want.decoder_power_mw, kPePowerRelTol, "decoder mW" + at);
  }
}

TEST(PaperModelPin, PriceTraceOfFixedStackAndImage) {
  // conv-pool-conv-fc on one 3x12x12 image, every number seeded.
  Rng rng{2022};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.12F, 0.2F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({12, 8, 3, 3}, rng, -0.08F, 0.12F),
               Tensor::uniform({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_fc(Tensor::uniform({5, 12 * 6 * 6}, rng, -0.04F, 0.06F),
             Tensor::uniform({5}, rng, -0.05F, 0.05F));
  const Tensor img = Tensor::uniform({3, 12, 12}, rng, 0.0F, 1.0F);

  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport r = price_trace(model, net, snn::run_event_sim(net, img), 12, 12);
  EXPECT_NEAR(r.total_cycles, 8550, kCyclesTol);
  expect_rel(r.energy_per_image_uj(), 1.3076011000000001, kEnergyRelTol, "traced uJ/image");
}

TEST(PaperModelPin, Table2Vgg16Latency) {
  // Table 2: the input encoding takes one window of T steps, then each
  // weighted layer fires in a window of its own, so VGG-16 answers after
  // (1 + 16) * T steps. Latency counts layers, not widths: a one-channel
  // stack of VGG-16's depth stands in for the real net, and nothing trains.
  const nn::VggSpec spec = nn::vgg16_spec(10);
  std::size_t weighted = spec.fc_hidden.size() + 1;  // hidden fcs + classifier
  for (const int c : spec.conv_plan) weighted += c != nn::kPool ? 1 : 0;
  EXPECT_EQ(weighted, 16U);
  EXPECT_EQ(vgg16_workload("vgg16-cifar10", 32, 10).weighted_layer_count(), weighted);

  const auto vgg16_deep = [&spec](int window) {
    snn::SnnNetwork net{snn::Base2Kernel{window, 4.0, 1.0}};
    std::int64_t side = 32;
    for (const int c : spec.conv_plan) {
      if (c == nn::kPool) {
        net.add_pool(2, 2);
        side /= 2;
      } else {
        net.add_conv(Tensor{{1, 1, 3, 3}}, Tensor{{1}}, 1, 1);
      }
    }
    net.add_fc(Tensor{{1, side * side}}, Tensor{{1}});
    for (std::size_t i = 1; i < spec.fc_hidden.size(); ++i) net.add_fc(Tensor{{1, 1}}, Tensor{{1}});
    net.add_fc(Tensor{{spec.classes, 1}}, Tensor{{spec.classes}});
    return net;
  };
  const snn::SnnNetwork t24 = vgg16_deep(24);
  EXPECT_EQ(t24.weighted_layer_count(), weighted);
  EXPECT_EQ(t24.latency_timesteps(), 408);
  EXPECT_EQ(vgg16_deep(48).latency_timesteps(), 816);
}

}  // namespace
}  // namespace ttfs::hw
