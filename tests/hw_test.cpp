#include <gtest/gtest.h>

#include "hw/activity.h"
#include "hw/area_power.h"
#include "hw/processor.h"
#include "hw/tpu.h"
#include "hw/workload.h"
#include "util/rng.h"

namespace ttfs::hw {
namespace {

TEST(Workload, Vgg16Cifar10Shape) {
  const NetworkWorkload w = vgg16_workload("cifar10", 32, 10);
  EXPECT_EQ(w.weighted_layer_count(), 16U);  // 13 conv + 3 fc
  EXPECT_EQ(w.layers.size(), 21U);           // + 5 pools
  // Known parameter count of VGG-16 features for 32x32 + 512-512-10 head.
  EXPECT_NEAR(static_cast<double>(w.total_weights()), 15.24e6, 0.1e6);
  // Dense MACs ~313M (the standard CIFAR VGG-16 figure).
  EXPECT_NEAR(static_cast<double>(w.total_macs()), 313e6, 5e6);
  EXPECT_EQ(w.activity.size(), 16U);
}

TEST(Workload, Vgg16TinyScalesUp) {
  const NetworkWorkload c = vgg16_workload("cifar", 32, 100);
  const NetworkWorkload t = vgg16_workload("tiny", 64, 200);
  // 4x the conv work for 2x the image side.
  EXPECT_NEAR(static_cast<double>(t.total_macs()) / static_cast<double>(c.total_macs()), 4.0,
              0.3);
}

TEST(Workload, RejectsBadImage) {
  EXPECT_THROW(vgg16_workload("bad", 30, 10), std::invalid_argument);
}

TEST(Workload, DefaultActivityShape) {
  const auto act = default_activity(16, 0.9, 0.5, 0.25);
  ASSERT_EQ(act.size(), 16U);
  EXPECT_DOUBLE_EQ(act[0], 0.9);
  EXPECT_DOUBLE_EQ(act[1], 0.5);
  EXPECT_DOUBLE_EQ(act.back(), 0.25);
  for (std::size_t i = 2; i < act.size(); ++i) EXPECT_LE(act[i], act[i - 1]);
}

TEST(Workload, FromSnnNetwork) {
  Rng rng{90};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  Tensor w1{{4, 3, 3, 3}};
  net.add_conv(std::move(w1), Tensor{{4}}, 1, 1);
  net.add_pool(2, 2);
  Tensor w2{{5, 4 * 4 * 4}};
  net.add_fc(std::move(w2), Tensor{{5}});
  const NetworkWorkload w = workload_from_snn(net, 3, 8, "mini");
  ASSERT_EQ(w.layers.size(), 3U);
  EXPECT_EQ(w.layers[0].out_neurons(), 4 * 8 * 8);
  EXPECT_EQ(w.layers[1].out_neurons(), 4 * 4 * 4);
  EXPECT_EQ(w.layers[2].cin, 64);
}

TEST(Activity, ResampleEndpoints) {
  const std::vector<double> measured{0.9, 0.5, 0.3};
  const auto out = resample_activity(measured, 7);
  ASSERT_EQ(out.size(), 7U);
  EXPECT_DOUBLE_EQ(out.front(), 0.9);
  EXPECT_DOUBLE_EQ(out.back(), 0.3);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_LE(out[i], out[i - 1] + 1e-12);
}

TEST(Processor, AreaNearPaper) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  // Paper Table 4: 0.9102 mm^2.
  EXPECT_NEAR(model.area_mm2(), 0.9102, 0.09);
}

TEST(Processor, Cifar10OperatingPointNearPaper) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport r = model.run(vgg16_workload("cifar10", 32, 10));
  // Shape-level targets (paper: 327 fps, 486.7 uJ, 67.3 mW): within ~2x.
  EXPECT_GT(r.fps, 150.0);
  EXPECT_LT(r.fps, 700.0);
  EXPECT_GT(r.energy_per_image_uj(), 250.0);
  EXPECT_LT(r.energy_per_image_uj(), 1000.0);
  EXPECT_GT(r.power_mw, 25.0);
  EXPECT_LT(r.power_mw, 140.0);
  // DRAM dominated by the 5-bit weight stream: ~305 uJ.
  EXPECT_GT(r.energy.dram_uj, 200.0);
  EXPECT_LT(r.energy.dram_uj, 450.0);
}

TEST(Processor, TinyImagenetCostlierThanCifar) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport c = model.run(vgg16_workload("cifar10", 32, 10));
  const ProcessorReport t = model.run(vgg16_workload("tiny", 64, 200));
  // Paper: 486.7 -> 1426 uJ (~2.9x) and 327 -> 63 fps (~5.2x slower).
  const double energy_ratio = t.energy_per_image_uj() / c.energy_per_image_uj();
  EXPECT_GT(energy_ratio, 2.0);
  EXPECT_LT(energy_ratio, 4.5);
  EXPECT_GT(c.fps / t.fps, 3.0);
}

TEST(Processor, LinearPeCostsMoreThanLog) {
  ArchConfig log_arch;
  ArchConfig lin_arch;
  lin_arch.pe = PeKind::kLinear;
  const auto w = vgg16_workload("cifar10", 32, 10);
  const ProcessorReport rl = SnnProcessorModel{log_arch, default_tech()}.run(w);
  const ProcessorReport rm = SnnProcessorModel{lin_arch, default_tech()}.run(w);
  EXPECT_LT(rl.energy.pe_uj, rm.energy.pe_uj);
  EXPECT_EQ(rl.total_cycles, rm.total_cycles);  // datapath swap, same schedule
}

TEST(Processor, InputBufferReuseSavesDram) {
  ArchConfig with;
  ArchConfig without;
  without.input_buffer_reuse = false;
  const auto w = vgg16_workload("cifar10", 32, 10);
  const ProcessorReport a = SnnProcessorModel{with, default_tech()}.run(w);
  const ProcessorReport b = SnnProcessorModel{without, default_tech()}.run(w);
  EXPECT_LT(a.energy.dram_uj, b.energy.dram_uj);
}

TEST(Processor, ActivityScalesEnergy) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  NetworkWorkload dense = vgg16_workload("cifar10", 32, 10);
  NetworkWorkload sparse = dense;
  for (auto& a : sparse.activity) a *= 0.5;
  const ProcessorReport rd = model.run(dense);
  const ProcessorReport rs = model.run(sparse);
  EXPECT_LT(rs.energy.pe_uj, rd.energy.pe_uj * 0.6);
  EXPECT_LT(rs.total_cycles, rd.total_cycles);
}

TEST(Processor, ReportInternallyConsistent) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport r = model.run(vgg16_workload("cifar10", 32, 10));
  std::int64_t cycles = 0;
  EnergyBreakdown sum;
  for (const auto& l : r.layers) {
    cycles += l.cycles;
    sum.add(l.energy);
  }
  EXPECT_EQ(cycles, r.total_cycles);
  // Leakage and clock/control are added at report level, everything else
  // sums from layers.
  EXPECT_NEAR(sum.total_uj(), r.energy.total_uj() - r.energy.leakage_uj - r.energy.control_uj,
              1e-6);
  EXPECT_NEAR(r.fps * r.time_ms, 1000.0, 1e-6);
  EXPECT_LE(r.gsops, 32.0 + 1e-9);  // cannot exceed 128 PEs * 250 MHz
}

TEST(Processor, RejectsMissingActivity) {
  NetworkWorkload w = vgg16_workload("cifar10", 32, 10);
  w.activity.resize(3);
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  EXPECT_THROW(model.run(w), std::invalid_argument);
}

TEST(Fig6, DesignPointSavingsMatchPaperShape) {
  const auto points = fig6_design_points(128, default_tech());
  ASSERT_EQ(points.size(), 3U);
  const double base_area = points[0].area_mm2();
  const double area_saving_i = 1.0 - points[1].area_mm2() / base_area;
  const double area_saving_ii = (points[1].area_mm2() - points[2].area_mm2()) / base_area;
  // Paper: 12.7% then 8.1%.
  EXPECT_NEAR(area_saving_i, 0.127, 0.03);
  EXPECT_NEAR(area_saving_ii, 0.081, 0.03);

  const double base_power = points[0].power_mw();
  const double power_saving_i = 1.0 - points[1].power_mw() / base_power;
  const double power_saving_ii = (points[1].power_mw() - points[2].power_mw()) / base_power;
  // Paper: 14.7% then 8.6%.
  EXPECT_NEAR(power_saving_i, 0.147, 0.03);
  EXPECT_NEAR(power_saving_ii, 0.086, 0.03);
}

TEST(Tpu, OperatingPointNearPaper) {
  const auto w = vgg16_workload("cifar10", 32, 10);
  const TpuReport r = run_tpu(w, TpuConfig{}, default_tech());
  // Paper Table 4 (redesigned TPU): 204 fps, 978.5 uJ, 100.1 mW, 64 GMAC/s.
  EXPECT_NEAR(r.fps, 204.0, 30.0);
  EXPECT_NEAR(r.energy_per_image_uj(), 978.5, 250.0);
  EXPECT_NEAR(r.gmacs, 64.0, 6.0);
  EXPECT_NEAR(r.area_mm2, 1.4358, 0.3);
}

TEST(Tpu, SnnBeatsTpuOnEnergyAndThroughput) {
  // The paper's headline comparison: sparse event-driven SNN wins both.
  const auto w = vgg16_workload("cifar10", 32, 10);
  const ProcessorReport snn = SnnProcessorModel{ArchConfig{}, default_tech()}.run(w);
  const TpuReport tpu = run_tpu(w, TpuConfig{}, default_tech());
  EXPECT_LT(snn.energy_per_image_uj(), tpu.energy_per_image_uj());
  EXPECT_GT(snn.fps, tpu.fps);
}

TEST(Tpu, TinyImagenetScales) {
  const TpuReport c = run_tpu(vgg16_workload("c", 32, 100), TpuConfig{}, default_tech());
  const TpuReport t = run_tpu(vgg16_workload("t", 64, 200), TpuConfig{}, default_tech());
  EXPECT_NEAR(c.fps / t.fps, 4.0, 0.6);  // paper: 203 -> 51 fps
}

TEST(Workload, Vgg16TinyGeometry) {
  const NetworkWorkload w = vgg16_workload("tiny", 64, 200);
  // 64 -> 5 pools -> 2x2 final maps; fc1 sees 512*2*2 = 2048 features.
  const auto& fc1 = w.layers[w.layers.size() - 3];
  EXPECT_EQ(fc1.kind, LayerKind::kFc);
  EXPECT_EQ(fc1.cin, 2048);
  const auto& fc3 = w.layers.back();
  EXPECT_EQ(fc3.cout, 200);
}

TEST(Processor, EncoderEnergyScalesWithWindow) {
  NetworkWorkload w = vgg16_workload("cifar", 32, 10);
  ArchConfig a24;
  a24.window = 24;
  ArchConfig a48;
  a48.window = 48;
  const auto r24 = SnnProcessorModel{a24, default_tech()}.run(w);
  const auto r48 = SnnProcessorModel{a48, default_tech()}.run(w);
  // Comparator energy doubles with T; Vmem-traffic terms are T-independent,
  // so the total grows by a factor between 1.3x and 2x.
  EXPECT_GT(r48.energy.encoder_uj, r24.energy.encoder_uj * 1.3);
  EXPECT_LT(r48.energy.encoder_uj, r24.energy.encoder_uj * 2.0);
  EXPECT_GE(r48.total_cycles, r24.total_cycles);  // longer fire phases
}

TEST(Processor, PowerExcludesDram) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport r = model.run(vgg16_workload("cifar", 32, 10));
  const double on_chip = r.energy.total_uj() - r.energy.dram_uj;
  EXPECT_NEAR(r.power_mw, on_chip / r.time_ms, 1e-9);
}

TEST(Fig6, AbsoluteAreasAreOrdered) {
  const auto pts = fig6_design_points(128, default_tech());
  EXPECT_GT(pts[0].area_mm2(), pts[1].area_mm2());
  EXPECT_GT(pts[1].area_mm2(), pts[2].area_mm2());
  EXPECT_GT(pts[0].power_mw(), pts[1].power_mw());
  EXPECT_GT(pts[1].power_mw(), pts[2].power_mw());
  // The decoder step (I) only changes the decoder, not the PE datapath.
  EXPECT_DOUBLE_EQ(pts[0].pe_area_mm2, pts[1].pe_area_mm2);
  EXPECT_LT(pts[2].pe_area_mm2, pts[1].pe_area_mm2);
}

TEST(Processor, PipelinedFpsBoundedBySlowestLayer) {
  const SnnProcessorModel model{ArchConfig{}, default_tech()};
  const ProcessorReport r = model.run(vgg16_workload("cifar", 32, 10));
  const double pipelined = pipelined_fps(r);
  EXPECT_GT(pipelined, r.fps);  // pipelining can only help throughput
  std::int64_t slowest = 0;
  for (const auto& l : r.layers) slowest = std::max(slowest, l.cycles);
  EXPECT_NEAR(pipelined, 250e6 / static_cast<double>(slowest), 1.0);
}

}  // namespace
}  // namespace ttfs::hw
