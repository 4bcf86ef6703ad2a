#include "hw/trace_run.h"

#include <algorithm>
#include <cmath>
#include <variant>

namespace ttfs::hw {

ProcessorReport price_trace(const SnnProcessorModel& model, const snn::SnnNetwork& net,
                            const snn::EventTrace& trace, std::int64_t input_h,
                            std::int64_t input_w) {
  const ArchConfig& arch = model.arch();
  const TechParams& tech = model.tech();

  ProcessorReport report;
  report.workload = "trace";
  report.area_mm2 = model.area_mm2();

  // Weight residency, as in the analytic model.
  double total_weight_bits = 0.0;
  for (const auto& layer : net.layers()) {
    if (const auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      total_weight_bits += static_cast<double>(conv->weight.numel()) * arch.weight_bits;
    } else if (const auto* fc = std::get_if<snn::SnnFc>(&layer)) {
      total_weight_bits += static_cast<double>(fc->weight.numel()) * arch.weight_bits;
    }
  }
  const bool weights_resident = total_weight_bits <= arch.weight_buffer_bits();

  const double pe_pj = arch.pe == PeKind::kLog ? tech.e_logpe_op : tech.e_mult16x5;
  const std::size_t weighted = net.weighted_layer_count();

  std::size_t phase = 0;  // trace phase feeding the next layer
  std::size_t weighted_seen = 0;
  std::int64_t hin = input_h, win = input_w;  // geometry tracking only

  for (const auto& layer : net.layers()) {
    if (const auto* pool = std::get_if<snn::SnnPool>(&layer)) {
      // Pools produce their own trace phase; hardware folds them into the
      // PPU drain (charged as register traffic, like the analytic model).
      LayerReport lr;
      lr.name = "pool";
      lr.in_spikes = static_cast<std::int64_t>(trace.layers[phase].spikes.size());
      ++phase;
      lr.out_spikes = static_cast<std::int64_t>(trace.layers[phase].spikes.size());
      lr.cycles = trace.layers[phase].neuron_count / 8;
      lr.energy.encoder_uj = lr.in_spikes * arch.spike_bits * tech.e_regfile_bit * 1e-6;
      report.layers.push_back(lr);
      report.total_cycles += lr.cycles;
      report.energy.add(lr.energy);
      hin = (hin - pool->kernel) / pool->stride + 1;
      win = (win - pool->kernel) / pool->stride + 1;
      continue;
    }

    ++weighted_seen;
    const bool is_output = weighted_seen == weighted;

    std::int64_t cout, hout, wout;
    std::int64_t weight_count;
    if (const auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      cout = conv->weight.dim(0);
      hout = (hin + 2 * conv->pad - conv->weight.dim(2)) / conv->stride + 1;
      wout = (win + 2 * conv->pad - conv->weight.dim(3)) / conv->stride + 1;
      weight_count = conv->weight.numel();
    } else {
      const auto* fc = std::get_if<snn::SnnFc>(&layer);
      cout = fc->weight.dim(0);
      hout = wout = 1;
      weight_count = fc->weight.numel();
    }

    LayerReport lr;
    lr.name = is_output ? "output" : "layer";
    lr.in_spikes = static_cast<std::int64_t>(trace.layers[phase].spikes.size());

    // Measured SOPs: the integration ops the event simulator actually
    // performed for this layer live on its *own* fire phase record (or are
    // reconstructed for the silent output layer).
    std::int64_t sops;
    if (!is_output) {
      sops = trace.layers[phase + 1].integration_ops;
      lr.out_spikes = static_cast<std::int64_t>(trace.layers[phase + 1].spikes.size());
    } else {
      // Output layer: fc fans every input spike to every class.
      sops = lr.in_spikes * cout;
      lr.out_spikes = 0;
    }
    lr.sops = sops;

    const std::int64_t groups = (cout + arch.num_pes - 1) / arch.num_pes;
    const double avg_pes = static_cast<double>(cout) / static_cast<double>(groups);
    const std::int64_t spines = hout * wout * groups;

    // Cycles: integration streams sops/avg_pes spikes (one per cycle, all
    // active PEs in parallel); encode walks T steps per spine + serializes.
    const double integrate_cycles = static_cast<double>(sops) / avg_pes;
    const double encode_cycles =
        is_output ? 0.0
                  : static_cast<double>(spines) * arch.window + static_cast<double>(lr.out_spikes);
    lr.cycles = static_cast<std::int64_t>(
        std::llround(std::max(integrate_cycles, encode_cycles) +
                     static_cast<double>(spines) * arch.spine_overhead_cycles));

    // Energy (same accounting as the analytic model, with measured counts).
    lr.energy.pe_uj = static_cast<double>(sops) * pe_pj * 1e-6;
    lr.energy.sram_uj += static_cast<double>(sops) * arch.weight_bits * tech.e_sram_bit * 1e-6;
    const double streamed = static_cast<double>(sops) / avg_pes;
    lr.energy.sram_uj += streamed * arch.spike_bits * tech.e_sram_bit * 1e-6;
    lr.energy.minfind_uj = streamed * tech.e_minfind * 1e-6;
    if (!is_output) {
      lr.energy.encoder_uj += avg_pes * spines * arch.vmem_bits * tech.e_regfile_bit * 1e-6;
      lr.energy.encoder_uj +=
          static_cast<double>(arch.window) * avg_pes * spines * tech.e_comparator * 1e-6;
      lr.energy.encoder_uj +=
          lr.out_spikes * (tech.e_prio_encode + arch.vmem_bits * tech.e_regfile_bit) * 1e-6;
      lr.energy.sram_uj += lr.out_spikes * arch.spike_bits * tech.e_sram_bit * 1e-6;
    }

    double dram_bits = 0.0;
    if (!weights_resident) dram_bits += static_cast<double>(weight_count) * arch.weight_bits;
    const double in_fetch = arch.input_buffer_reuse
                                ? static_cast<double>(lr.in_spikes)
                                : static_cast<double>(lr.in_spikes) * static_cast<double>(groups);
    dram_bits += in_fetch * arch.spike_bits;
    dram_bits += static_cast<double>(lr.out_spikes) * arch.spike_bits;
    lr.dram_bits = dram_bits;
    lr.energy.dram_uj = dram_bits * tech.e_dram_bit * 1e-6;

    report.layers.push_back(lr);
    report.total_cycles += lr.cycles;
    report.energy.add(lr.energy);
    if (!is_output) ++phase;
    hin = hout;
    win = wout;
  }

  report.time_ms = static_cast<double>(report.total_cycles) * arch.clock.cycle_ns() * 1e-6;
  report.fps = report.time_ms > 0.0 ? 1e3 / report.time_ms : 0.0;
  report.energy.control_uj = static_cast<double>(report.total_cycles) * tech.e_ctrl_cycle * 1e-6;
  report.energy.leakage_uj = tech.leakage_mw * report.time_ms;
  std::int64_t total_sops = 0;
  for (const auto& l : report.layers) total_sops += l.sops;
  report.gsops =
      report.time_ms > 0.0 ? static_cast<double>(total_sops) / (report.time_ms * 1e6) : 0.0;
  const double on_chip = report.energy.total_uj() - report.energy.dram_uj;
  report.power_mw = report.time_ms > 0.0 ? on_chip / report.time_ms : 0.0;
  return report;
}

}  // namespace ttfs::hw
