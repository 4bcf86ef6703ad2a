#include "hw/processor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ttfs::hw {

namespace {

// How a weighted layer maps onto the PE array: its output channels split into
// `groups` passes of at most num_pes neurons, one spine per output pixel and
// pass.
struct SpineGeometry {
  std::int64_t groups = 0;
  std::int64_t spines = 0;
  double avg_pes = 0.0;  // active PEs per spine
};

SpineGeometry spine_geometry(const LayerWorkload& layer, int num_pes) {
  SpineGeometry g;
  g.groups = (layer.cout + num_pes - 1) / num_pes;
  g.spines = layer.hout * layer.wout * g.groups;
  g.avg_pes = static_cast<double>(layer.cout) / static_cast<double>(g.groups);
  return g;
}

}  // namespace

double pipelined_fps(const ProcessorReport& report, const ClockConfig& clock) {
  std::int64_t slowest = 0;
  for (const auto& layer : report.layers) slowest = std::max(slowest, layer.cycles);
  if (slowest <= 0) return 0.0;
  const double ms = static_cast<double>(slowest) * clock.cycle_ns() * 1e-6;
  return 1e3 / ms;
}

void EnergyBreakdown::add(const EnergyBreakdown& other) {
  pe_uj += other.pe_uj;
  sram_uj += other.sram_uj;
  encoder_uj += other.encoder_uj;
  minfind_uj += other.minfind_uj;
  dram_uj += other.dram_uj;
  control_uj += other.control_uj;
  leakage_uj += other.leakage_uj;
}

double SnnProcessorModel::area_mm2() const {
  const double pe_datapath = arch_.pe == PeKind::kLog ? tech_.a_logpe : tech_.a_mult16x5;
  const double pes = arch_.num_pes * (pe_datapath + tech_.a_pe_overhead);
  const double decoder =
      arch_.decoder == DecoderKind::kSharedLut ? tech_.a_lut_decoder : tech_.a_sram_decoder;
  const double sram_kb = arch_.pe_groups * arch_.weight_buffer_kb_per_group +
                         arch_.input_buffer_kb +
                         arch_.output_buffer_bytes / 1024.0;
  return pes + decoder + sram_kb * tech_.a_sram_per_kb + tech_.a_encoder + tech_.a_minfind +
         tech_.a_control_dma;
}

ProcessorReport SnnProcessorModel::run(const NetworkWorkload& workload) const {
  const std::size_t weighted = workload.weighted_layer_count();
  TTFS_CHECK_MSG(workload.activity.size() >= weighted,
                 "activity profile has " << workload.activity.size() << " phases, need "
                                         << weighted);

  std::vector<LayerCounts> counts;
  counts.reserve(workload.layers.size());
  std::size_t phase = 0;  // activity index of the layer's *input* spikes
  for (const auto& layer : workload.layers) {
    LayerCounts c;
    const double act_in = workload.activity[std::min(phase, workload.activity.size() - 1)];
    c.in_spikes = std::llround(layer.in_neurons() * act_in);
    if (layer.kind == LayerKind::kPool) {
      // Pooling preserves its input activity in a smaller map.
      c.out_spikes = std::min<std::int64_t>(layer.out_neurons(),
                                            std::llround(layer.out_neurons() * act_in));
      counts.push_back(c);
      continue;
    }
    const bool is_output = (phase + 1 == weighted);
    const double act_out =
        is_output ? 0.0 : workload.activity[std::min(phase + 1, workload.activity.size() - 1)];
    c.out_spikes = std::llround(layer.out_neurons() * act_out);

    // Receptive-field spikes streamed per spine (interior approximation),
    // through every active PE of every spine.
    const SpineGeometry g = spine_geometry(layer, arch_.num_pes);
    const double rf_inputs = layer.kind == LayerKind::kConv
                                 ? static_cast<double>(layer.cin * layer.kernel * layer.kernel)
                                 : static_cast<double>(layer.cin);
    const double rf_spikes = rf_inputs * act_in;
    c.sops = std::llround(rf_spikes * g.avg_pes * static_cast<double>(layer.hout * layer.wout) *
                          static_cast<double>(g.groups));
    c.streamed = rf_spikes * static_cast<double>(g.spines);
    counts.push_back(c);
    ++phase;
  }
  return price(workload, counts);
}

ProcessorReport SnnProcessorModel::price(const NetworkWorkload& geometry,
                                         const std::vector<LayerCounts>& counts) const {
  TTFS_CHECK_MSG(counts.size() == geometry.layers.size(),
                 counts.size() << " layer counts for " << geometry.layers.size() << " layers");
  ProcessorReport report;
  report.workload = geometry.name;
  report.area_mm2 = area_mm2();
  report.layers.reserve(geometry.layers.size());

  const double pe_pj = arch_.pe == PeKind::kLog ? tech_.e_logpe_op : tech_.e_mult16x5;
  // Weights stream from DRAM once per image unless the whole network fits in
  // the on-chip weight buffers (it never does for VGG-16).
  const bool weights_resident =
      static_cast<double>(geometry.total_weights()) * arch_.weight_bits <=
      arch_.weight_buffer_bits();
  const std::size_t weighted = geometry.weighted_layer_count();
  std::size_t weighted_seen = 0;
  std::int64_t total_sops = 0;

  for (std::size_t i = 0; i < geometry.layers.size(); ++i) {
    const LayerWorkload& layer = geometry.layers[i];
    const LayerCounts& c = counts[i];
    LayerReport& lr = report.layers.emplace_back();
    lr.name = layer.name;
    lr.in_spikes = c.in_spikes;
    lr.out_spikes = c.out_spikes;

    if (layer.kind == LayerKind::kPool) {
      // Earliest-spike pooling happens in the PPU while draining the encoder;
      // charge register-file traffic and a modest drain cost.
      lr.cycles = layer.out_neurons() / 8;
      lr.energy.encoder_uj = lr.in_spikes * arch_.spike_bits * tech_.e_regfile_bit * 1e-6;
    } else {
      const bool is_output = ++weighted_seen == weighted;  // the output layer never fires
      const SpineGeometry g = spine_geometry(layer, arch_.num_pes);
      const double spines = static_cast<double>(g.spines);
      lr.sops = c.sops;
      const double streamed = c.streamed.value_or(static_cast<double>(c.sops) / g.avg_pes);

      // Integration streams one sorted spike per cycle through all active PEs
      // of a spine; the fire phase walks T threshold steps per spine plus one
      // cycle per emitted spike (priority-encoder serialization). The encoder
      // drains spine N while the array integrates spine N+1 (double-buffered
      // Vmem), so the layer costs the larger of the two plus per-spine bubbles.
      const double encode_cycles =
          is_output ? 0.0 : spines * arch_.window + static_cast<double>(lr.out_spikes);
      lr.cycles = std::llround(std::max(streamed, encode_cycles) +
                               spines * arch_.spine_overhead_cycles);

      // PE datapath + weight buffer read per SOP; input spikes stream from the
      // input buffer and through the minfind sorter once per spine pass.
      lr.energy.pe_uj = static_cast<double>(lr.sops) * pe_pj * 1e-6;
      lr.energy.sram_uj +=
          static_cast<double>(lr.sops) * arch_.weight_bits * tech_.e_sram_bit * 1e-6;
      lr.energy.sram_uj += streamed * arch_.spike_bits * tech_.e_sram_bit * 1e-6;
      lr.energy.minfind_uj = streamed * tech_.e_minfind * 1e-6;
      // Encoder: Vmem load, T parallel threshold compares, priority encoding,
      // reset write-back; then the output buffer write.
      if (!is_output) {
        lr.energy.encoder_uj += g.avg_pes * spines * arch_.vmem_bits * tech_.e_regfile_bit * 1e-6;
        lr.energy.encoder_uj +=
            static_cast<double>(arch_.window) * g.avg_pes * spines * tech_.e_comparator * 1e-6;
        lr.energy.encoder_uj += lr.out_spikes * (tech_.e_prio_encode + arch_.vmem_bits *
                                                 tech_.e_regfile_bit) * 1e-6;
        lr.energy.sram_uj += lr.out_spikes * arch_.spike_bits * tech_.e_sram_bit * 1e-6;
      }

      // DRAM: the layer's weights unless resident; input spikes once with the
      // 48 KB reuse buffer, once per PE-group re-stream without it; DMA out.
      const double in_fetches = arch_.input_buffer_reuse ? 1.0 : static_cast<double>(g.groups);
      lr.dram_bits =
          weights_resident ? 0.0 : static_cast<double>(layer.weight_count()) * arch_.weight_bits;
      lr.dram_bits += static_cast<double>(lr.in_spikes) * in_fetches * arch_.spike_bits;
      lr.dram_bits += static_cast<double>(lr.out_spikes) * arch_.spike_bits;
      lr.energy.dram_uj = lr.dram_bits * tech_.e_dram_bit * 1e-6;
    }

    report.total_cycles += lr.cycles;
    total_sops += lr.sops;
    report.energy.add(lr.energy);
  }

  report.time_ms = static_cast<double>(report.total_cycles) * arch_.clock.cycle_ns() * 1e-6;
  report.fps = report.time_ms > 0.0 ? 1e3 / report.time_ms : 0.0;
  report.energy.control_uj = static_cast<double>(report.total_cycles) * tech_.e_ctrl_cycle * 1e-6;
  report.energy.leakage_uj = tech_.leakage_mw * report.time_ms;  // mW * ms = uJ
  report.gsops = report.time_ms > 0.0 ? static_cast<double>(total_sops) / (report.time_ms * 1e6)
                                      : 0.0;
  // Chip power excludes DRAM (off-chip), matching how the paper reports 67 mW
  // alongside a DRAM-dominated energy-per-image figure.
  const double on_chip_uj = report.energy.total_uj() - report.energy.dram_uj;
  report.power_mw = report.time_ms > 0.0 ? on_chip_uj / report.time_ms : 0.0;  // uJ / ms = mW
  return report;
}

}  // namespace ttfs::hw
