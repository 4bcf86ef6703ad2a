// SpinalFlow-derived SNN processor performance/energy model (paper Sec. 4-5).
//
// Architecture modelled (Fig. 5): input generator (48 KB input buffer +
// minfind sorter) -> 128-PE array fed by four 90 KB weight buffers -> PPU +
// spike encoder (Vmem buffer, threshold LUT, 128-to-7 priority encoder) ->
// 192 B output buffer -> DMA to off-chip DRAM at 4 pJ/bit.
//
// Execution model: output neurons are processed in "spines" of up to 128
// (= one PE each). For each spine the sorted input spikes of its receptive
// field stream through the array at one spike per cycle, every active PE
// accumulating weight x kernel-level into its membrane (integration phase);
// then the encoder walks the T threshold steps and serializes ready neurons
// through the priority encoder at one spike per cycle (fire phase). Layers
// with more than 128 output channels re-stream their input spikes once per
// PE group — which is exactly why the 48 KB input buffer (vs. SpinalFlow's
// smaller one) pays off: re-streams hit SRAM instead of DRAM.
//
// The model is cycle-approximate (no DRAM latency stalls — DMA is assumed to
// overlap compute, as in the paper's dataflow) and charges every op to the
// TechParams energy table.
//
// There is one cost model, SnnProcessorModel::price, which turns a layer
// geometry plus per-layer activity counts into cycles, energy and DRAM
// traffic. It has two count sources: run() models the counts from activity
// fractions (Table 4, the ablations), and hw::price_trace (trace_run.h)
// measures them off a simulated spike trace.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/tech.h"
#include "hw/workload.h"

namespace ttfs::hw {

enum class PeKind { kLinear, kLog };
enum class DecoderKind { kSramPerLayer, kSharedLut };

struct ArchConfig {
  int num_pes = 128;
  int pe_groups = 4;                   // weight buffers feeding 32 PEs each
  int weight_buffer_kb_per_group = 90;
  int input_buffer_kb = 48;
  int output_buffer_bytes = 192;
  int weight_bits = 5;
  int spike_bits = 16;  // packed (neuron id, timestep) record
  int vmem_bits = 24;
  int window = 24;      // encoder timesteps T
  PeKind pe = PeKind::kLog;
  DecoderKind decoder = DecoderKind::kSharedLut;
  bool input_buffer_reuse = true;  // false: re-streams fetch from DRAM (ablation)
  int spine_overhead_cycles = 8;   // per-spine control/drain bubbles
  ClockConfig clock;

  double weight_buffer_bits() const {
    return static_cast<double>(pe_groups) * weight_buffer_kb_per_group * 1024.0 * 8.0;
  }
};

// One layer's activity, the input of the cost model. Pools use only the two
// spike counts.
struct LayerCounts {
  std::int64_t in_spikes = 0;   // unique spikes entering the layer
  std::int64_t out_spikes = 0;  // spikes its fire phase emits (0 for the output layer)
  std::int64_t sops = 0;        // synaptic accumulations executed
  // Input spikes streamed through the PE array, summed over spines. Unset:
  // every streamed spike drove every active PE of its spine, so sops / PEs.
  std::optional<double> streamed;
};

struct EnergyBreakdown {
  double pe_uj = 0.0;
  double sram_uj = 0.0;      // weight/input/output buffer traffic
  double encoder_uj = 0.0;   // comparators, priority encoder, Vmem buffer
  double minfind_uj = 0.0;
  double dram_uj = 0.0;
  double control_uj = 0.0;   // clock tree + top control (per-cycle), report level
  double leakage_uj = 0.0;   // static, report level

  double total_uj() const {
    return pe_uj + sram_uj + encoder_uj + minfind_uj + dram_uj + control_uj + leakage_uj;
  }
  void add(const EnergyBreakdown& other);
};

struct LayerReport {
  std::string name;
  std::int64_t cycles = 0;
  std::int64_t sops = 0;        // synaptic accumulations executed
  std::int64_t in_spikes = 0;   // unique spikes entering the layer
  std::int64_t out_spikes = 0;  // spikes emitted by its fire phase
  double dram_bits = 0.0;
  EnergyBreakdown energy;
};

struct ProcessorReport {
  std::string workload;
  std::vector<LayerReport> layers;
  std::int64_t total_cycles = 0;
  double time_ms = 0.0;       // per image
  double fps = 0.0;
  double power_mw = 0.0;      // dynamic + leakage at this workload
  double gsops = 0.0;         // sustained synaptic ops throughput
  double area_mm2 = 0.0;
  EnergyBreakdown energy;     // per image

  double energy_per_image_uj() const { return energy.total_uj(); }
};

// Steady-state throughput if consecutive images pipeline through the layer
// schedule (image i in layer l while image i+1 occupies layer l-1, double-
// buffered weights): bounded by the slowest layer instead of the layer sum.
// The paper's Table 4 reports sequential (single-image) fps; this is the
// upper bound a batch-pipelined deployment of the same array could reach.
double pipelined_fps(const ProcessorReport& report, const ClockConfig& clock = ClockConfig{});

class SnnProcessorModel {
 public:
  SnnProcessorModel(ArchConfig arch, TechParams tech) : arch_{arch}, tech_{tech} {}

  // Evaluates one image of `workload` with counts modelled from its activity
  // fractions. workload.activity must cover all fire phases (input + each
  // hidden weighted layer).
  ProcessorReport run(const NetworkWorkload& workload) const;

  // The cost model: prices one image of `geometry` (its activity is not read)
  // from `counts`, one entry per layer. The last weighted layer is the output
  // layer, which never fires.
  ProcessorReport price(const NetworkWorkload& geometry,
                        const std::vector<LayerCounts>& counts) const;

  // Total die area of this configuration.
  double area_mm2() const;

 private:
  ArchConfig arch_;
  TechParams tech_;
};

}  // namespace ttfs::hw
