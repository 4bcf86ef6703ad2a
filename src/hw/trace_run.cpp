#include "hw/trace_run.h"

#include "util/check.h"

namespace ttfs::hw {

ProcessorReport price_trace(const SnnProcessorModel& model, const snn::SnnNetwork& net,
                            const snn::EventTrace& trace, std::int64_t input_h,
                            std::int64_t input_w) {
  TTFS_CHECK_MSG(!trace.layers.empty() && input_h > 0 && input_w > 0,
                 "cannot price a trace of " << trace.layers.size() << " phases on a " << input_h
                                            << "x" << input_w << " input");
  // The input channel count is whatever fills the input phase; the phase
  // checks below catch a trace that does not fit.
  NetworkWorkload geometry = snn_geometry(
      net, trace.layers[0].neuron_count / (input_h * input_w), input_h, input_w);
  geometry.name = "trace";

  // The simulator records the input encoding, then one phase per layer up to
  // the output layer, which never fires: a trace of this net has one phase
  // per layer, phase i holding layer i's input spikes.
  const std::size_t layers = geometry.layers.size();
  TTFS_CHECK_MSG(layers > 0 && trace.layers.size() == layers,
                 "trace has " << trace.layers.size() << " phases, this " << layers
                              << "-layer net needs " << layers);
  // The output layer never fires, so no phase carries its integration ops;
  // only an fc head's follow from its input spikes.
  TTFS_CHECK_MSG(geometry.layers.back().kind == LayerKind::kFc,
                 "output layer " << layers - 1 << " is a " << geometry.layers.back().name
                                 << ", not fc: the trace does not record the ops of an output "
                                 << geometry.layers.back().name << ", so it cannot be priced");

  std::vector<LayerCounts> counts(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    const LayerWorkload& layer = geometry.layers[i];
    const snn::LayerEventTrace& in = trace.layers[i];
    TTFS_CHECK_MSG(in.neuron_count == layer.in_neurons(),
                   "trace phase " << i << " has " << in.neuron_count << " neurons, "
                                  << layer.name << " layer " << i << " takes "
                                  << layer.in_neurons());
    LayerCounts& c = counts[i];
    c.in_spikes = static_cast<std::int64_t>(in.spikes.size());
    if (i + 1 < layers) {
      // Measured SOPs: the integration ops the simulator performed for this
      // layer live on its own fire phase record.
      c.out_spikes = static_cast<std::int64_t>(trace.layers[i + 1].spikes.size());
      c.sops = trace.layers[i + 1].integration_ops;
    } else {
      // Output layer: fc fans every input spike to every class.
      c.sops = c.in_spikes * layer.cout;
    }
  }
  return model.price(geometry, counts);
}

}  // namespace ttfs::hw
