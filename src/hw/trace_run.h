// Trace-driven processor evaluation.
//
// The second count source of the processor cost model (processor.h):
// run() models per-layer counts from activity *fractions*, while
// price_trace reads them off the exact spike trace of a real network on a
// real image (snn/event_sim.h), so spike counts, SOP counts and DRAM traffic
// are measured, not modelled. Both are priced by SnnProcessorModel::price.
// Used to validate the analytic model against the simulators and to price
// the networks we actually train.
#pragma once

#include "hw/processor.h"
#include "snn/event_sim.h"
#include "snn/network.h"

namespace ttfs::hw {

// Prices an already-simulated spike trace of `net` on the processor
// configuration; (input_h, input_w) is the simulated image's spatial size,
// which fixes the layer geometry (hw::snn_geometry). The report has one
// entry per layer, pools included, in network order, named by kind.
// Throws std::invalid_argument when the trace does not fit: a phase count
// other than one per layer, or a phase whose neuron count differs from its
// layer's input. Also throws when the output layer is not fc: the trace does
// not record an output conv's ops. Callers that batch many images through one
// snn::InferenceSession (RunOptions::traces) feed each RunResult trace
// through here.
ProcessorReport price_trace(const SnnProcessorModel& model, const snn::SnnNetwork& net,
                            const snn::EventTrace& trace, std::int64_t input_h,
                            std::int64_t input_w);

}  // namespace ttfs::hw
