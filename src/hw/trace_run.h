// Trace-driven processor evaluation.
//
// The analytic model (processor.h) prices a workload from per-layer activity
// *fractions*; this variant instead consumes the exact spike trace of a real
// network on a real image (snn/event_sim.h), so spike counts, SOP counts and
// DRAM traffic are measured, not modelled. Used to validate the analytic
// model against the simulators and to price the networks we actually train.
#pragma once

#include "hw/processor.h"
#include "snn/event_sim.h"
#include "snn/network.h"

namespace ttfs::hw {

// Prices an already-simulated spike trace of `net` on the processor
// configuration; (input_h, input_w) is the simulated image's spatial size
// (needed to walk the layer geometry). The report has one layer entry per
// weighted layer (pools are folded into their source stage, as in hardware).
// Callers that batch many images through one snn::InferenceSession
// (RunOptions::traces) feed each RunResult trace through here.
ProcessorReport price_trace(const SnnProcessorModel& model, const snn::SnnNetwork& net,
                            const snn::EventTrace& trace, std::int64_t input_h,
                            std::int64_t input_w);

}  // namespace ttfs::hw
