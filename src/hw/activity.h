// Measured spiking activity profiles.
//
// The hardware model's energy and cycle counts scale with how many neurons
// actually spike. For networks we can run (the trained minis), activity is
// measured exactly. No VGG-16 is trained, so Table 4 and the Sec. 7
// ablations price paper-scale VGG-16 with hw::default_activity's fixed depth
// profile (workload.h: input pixels 0.9, hidden layers 0.40 falling to 0.15),
// not with a measured one. resample_activity can map a measured profile onto
// a deeper network by relative depth — the bridging assumption DESIGN.md
// documents (firing-rate-vs-depth curves are close to architecture-
// independent for TTFS conversions) — but no bench prices with it today.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "snn/network.h"

namespace ttfs::hw {

// Runs `net` over `data` on the event simulator and returns the measured
// per-fire-phase activity (index 0 = input encoding), as fractions in [0, 1].
std::vector<double> measure_activity(const snn::SnnNetwork& net, const data::LabeledData& data);

// Resamples a measured profile onto `target_phases` fire phases by linear
// interpolation over relative depth.
std::vector<double> resample_activity(const std::vector<double>& measured,
                                      std::size_t target_phases);

}  // namespace ttfs::hw
