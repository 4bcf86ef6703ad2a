// Global-timestep timeline engine.
//
// The most literal execution model of the TTFS network (next to the
// SnnNetwork::forward oracle and the per-phase event simulator): a single global clock
// advances one timestep at a time across the whole pipeline. During window w
// (timesteps [w*T, (w+1)*T)) the w-th fire stage compares its membranes
// against the decaying threshold, emits spikes in priority order, and each
// spike is delivered *at that same timestep* into the downstream stage's
// membranes (paper Fig. 1: a layer integrates exactly while its presynaptic
// layer fires). Pool stages forward a spike the first time any neuron of a
// pool window fires — earliest-spike-wins, on the same timestep.
//
// This engine exists to validate the windowing/latency semantics end to end:
// its spikes must match SnnNetwork::trace() per phase, its global timestamps
// must respect the window schedule, and its final membrane readout must equal
// forward()'s logits.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/network.h"
#include "tensor/tensor.h"

namespace ttfs::snn {

struct TimelineEvent {
  std::int32_t stage = 0;        // fire stage: 0 = input encoding, 1 = first layer, ...
  std::int32_t neuron = 0;       // index within the stage's fire map
  std::int32_t global_step = 0;  // timestamp on the global clock
};

struct TimelineResult {
  std::vector<TimelineEvent> events;  // chronological (global_step, stage, neuron)
  Tensor logits;                      // (1, classes) — output stage membranes
  int total_timesteps = 0;            // == net.latency_timesteps()

  std::int64_t spike_count() const { return static_cast<std::int64_t>(events.size()); }
};

// Runs one image (C, H, W) on the global clock.
TimelineResult run_timeline(const SnnNetwork& net, const Tensor& image);

}  // namespace ttfs::snn
