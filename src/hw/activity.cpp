#include "hw/activity.h"

#include <algorithm>

#include "snn/engine.h"
#include "util/check.h"

namespace ttfs::hw {

std::vector<double> measure_activity(const snn::SnnNetwork& net, const data::LabeledData& data) {
  // Traced chunks of a fixed size, so the process-wide trace bin (engine.h)
  // holds at most kChunk traces however large the dataset is.
  constexpr std::int64_t kChunk = 8;
  snn::InferenceSession session = snn::Engine{net}.session(snn::BackendKind::kEventSim);
  snn::RunOptions opts;
  opts.logits = false;
  opts.traces = true;
  std::vector<std::int64_t> spikes, neurons;
  for (std::int64_t lo = 0; lo < data.size(); lo += kChunk) {
    const Tensor chunk = data.images.slice0(lo, std::min(kChunk, data.size() - lo));
    const snn::RunResult run = session.run(snn::BatchView{chunk}, opts);
    for (const snn::EventTrace& trace : run.traces) {
      const snn::SnnRunStats s = snn::stats_from_trace(net, trace);
      spikes.resize(s.spikes_per_layer.size());
      neurons.resize(s.neurons_per_layer.size());
      for (std::size_t l = 0; l < spikes.size(); ++l) {
        spikes[l] += s.spikes_per_layer[l];
        neurons[l] += s.neurons_per_layer[l];
      }
    }
  }
  std::vector<double> out;
  out.reserve(spikes.size());
  for (std::size_t l = 0; l < spikes.size(); ++l) {
    const double n = static_cast<double>(neurons[l]);
    out.push_back(n == 0.0 ? 0.0 : static_cast<double>(spikes[l]) / n);
  }
  return out;
}

std::vector<double> resample_activity(const std::vector<double>& measured,
                                      std::size_t target_phases) {
  TTFS_CHECK(!measured.empty() && target_phases >= 1);
  std::vector<double> out(target_phases);
  if (measured.size() == 1) {
    for (auto& v : out) v = measured[0];
    return out;
  }
  for (std::size_t i = 0; i < target_phases; ++i) {
    const double pos = target_phases == 1
                           ? 0.0
                           : static_cast<double>(i) / static_cast<double>(target_phases - 1) *
                                 static_cast<double>(measured.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, measured.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = measured[lo] * (1.0 - frac) + measured[hi] * frac;
  }
  return out;
}

}  // namespace ttfs::hw
