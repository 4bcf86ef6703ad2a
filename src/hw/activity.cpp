#include "hw/activity.h"

#include "snn/engine.h"
#include "util/check.h"

namespace ttfs::hw {

std::vector<double> measure_activity(const snn::SnnNetwork& net, const data::LabeledData& data) {
  snn::InferenceSession session = snn::Engine{net}.session(snn::BackendKind::kEventSim);
  snn::RunOptions opts;
  opts.logits = false;
  opts.stats = true;
  const snn::SnnRunStats stats = session.run(snn::BatchView{data.images}, opts).merged_stats();
  std::vector<double> out;
  out.reserve(stats.spikes_per_layer.size());
  for (std::size_t i = 0; i < stats.spikes_per_layer.size(); ++i) {
    const double neurons = static_cast<double>(stats.neurons_per_layer[i]);
    out.push_back(neurons == 0.0 ? 0.0
                                 : static_cast<double>(stats.spikes_per_layer[i]) / neurons);
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
