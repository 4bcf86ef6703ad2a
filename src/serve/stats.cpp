#include "serve/stats.h"

#include <iterator>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace ttfs::serve {

std::string ServerStats::describe() const {
  std::ostringstream os;
  os.precision(3);
  os << "served " << completed << "/" << submitted << " (" << failed << " failed, " << rejected
     << " rejected, " << rejected_overload << " overload-rejected) in " << batches_formed << " batches (mean " << mean_batch_size << ") on "
     << replicas.size() << " replica" << (replicas.size() == 1 ? "" : "s") << " x "
     << models.size() << " model" << (models.size() == 1 ? "" : "s") << ", p50 "
     << latency_p50_ms << "ms p95 " << latency_p95_ms << "ms";
  return os.str();
}

StatsCollector::StatsCollector(std::size_t replicas,
                               std::function<bool(const std::string&)> registered)
    : registered_{std::move(registered)}, replicas_(replicas) {
  TTFS_CHECK(replicas >= 1 && registered_ != nullptr);
}

void StatsCollector::drop_unloaded_locked() const {
  for (auto it = models_.begin(); it != models_.end();) {
    const ModelSlot& m = it->second;
    const bool settled = m.submitted == m.completed + m.failed + m.rejected + m.rejected_overload;
    it = settled && !registered_(it->first) ? models_.erase(it) : std::next(it);
  }
}

void StatsCollector::on_submit(const std::string& model) {
  const util::MutexLock lock{mu_};
  ++submitted_;
  const auto [slot, created] = models_.try_emplace(model);
  ++slot->second.submitted;
  if (created) drop_unloaded_locked();  // the breakdown grows only here
}

void StatsCollector::on_reject_unknown() {
  const util::MutexLock lock{mu_};
  ++submitted_;
  ++rejected_;
}

void StatsCollector::on_reject(const std::string& model) {
  const util::MutexLock lock{mu_};
  ++rejected_;
  ++models_[model].rejected;
}

void StatsCollector::on_reject_overload(const std::string& model) {
  const util::MutexLock lock{mu_};
  ++rejected_overload_;
  ++models_[model].rejected_overload;
}

void StatsCollector::on_fail(const std::string& model) {
  const util::MutexLock lock{mu_};
  ++failed_;
  ++models_[model].failed;
}

void StatsCollector::on_batch(std::size_t replica, const std::string& model) {
  const util::MutexLock lock{mu_};
  ++batches_;
  ++replicas_.at(replica).batches;
  ++models_[model].batches;
}

void StatsCollector::on_complete(std::size_t replica, const std::string& model,
                                 double latency_seconds) {
  const util::MutexLock lock{mu_};
  ++completed_;
  latency_.record(latency_seconds);
  ReplicaSlot& slot = replicas_.at(replica);
  ++slot.completed;
  slot.latency.record(latency_seconds);
  ModelSlot& model_slot = models_[model];
  ++model_slot.completed;
  model_slot.latency.record(latency_seconds);
}

ServerStats StatsCollector::snapshot(std::size_t queue_depth, const std::vector<bool>& busy,
                                     const std::map<std::string, std::size_t>& model_depths) const {
  const util::MutexLock lock{mu_};
  drop_unloaded_locked();
  ServerStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.rejected_overload = rejected_overload_;
  s.batches_formed = batches_;
  s.queue_depth = queue_depth;
  s.mean_batch_size =
      batches_ == 0 ? 0.0 : static_cast<double>(completed_) / static_cast<double>(batches_);
  s.latency_mean_ms = latency_.mean() * 1e3;
  s.latency_p50_ms = latency_.quantile(0.50) * 1e3;
  s.latency_p95_ms = latency_.quantile(0.95) * 1e3;
  s.replicas.resize(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const ReplicaSlot& slot = replicas_[r];
    ReplicaStats& out = s.replicas[r];
    out.batches = slot.batches;
    out.completed = slot.completed;
    out.mean_batch_size = slot.batches == 0 ? 0.0
                                            : static_cast<double>(slot.completed) /
                                                  static_cast<double>(slot.batches);
    out.latency_p50_ms = slot.latency.quantile(0.50) * 1e3;
    out.latency_p95_ms = slot.latency.quantile(0.95) * 1e3;
    out.busy = r < busy.size() && busy[r];
  }
  // models_ is std::map, so the per-model breakdown comes out sorted by id.
  // Every queued lane has a slot: submit counts a request before it queues.
  s.models.reserve(models_.size());
  for (const auto& [id, slot] : models_) {
    ModelStats out;
    out.id = id;
    out.submitted = slot.submitted;
    out.completed = slot.completed;
    out.failed = slot.failed;
    out.rejected = slot.rejected;
    out.rejected_overload = slot.rejected_overload;
    out.batches = slot.batches;
    out.mean_batch_size = slot.batches == 0 ? 0.0
                                            : static_cast<double>(slot.completed) /
                                                  static_cast<double>(slot.batches);
    const auto depth = model_depths.find(id);
    out.queue_depth = depth == model_depths.end() ? 0 : depth->second;
    out.latency_p50_ms = slot.latency.quantile(0.50) * 1e3;
    out.latency_p95_ms = slot.latency.quantile(0.95) * 1e3;
    s.models.push_back(std::move(out));
  }
  return s;
}

}  // namespace ttfs::serve
