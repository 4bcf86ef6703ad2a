#include "serve/batcher.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace ttfs::serve {

std::string to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kRejectWhenFull: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed";
  }
  return "unknown";
}

AdmissionPolicy admission_policy_from_string(const std::string& name) {
  if (name == "block") return AdmissionPolicy::kBlock;
  if (name == "reject" || name == "reject_when_full") return AdmissionPolicy::kRejectWhenFull;
  if (name == "shed" || name == "shed_oldest") return AdmissionPolicy::kShedOldest;
  throw std::invalid_argument("unknown admission policy '" + name +
                              "' (want block|reject|shed)");
}

MicroBatcher::MicroBatcher(BatcherOptions opts) : opts_{opts} {
  TTFS_CHECK(opts.max_batch > 0 && opts.max_delay.count() >= 0);
}

PushOutcome MicroBatcher::push(PendingRequest& req, std::optional<PendingRequest>* shed) {
  if (shed != nullptr) shed->reset();
  {
    util::MutexLock lock{mu_};
    if (full_locked() && !closed_) {
      switch (opts_.admission) {
        case AdmissionPolicy::kBlock:
          // Space frees on a pop, a cancel, or close(); closed_ is re-checked
          // below so a close during the wait rejects cleanly.
          while (!closed_ && full_locked()) space_cv_.wait(lock);
          break;
        case AdmissionPolicy::kRejectWhenFull:
          return PushOutcome::kRejectedFull;
        case AdmissionPolicy::kShedOldest: {
          // Drop-head across lanes: the globally oldest request makes room
          // and is handed back for the caller to resolve as shed. The
          // out-param is mandatory here — dropping the evicted request on
          // the floor would never run its callback, leaving its consumer
          // waiting instead of seeing a clean kShed result.
          TTFS_CHECK_MSG(shed != nullptr,
                         "kShedOldest push needs the shed out-parameter to hand back "
                         "the evicted request");
          auto lane = oldest_front_locked([](const Lane&) { return true; });
          TTFS_DCHECK(lane != lanes_.end());  // full queue => nonempty lane
          shed->emplace(std::move(lane->second.front()));
          lane->second.pop_front();
          --total_;
          if (lane->second.empty()) lanes_.erase(lane);
          break;
        }
      }
    }
    if (closed_) return PushOutcome::kClosed;
    lanes_[req.model_id].push_back(std::move(req));
    ++total_;
  }
  // Waking the consumer on every push keeps the logic simple; it re-checks
  // the size/deadline policy and goes back to (deadline-bounded) sleep when
  // no batch is ready yet.
  cv_.notify_one();
  return PushOutcome::kQueued;
}

template <typename Pred>
MicroBatcher::LaneMap::iterator MicroBatcher::oldest_front_locked(Pred pred) {
  auto best = lanes_.end();
  for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
    if (!pred(it->second)) continue;
    if (best == lanes_.end() || it->second.front().enqueued < best->second.front().enqueued) {
      best = it;
    }
  }
  return best;
}

std::vector<PendingRequest> MicroBatcher::take_locked(LaneMap::iterator lane) {
  Lane& queue = lane->second;
  const std::size_t take =
      std::min(queue.size(), static_cast<std::size_t>(opts_.max_batch));
  std::vector<PendingRequest> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  total_ -= take;
  if (queue.empty()) lanes_.erase(lane);
  if (take > 0) space_cv_.notify_all();  // kBlock pushers may proceed
  // A push wakes only one consumer, so the remaining lanes need a consumer
  // that re-checks the size/deadline policy while this one runs its batch.
  if (!lanes_.empty()) cv_.notify_one();
  return batch;
}

std::vector<PendingRequest> MicroBatcher::pop_batch() {
  util::MutexLock lock{mu_};
  for (;;) {
    if (closed_) {
      // Drain mode: keep flushing per-model batches, oldest front first;
      // the empty vector once every lane is dry is the shutdown signal.
      auto lane = oldest_front_locked([](const Lane&) { return true; });
      if (lane == lanes_.end()) return {};
      return take_locked(lane);
    }
    // Size trigger: any lane at max_batch flushes now; among several, the
    // longest-waiting front pops first.
    auto ready = oldest_front_locked([this](const Lane& lane) {
      return lane.size() >= static_cast<std::size_t>(opts_.max_batch);
    });
    if (ready != lanes_.end()) return take_locked(ready);
    if (lanes_.empty()) {
      cv_.wait(lock);
      continue;
    }
    // Deadline trigger: flush the lane whose oldest request has exhausted
    // max_delay, if any; otherwise sleep until the earliest lane deadline. A
    // push can beat the deadline (size trigger) and close() flushes
    // immediately; both re-enter the loop via no_timeout. On timeout the
    // deadlines are re-checked against the *current* fronts — a cancel (or
    // a concurrent consumer's pop) may have replaced a front with a younger
    // request whose max_delay has not elapsed yet, in which case the loop
    // re-arms on the new earliest deadline instead of flushing early.
    const auto now = std::chrono::steady_clock::now();
    auto expired = oldest_front_locked([this, now](const Lane& lane) {
      return now >= lane.front().enqueued + opts_.max_delay;
    });
    if (expired != lanes_.end()) return take_locked(expired);
    const auto earliest = oldest_front_locked([](const Lane&) { return true; });
    cv_.wait_until(lock, earliest->second.front().enqueued + opts_.max_delay);
  }
}

std::optional<PendingRequest> MicroBatcher::cancel(std::uint64_t id) {
  std::optional<PendingRequest> removed;
  {
    const util::MutexLock lock{mu_};
    for (auto lane = lanes_.begin(); lane != lanes_.end(); ++lane) {
      Lane& queue = lane->second;
      const auto it = std::find_if(queue.begin(), queue.end(),
                                   [id](const PendingRequest& r) { return r.id == id; });
      if (it == queue.end()) continue;
      removed.emplace(std::move(*it));
      queue.erase(it);
      --total_;
      if (queue.empty()) lanes_.erase(lane);
      break;
    }
  }
  if (removed.has_value()) space_cv_.notify_all();  // freed a slot
  return removed;
}

void MicroBatcher::close() {
  {
    const util::MutexLock lock{mu_};
    closed_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
}

std::size_t MicroBatcher::depth() const {
  const util::MutexLock lock{mu_};
  return total_;
}

std::map<std::string, std::size_t> MicroBatcher::depth_by_model() const {
  const util::MutexLock lock{mu_};
  std::map<std::string, std::size_t> depths;
  for (const auto& [model, lane] : lanes_) depths[model] = lane.size();
  return depths;
}

bool MicroBatcher::closed() const {
  const util::MutexLock lock{mu_};
  return closed_;
}

}  // namespace ttfs::serve
