#include "serve/batcher.h"

#include <algorithm>

#include "util/check.h"

namespace ttfs::serve {

MicroBatcher::MicroBatcher(BatcherOptions opts) : opts_{opts} {
  TTFS_CHECK(opts.max_batch > 0 && opts.max_delay.count() >= 0);
}

PushOutcome MicroBatcher::push(PendingRequest& req) {
  {
    const util::MutexLock lock{mu_};
    if (closed_) return PushOutcome::kClosed;
    if (full_locked()) return PushOutcome::kRejectedFull;
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
    // deadlines are re-checked against the *current* fronts — a concurrent
    // consumer's pop may have replaced a front with a younger request whose
    // max_delay has not elapsed yet, in which case the loop re-arms on the
    // new earliest deadline instead of flushing early.
    const auto now = std::chrono::steady_clock::now();
    auto expired = oldest_front_locked([this, now](const Lane& lane) {
      return now >= lane.front().enqueued + opts_.max_delay;
    });
    if (expired != lanes_.end()) return take_locked(expired);
    const auto earliest = oldest_front_locked([](const Lane&) { return true; });
    cv_.wait_until(lock, earliest->second.front().enqueued + opts_.max_delay);
  }
}

void MicroBatcher::close() {
  {
    const util::MutexLock lock{mu_};
    closed_ = true;
  }
  cv_.notify_all();
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
