#include "serve/server.h"

#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ttfs::serve {

namespace {

ServeOptions validated(ServeOptions opts) {
  TTFS_CHECK_MSG(opts.registry != nullptr, "SnnServer needs a ModelRegistry");
  TTFS_CHECK_MSG(opts.replicas >= 1, "SnnServer needs at least one replica");
  return opts;
}

BatcherOptions batcher_options(const ServeOptions& opts) {
  BatcherOptions bopts;
  bopts.max_batch = opts.max_batch;
  bopts.max_delay = opts.max_delay;
  bopts.capacity = opts.queue_capacity;
  bopts.admission = opts.admission;
  return bopts;
}

}  // namespace

SnnServer::SnnServer(ServeOptions opts)
    : opts_{validated(std::move(opts))},
      registry_{opts_.registry},
      bindings_(static_cast<std::size_t>(opts_.replicas)),
      batcher_{batcher_options(opts_)},
      busy_(static_cast<std::size_t>(opts_.replicas)),
      stats_{static_cast<std::size_t>(opts_.replicas)} {
  schedulers_.reserve(static_cast<std::size_t>(opts_.replicas));
  for (std::size_t r = 0; r < static_cast<std::size_t>(opts_.replicas); ++r) {
    schedulers_.emplace_back([this, r] { replica_loop(r); });
  }
}

SnnServer::~SnnServer() { stop(); }

void SnnServer::stop() {
  std::call_once(stopped_, [this] {
    // Close the submit queue (waking kBlock submitters with kClosed); the
    // replicas drain it batch by batch and exit on the empty batch.
    batcher_.close();
    for (std::thread& t : schedulers_) {
      if (t.joinable()) t.join();
    }
  });
}

SnnServer::Submission SnnServer::submit(const std::string& model_id, Tensor image) {
  // std::function needs a copyable target, so the move-only promise is
  // shared with the callback.
  auto promise = std::make_shared<std::promise<ServeResult>>();
  Submission sub;
  sub.result = promise->get_future();
  sub.id = submit_async(model_id, std::move(image),
                        [promise](ServeResult r) { promise->set_value(std::move(r)); });
  return sub;
}

std::uint64_t SnnServer::submit_async(const std::string& model_id, Tensor image,
                                      std::function<void(ServeResult)> on_complete) {
  TTFS_CHECK_MSG(on_complete != nullptr, "submit_async needs a completion callback");
  PendingRequest req;
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.model_id = model_id;
  req.image = std::move(image);
  req.enqueued = std::chrono::steady_clock::now();
  req.on_complete = std::move(on_complete);
  const std::uint64_t id = req.id;

  // Resolve the model NOW: the lease pins net + pack lifetime (not residency)
  // to this request, so a swap after this point still drains it on the
  // handle it was admitted under.
  req.handle = registry_->try_acquire(model_id);
  if (req.handle != nullptr) {
    // A malformed image throws before it is counted: a request the caller
    // never got an id for must not stay in `submitted` forever.
    const std::vector<std::int64_t>& want = req.handle->input_shape();
    TTFS_CHECK_MSG(req.image.rank() == 3 && req.image.dim(0) == want[0] &&
                       req.image.dim(1) == want[1] && req.image.dim(2) == want[2],
                   "request shape " << req.image.shape_str() << " does not match model '"
                                    << model_id << "' input");
  }
  // Counted before the push: once the request is queued the schedulers can
  // complete it, and a concurrent stats() snapshot must never see
  // completed > submitted.
  stats_.on_submit(model_id);
  if (req.handle == nullptr) {
    stats_.on_reject();
    resolve_refused(std::move(req), RequestStatus::kRejected);
    return id;
  }

  std::optional<PendingRequest> shed;
  switch (batcher_.push(req, &shed)) {
    case PushOutcome::kQueued:
      // Admitted — but under kShedOldest someone else may have paid for the
      // slot: resolve the evicted oldest request right here, never silently
      // drop it.
      if (shed.has_value()) {
        stats_.on_shed(shed->model_id);
        resolve_refused(std::move(*shed), RequestStatus::kShed);
      }
      break;
    case PushOutcome::kRejectedFull:
      stats_.on_reject_overload();
      resolve_refused(std::move(req), RequestStatus::kRejected);
      break;
    case PushOutcome::kClosed:
      // Shutdown already began: resolve immediately, never silently drop.
      stats_.on_reject();
      resolve_refused(std::move(req), RequestStatus::kRejected);
      break;
  }
  return id;
}

void SnnServer::resolve_refused(PendingRequest req, RequestStatus status) {
  ServeResult r;
  r.status = status;
  r.model_id = std::move(req.model_id);
  r.latency_seconds = seconds_since(req.enqueued);
  req.on_complete(std::move(r));
}

bool SnnServer::cancel(std::uint64_t id) {
  std::optional<PendingRequest> removed = batcher_.cancel(id);
  if (!removed.has_value()) return false;
  stats_.on_cancel();
  ServeResult r;
  r.status = RequestStatus::kCancelled;
  r.model_id = removed->model_id;
  r.latency_seconds = seconds_since(removed->enqueued);
  removed->on_complete(std::move(r));
  return true;
}

ServerStats SnnServer::stats() const {
  std::vector<bool> busy(busy_.size());
  for (std::size_t r = 0; r < busy.size(); ++r) {
    busy[r] = busy_[r].load(std::memory_order_acquire);
  }
  return stats_.snapshot(batcher_.depth(), busy, batcher_.depth_by_model());
}

void SnnServer::replica_loop(std::size_t r) {
  for (;;) {
    std::vector<PendingRequest> batch = batcher_.pop_batch();
    if (batch.empty()) return;  // closed and drained
    busy_[r].store(true, std::memory_order_release);
    run_batch(r, std::move(batch));
    busy_[r].store(false, std::memory_order_release);
  }
}

void SnnServer::run_batch(std::size_t r, std::vector<PendingRequest> batch) {
  stats_.on_batch(r, batch.front().model_id);
  // A batch is uniform in model id, but around a live swap one lane can hold
  // requests leased to the OLD handle followed by requests leased to the NEW
  // one (FIFO => the handles form contiguous runs). Each run executes on the
  // handle it was admitted under — that is the swap-drain contract.
  std::size_t begin = 0;
  while (begin < batch.size()) {
    std::size_t end = begin + 1;
    while (end < batch.size() && batch[end].handle == batch[begin].handle) ++end;
    run_segment(r, batch, begin, end);
    begin = end;
  }
}

void SnnServer::run_segment(std::size_t r, std::vector<PendingRequest>& batch, std::size_t begin,
                            std::size_t end) {
  const std::shared_ptr<const snn::ModelHandle>& handle = batch[begin].handle;
  std::size_t unresolved = begin;  // requests before it have their result
  try {
    // Warm + pin first: for the pin's lifetime the pack is resident and
    // cannot be evicted, so the session construction and run below never
    // build the pack behind the registry's accounting.
    const snn::ModelRegistry::RunPin pin = registry_->pin_for_run(handle);

    // Replica r's cached session for this model, rebuilt when the handle
    // changed (swap) or on first use. Only thread r touches bindings_[r].
    std::unordered_map<std::string, Bound>& slots = bindings_[r];
    auto bound = slots.find(handle->id());
    if (bound == slots.end() || bound->second.handle != handle) {
      // Built right before its first run, so no arena hints: run() grows the
      // arenas to the chunks the batch uses.
      snn::SessionOptions sopts;
      sopts.pool = opts_.pool;
      Bound fresh{handle, snn::InferenceSession{handle->net(), handle->backend_ptr(),
                                                std::move(sopts)}};
      bound = slots.insert_or_assign(handle->id(), std::move(fresh)).first;
    }

    // One backend-agnostic path: the session views request images where they
    // sit (no (N, C, H, W) assembly copy on the scheduler thread) and
    // simulates each into a recycled trace; every ServeResult field is read
    // off its request's trace.
    std::vector<const Tensor*> images;
    images.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) images.push_back(&batch[i].image);
    snn::RunOptions ropts;
    ropts.logits = false;
    ropts.traces = true;
    snn::RunResult run = bound->second.session.run(snn::BatchView{images}, ropts);

    // FIFO completion within the segment: requests resolve in submission
    // order, latency stamped at resolution.
    while (unresolved < end) {
      const std::size_t i = unresolved++;
      snn::EventTrace& trace = run.traces[i - begin];
      ServeResult res;
      res.status = RequestStatus::kOk;
      res.model_id = batch[i].model_id;
      res.logits = std::move(trace.logits);
      res.predicted = predicted_class(res.logits);
      res.stats = snn::stats_from_trace(handle->net(), trace);
      const double latency = seconds_since(batch[i].enqueued);
      res.latency_seconds = latency;
      stats_.on_complete(r, batch[i].model_id, latency);
      batch[i].on_complete(std::move(res));
    }
  } catch (...) {
    // A backend failure poisons the rest of the segment: every request in it
    // resolves kFailed instead of hanging. (Shape mismatches are caught at
    // submit, so this is the backend's own failure.)
    for (std::size_t i = unresolved; i < end; ++i) {
      stats_.on_fail(batch[i].model_id);
      ServeResult res;
      res.status = RequestStatus::kFailed;
      res.model_id = batch[i].model_id;
      res.latency_seconds = seconds_since(batch[i].enqueued);
      batch[i].on_complete(std::move(res));
    }
  }
}

}  // namespace ttfs::serve
