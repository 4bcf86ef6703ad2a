#include "snn/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <variant>

#include "snn/event_sim_reference.h"
#include "util/check.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ttfs::snn {

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kEventSim: return "event";
    case BackendKind::kReference: return "reference";
    case BackendKind::kQuantized: return "quantized";
  }
  return "unknown";
}

BackendKind backend_kind_from_string(const std::string& name) {
  if (name == "event") return BackendKind::kEventSim;
  if (name == "reference") return BackendKind::kReference;
  if (name == "quantized") return BackendKind::kQuantized;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (want event|reference|quantized)");
}

namespace {

// The process-wide bin RunResult hands its traces back to (engine.h). It
// keeps at most cap_ traces, the largest traced batch taken so far, and its
// free list is reserved to that cap under the lock, so give() never grows
// it. One bin rather than one per session: a session's full bin would
// otherwise stay resident while another session runs.
class TraceBin {
 public:
  // Refills `traces` with n traces, recycled ones first.
  void take(std::vector<EventTrace>& traces, std::size_t n) {
    traces.reserve(n);
    const util::MutexLock lock{mu_};
    if (n > cap_) {
      cap_ = n;
      free_.reserve(cap_);
    }
    while (traces.size() < n && !free_.empty()) {
      traces.push_back(std::move(free_.back()));
      free_.pop_back();
    }
    traces.resize(n);
  }

  // Keeps as many of `traces` as fit under the cap; the rest are freed.
  // Pushed last to first, so the next take() hands trace i back to slot i,
  // whose sample is likeliest to fit its capacity.
  void give(std::vector<EventTrace>& traces) noexcept {
    {
      const util::MutexLock lock{mu_};
      for (auto it = traces.rbegin(); it != traces.rend() && free_.size() < cap_; ++it) {
        free_.push_back(std::move(*it));
      }
    }
    traces.clear();
  }

 private:
  util::Mutex mu_;
  std::vector<EventTrace> free_ TTFS_GUARDED_BY(mu_);
  std::size_t cap_ TTFS_GUARDED_BY(mu_) = 0;
};

// Never destroyed, so it outlives every RunResult, static ones included.
TraceBin& trace_bin() {
  static TraceBin* const bin = new TraceBin;
  return *bin;
}

}  // namespace

RecycledTraces& RecycledTraces::operator=(RecycledTraces&& other) noexcept {
  if (this != &other) {
    if (!empty()) trace_bin().give(*this);
    std::vector<EventTrace>::operator=(std::move(other));
  }
  return *this;
}

RecycledTraces::~RecycledTraces() {
  if (!empty()) trace_bin().give(*this);
}

BatchView::BatchView(const Tensor& batch) {
  TTFS_CHECK_MSG(batch.rank() == 4 || batch.rank() == 2,
                 "batch must be (N, C, H, W) or (N, features), got " << batch.shape_str());
  n_ = batch.dim(0);
  sample_shape_.assign(batch.shape().begin() + 1, batch.shape().end());
  sample_numel_ = shape_numel(sample_shape_);
  base_ = batch.data();
}

BatchView::BatchView(const std::vector<const Tensor*>& samples) : gathered_{samples} {
  n_ = static_cast<std::int64_t>(samples.size());
  bool first = true;
  for (const Tensor* img : samples) {
    TTFS_CHECK_MSG(img != nullptr && img->rank() == 3, "gathered samples must be (C, H, W)");
    if (first) {
      sample_shape_ = img->shape();
      first = false;
    } else {
      TTFS_CHECK_MSG(img->shape() == sample_shape_, "batch mixes sample shapes");
    }
  }
  sample_numel_ = shape_numel(sample_shape_);
}

const float* BatchView::sample(std::int64_t i) const {
  TTFS_DCHECK(i >= 0 && i < n_);
  if (base_ != nullptr) return base_ + i * sample_numel_;
  return gathered_[static_cast<std::size_t>(i)]->data();
}

namespace {

// (C, H, W) of a sample for the event-style backends; rank-2 batches map a
// feature row onto (features, 1, 1), which the simulators treat identically.
void sample_chw(const BatchView& batch, std::int64_t& c, std::int64_t& h, std::int64_t& w) {
  const auto& shape = batch.sample_shape();
  if (shape.size() == 3) {
    c = shape[0];
    h = shape[1];
    w = shape[2];
  } else {
    TTFS_CHECK_MSG(shape.size() == 1, "event backends need (C, H, W) or (features) samples");
    c = shape[0];
    h = 1;
    w = 1;
  }
}

}  // namespace

SnnRunStats stats_from_trace(const SnnNetwork& net, const EventTrace& trace) {
  SnnRunStats s;
  s.images = 1;
  const std::size_t weighted = net.weighted_layer_count();
  s.spikes_per_layer.reserve(weighted);
  s.neurons_per_layer.reserve(weighted);
  const auto add = [&s](const LayerEventTrace& lt) {
    s.spikes_per_layer.push_back(static_cast<std::int64_t>(lt.spikes.size()));
    s.neurons_per_layer.push_back(lt.neuron_count);
  };
  add(trace.layers[0]);  // input encoding
  // trace.layers[ti] corresponds to net.layers()[ti - 1]; the output layer
  // never fires so the trace runs out exactly at the final weighted layer.
  std::size_t ti = 1;
  for (const auto& layer : net.layers()) {
    if (ti >= trace.layers.size()) break;
    if (std::holds_alternative<SnnPool>(layer)) {
      ++ti;
      continue;
    }
    add(trace.layers[ti++]);
  }
  return s;
}

void EventSimBackend::run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i,
                                 SimArena& arena, EventTrace& into) const {
  std::int64_t c, h, w;
  sample_chw(batch, c, h, w);
  detail::run_event_sim_span(net, batch.sample(i), c, h, w, arena, into);
}

void QuantizedEventSimBackend::run_sample(const SnnNetwork& net, const BatchView& batch,
                                          std::int64_t i, SimArena& arena,
                                          EventTrace& into) const {
  std::int64_t c, h, w;
  sample_chw(batch, c, h, w);
  detail::run_quantized_event_sim_span(net, batch.sample(i), c, h, w, arena, into);
}

void ReferenceBackend::run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i,
                                  SimArena& /*arena*/, EventTrace& into) const {
  std::int64_t c, h, w;
  sample_chw(batch, c, h, w);
  const float* span = batch.sample(i);
  const Tensor img{{c, h, w}, std::vector<float>(span, span + batch.sample_numel())};
  into = reference::run_event_sim(net, img);
}

std::shared_ptr<const InferenceBackend> make_backend(BackendKind kind) {
  // One shared instance per kind: backends are stateless const objects.
  static const auto event = std::make_shared<const EventSimBackend>();
  static const auto reference = std::make_shared<const ReferenceBackend>();
  static const auto quantized = std::make_shared<const QuantizedEventSimBackend>();
  switch (kind) {
    case BackendKind::kEventSim: return event;
    case BackendKind::kReference: return reference;
    case BackendKind::kQuantized: return quantized;
  }
  TTFS_CHECK_MSG(false, "unknown BackendKind");
  return nullptr;
}

InferenceSession::InferenceSession(const SnnNetwork& net,
                                   std::shared_ptr<const InferenceBackend> backend,
                                   SessionOptions opts)
    : net_{&net},
      backend_{std::move(backend)},
      pool_{opts.pool != nullptr ? opts.pool : &global_pool()} {
  TTFS_CHECK_MSG(backend_ != nullptr, "InferenceSession needs a backend");
  // Build the backend's weight pack (if it reads one) while the session is
  // being constructed — typically a single-threaded moment — so runs fan
  // workers out over a read-only net.
  backend_->ensure_ready(*net_);
  if (opts.max_batch_hint > 0 && opts.input_shape.size() == 3) {
    // Sized from the pool's worker count directly, not max_chunks(): that
    // helper returns 1 when called *from* a pool worker thread, but runs may
    // later be launched from any non-worker thread, which can use up to
    // min(max_batch, workers) chunks.
    const std::int64_t workers = std::max<std::int64_t>(1, pool_->size());
    arenas_.resize(
        static_cast<std::size_t>(std::min<std::int64_t>(opts.max_batch_hint, workers)));
    for (SimArena& arena : arenas_) {
      arena.reserve_for(*net_, opts.input_shape[0], opts.input_shape[1], opts.input_shape[2]);
    }
  }
}

RunResult InferenceSession::run(const BatchView& batch, const RunOptions& opts) {
  // Rebuilds the backend's pack if the caller mutated layers between runs.
  backend_->ensure_ready(*net_);
  const std::int64_t n = batch.size();

  RunResult out;
  std::vector<Tensor> rows;
  if (opts.logits) rows.resize(static_cast<std::size_t>(n));
  if (opts.traces) trace_bin().take(out.traces, static_cast<std::size_t>(n));

  // One arena per pool chunk, grown on demand and reused run after run, so
  // every worker keeps its own scratch across its whole sample range with no
  // steady-state allocation.
  const std::size_t chunks = std::max<std::size_t>(1, pool_->max_chunks(0, n));
  while (arenas_.size() < chunks) {
    arenas_.emplace_back();
    if (batch.sample_shape().size() == 3) {
      arenas_.back().reserve_for(*net_, batch.sample_shape()[0], batch.sample_shape()[1],
                                 batch.sample_shape()[2]);
    }
  }
  // Spike-parallel fallback: a single chunk means sample-parallelism
  // starves (batch of 1 on a multi-worker pool), so let the lone arena
  // split large layers' disjoint output ranges across the pool instead.
  // Bit-identical either way (see simd.h); cleared when samples fan out so
  // nested fan-outs never compete for workers.
  arenas_[0].set_intra_pool(chunks <= 1 && pool_->size() > 1 ? pool_ : nullptr);

  pool_->parallel_for_indexed(0, n, [&](std::size_t chunk, std::int64_t lo, std::int64_t hi) {
    SimArena& arena = arenas_[chunk];
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      EventTrace& trace = opts.traces ? out.traces[idx] : arena.trace();
      backend_->run_sample(*net_, batch, i, arena, trace);
      // A kept trace keeps its logits, so the row is a copy; otherwise the
      // row steals the scratch trace's tensor.
      if (opts.logits) rows[idx] = opts.traces ? trace.logits : std::move(trace.logits);
    }
  });

  if (opts.logits) {
    // Merge rows in sample order: row i is sample i's logits verbatim.
    const std::int64_t classes = n == 0 ? 0 : rows[0].numel();
    out.logits = Tensor{{n, classes}};
    for (std::int64_t i = 0; i < n; ++i) {
      const Tensor& row = rows[static_cast<std::size_t>(i)];
      TTFS_CHECK(row.numel() == classes);
      std::copy(row.data(), row.data() + classes, out.logits.data() + i * classes);
    }
  }
  return out;
}

InferenceSession Engine::session(BackendKind kind, SessionOptions opts) const {
  return InferenceSession{*net_, make_backend(kind), std::move(opts)};
}

InferenceSession Engine::session(std::shared_ptr<const InferenceBackend> backend,
                                 SessionOptions opts) const {
  return InferenceSession{*net_, std::move(backend), std::move(opts)};
}

}  // namespace ttfs::snn
