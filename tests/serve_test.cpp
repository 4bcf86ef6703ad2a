// Unit tests for the serving subsystem: MicroBatcher flush policy and
// SnnServer request lifecycle (serve / cancel / drain / reject) on both
// backends, including the zero-thread (inline) compute-pool mode.
//
// Determinism under many concurrent submitters is covered separately in
// serve_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "serve/batcher.h"
#include "serve/router.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Small conv/pool/fc stack on 3x8x8 inputs; cheap enough for TSan runs.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::int64_t n) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    images.push_back(random_tensor({3, 8, 8}, rng, 0.0F, 1.0F));
  }
  return images;
}

PendingRequest make_request(std::uint64_t id) {
  PendingRequest req;
  req.id = id;
  req.image = Tensor{{1}};
  req.enqueued = std::chrono::steady_clock::now();
  return req;
}

void expect_rows_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << what << " logit " << j;
  }
}

// --- MicroBatcher ---

TEST(MicroBatcher, FlushOnSizeBeatsDeadline) {
  MicroBatcher batcher{{4, microseconds{60'000'000}}};  // deadline effectively off
  for (std::uint64_t id = 1; id <= 4; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.pop_batch();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 4U);
  // Size-triggered: returns immediately, nowhere near the 60s deadline.
  EXPECT_LT(elapsed, std::chrono::seconds{10});
  batcher.close();
}

TEST(MicroBatcher, FlushOnDeadlineWithPartialBatch) {
  const microseconds delay{50'000};
  MicroBatcher batcher{{8, delay}};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.pop_batch();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 3U);  // flushed below max_batch
  // The oldest request was already ~0 old when pop started, so the wait is
  // the full max_delay (minus scheduling slop).
  EXPECT_GE(elapsed, milliseconds{35});
  batcher.close();
}

TEST(MicroBatcher, PopsFifo) {
  MicroBatcher batcher{{3, microseconds{1000}}};
  for (std::uint64_t id = 10; id < 16; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  const auto first = batcher.pop_batch();
  const auto second = batcher.pop_batch();
  ASSERT_EQ(first.size(), 3U);
  ASSERT_EQ(second.size(), 3U);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].id, 10U + i);
    EXPECT_EQ(second[i].id, 13U + i);
  }
  batcher.close();
}

TEST(MicroBatcher, CancelRemovesOnlyQueued) {
  MicroBatcher batcher{{8, microseconds{60'000'000}}};
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  auto removed = batcher.cancel(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2U);
  EXPECT_FALSE(batcher.cancel(2).has_value());   // already gone
  EXPECT_FALSE(batcher.cancel(99).has_value());  // never existed
  EXPECT_EQ(batcher.depth(), 2U);
  batcher.close();
  const auto batch = batcher.pop_batch();
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].id, 1U);
  EXPECT_EQ(batch[1].id, 3U);
}

TEST(MicroBatcher, CloseDrainsInSizeCappedBatchesThenEmpty) {
  MicroBatcher batcher{{8, microseconds{60'000'000}}};
  for (std::uint64_t id = 1; id <= 20; ++id) {
    auto req = make_request(id);
    ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
  }
  batcher.close();
  auto req = make_request(21);
  EXPECT_EQ(batcher.push(req), PushOutcome::kClosed);  // refused after close
  EXPECT_EQ(batcher.pop_batch().size(), 8U);
  EXPECT_EQ(batcher.pop_batch().size(), 8U);
  EXPECT_EQ(batcher.pop_batch().size(), 4U);
  EXPECT_TRUE(batcher.pop_batch().empty());  // drained: shutdown signal
  EXPECT_TRUE(batcher.pop_batch().empty());  // and stays that way
}

// --- ReplicaRouter ---

std::vector<PendingRequest> one_request_batch(std::uint64_t id) {
  std::vector<PendingRequest> batch;
  batch.push_back(make_request(id));
  return batch;
}

TEST(ReplicaRouter, HandsBatchesToAcquirersFifo) {
  ReplicaRouter router{2, 2};
  ASSERT_TRUE(router.dispatch(one_request_batch(1)));
  ASSERT_TRUE(router.dispatch(one_request_batch(2)));
  EXPECT_EQ(router.staged(), 2U);
  auto first = router.acquire(0);
  auto second = router.acquire(1);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->front().id, 1U);   // FIFO across the hand-off
  EXPECT_EQ(second->front().id, 2U);
  EXPECT_TRUE(router.busy(0));
  EXPECT_TRUE(router.busy(1));
  EXPECT_EQ(router.busy_count(), 2U);
  router.close();
  EXPECT_FALSE(router.acquire(0).has_value());  // drained: shutdown signal
  EXPECT_FALSE(router.busy(0));                 // acquiring clears busy first
  // Promises were never served in this unit test; resolve them so the
  // futures (none taken) don't report broken promises on destruction.
  first->front().promise.set_value(ServeResult{});
  second->front().promise.set_value(ServeResult{});
}

TEST(ReplicaRouter, CloseDrainsStagedBatchesBeforeShutdownSignal) {
  ReplicaRouter router{1, 4};
  ASSERT_TRUE(router.dispatch(one_request_batch(7)));
  router.close();
  EXPECT_FALSE(router.dispatch(one_request_batch(8)));  // refused after close
  auto staged = router.acquire(0);
  ASSERT_TRUE(staged.has_value());  // accepted work still flows out
  EXPECT_EQ(staged->front().id, 7U);
  EXPECT_FALSE(router.acquire(0).has_value());
  staged->front().promise.set_value(ServeResult{});
}

TEST(ReplicaRouter, FullHandOffBlocksDispatcherUntilAcquire) {
  ReplicaRouter router{1, 1};
  ASSERT_TRUE(router.dispatch(one_request_batch(1)));
  std::atomic<bool> dispatched{false};
  std::thread dispatcher{[&] {
    ASSERT_TRUE(router.dispatch(one_request_batch(2)));  // parks: hand-off full
    dispatched.store(true);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_FALSE(dispatched.load());  // still parked
  auto batch = router.acquire(0);   // frees the slot
  ASSERT_TRUE(batch.has_value());
  dispatcher.join();
  EXPECT_TRUE(dispatched.load());
  auto second = router.acquire(0);
  ASSERT_TRUE(second.has_value());
  router.close();
  batch->front().promise.set_value(ServeResult{});
  second->front().promise.set_value(ServeResult{});
}

// --- SnnServer ---

// Serves sequential round trips on the given backend and checks every result
// against that backend's sequential golden.
void serve_and_match(snn::BackendKind backend, ThreadPool* pool) {
  Rng rng{7};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 6);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  opts.backend = snn::make_backend(backend);
  opts.pool = pool;
  SnnServer server{net, {3, 8, 8}, opts};

  for (std::size_t i = 0; i < images.size(); ++i) {
    auto sub = server.submit(images[i]);
    ServeResult r = sub.result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    Tensor golden;
    if (backend == snn::BackendKind::kEventSim) {
      golden = snn::run_event_sim(net, images[i]).logits;
    } else {
      golden = net.forward(images[i].reshaped({1, 3, 8, 8}));
    }
    expect_rows_equal(r.logits, golden, "request " + std::to_string(i));
    EXPECT_GE(r.predicted, 0);
    EXPECT_LT(r.predicted, 10);
    EXPECT_GT(r.latency_seconds, 0.0);
    // Per-request stats: exactly this one image's activity.
    EXPECT_EQ(r.stats.images, 1);
    ASSERT_EQ(r.stats.spikes_per_layer.size(), net.weighted_layer_count());
    EXPECT_GT(r.stats.spikes_per_layer[0], 0);  // input encoding fires
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, images.size());
  EXPECT_EQ(stats.completed, images.size());
  EXPECT_EQ(stats.queue_depth, 0U);
}

TEST(SnnServer, ServesEventSimBackend) {
  serve_and_match(snn::BackendKind::kEventSim, nullptr);
}

TEST(SnnServer, ServesGemmBackend) { serve_and_match(snn::BackendKind::kGemm, nullptr); }

TEST(SnnServer, ZeroThreadPoolRunsInline) {
  ThreadPool inline_pool{0};
  serve_and_match(snn::BackendKind::kEventSim, &inline_pool);
  serve_and_match(snn::BackendKind::kGemm, &inline_pool);
}

// Replica-sharded round trips: every result must match the sequential golden
// whichever replica session served it, and the per-replica stats must tile
// the totals.
TEST(SnnServer, ReplicaShardedServesBitIdentical) {
  Rng rng{97};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 9);

  ServeOptions opts;
  opts.max_batch = 2;
  opts.max_delay = microseconds{200};
  opts.replicas = 3;
  SnnServer server{net, {3, 8, 8}, opts};
  EXPECT_EQ(server.replicas(), 3);

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ServeResult r = subs[i].result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, images.size());
  ASSERT_EQ(stats.replicas.size(), 3U);
  std::uint64_t completed = 0, batches = 0;
  for (const ReplicaStats& r : stats.replicas) {
    completed += r.completed;
    batches += r.batches;
    if (r.completed > 0) {
      EXPECT_GT(r.latency_p50_ms, 0.0);
    }
  }
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(batches, stats.batches_formed);
}

// A caller-defined backend: decorates a stock backend with a per-sample call
// counter. Proves ServeOptions::backend is genuine polymorphic injection — the
// server runs whatever realization it is handed, with results identical to
// the wrapped backend's own. A decorator forwards the four pack hooks, so it
// keeps whichever pack (float or quantized) the wrapped backend runs on.
class CountingBackend final : public snn::InferenceBackend {
 public:
  explicit CountingBackend(std::shared_ptr<const snn::InferenceBackend> inner)
      : inner_{std::move(inner)} {}

  std::string name() const override { return "counting"; }
  bool supports_traces() const override { return inner_->supports_traces(); }
  bool uses_arena() const override { return inner_->uses_arena(); }
  void ensure_ready(const snn::SnnNetwork& net) const override { inner_->ensure_ready(net); }
  bool has_resident_pack() const override { return inner_->has_resident_pack(); }
  std::size_t resident_pack_bytes(const snn::SnnNetwork& net) const override {
    return inner_->resident_pack_bytes(net);
  }
  void release_pack(const snn::SnnNetwork& net) const override { inner_->release_pack(net); }
  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, const snn::SampleSlots& slots) const override {
    samples_run_.fetch_add(1, std::memory_order_relaxed);
    inner_->run_sample(net, batch, i, arena, slots);
  }
  std::int64_t samples_run() const { return samples_run_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const snn::InferenceBackend> inner_;
  mutable std::atomic<std::int64_t> samples_run_{0};
};

TEST(SnnServer, InjectedCustomBackendServesRequests) {
  for (const snn::BackendKind kind : {snn::BackendKind::kEventSim, snn::BackendKind::kQuantized}) {
    SCOPED_TRACE(snn::to_string(kind));
    Rng rng{37};
    snn::SnnNetwork net = make_net(rng);
    if (kind == snn::BackendKind::kQuantized) {
      cat::log_quantize_network(net, cat::LogQuantConfig{});
    }
    const auto images = make_images(rng, 5);

    // Goldens from the wrapped backend alone, on its own session.
    const std::shared_ptr<const snn::InferenceBackend> inner = snn::make_backend(kind);
    std::vector<const Tensor*> gathered;
    for (const Tensor& img : images) gathered.push_back(&img);
    snn::RunOptions golden_opts;
    golden_opts.logits = false;
    golden_opts.logit_rows = true;
    snn::InferenceSession golden{net, inner};
    const snn::RunResult want = golden.run(snn::BatchView{gathered}, golden_opts);

    auto counting = std::make_shared<const CountingBackend>(inner);
    ServeOptions opts;
    opts.max_batch = 2;
    opts.max_delay = microseconds{500};
    opts.backend = counting;
    SnnServer server{net, {3, 8, 8}, opts};
    EXPECT_EQ(server.backend().name(), "counting");
    // The registry warmed the wrapped backend's pack through the forwarded
    // hooks; without them the decorator would default to "no pack".
    const std::size_t pack_bytes = inner->resident_pack_bytes(net);
    EXPECT_GT(pack_bytes, 0U);
    EXPECT_EQ(server.registry().stats().warm_bytes, pack_bytes);

    for (std::size_t i = 0; i < images.size(); ++i) {
      auto sub = server.submit(images[i]);
      ServeResult r = sub.result.get();
      ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
      expect_rows_equal(r.logits, want.logit_rows[i], "request " + std::to_string(i));
    }
    server.stop();
    EXPECT_EQ(counting->samples_run(), static_cast<std::int64_t>(images.size()));
  }
}

TEST(SnnServer, FifoCompletionWithinBatch) {
  Rng rng{11};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 4);

  ServeOptions opts;
  opts.max_batch = 4;                        // exactly one flush for 4 requests
  opts.max_delay = microseconds{60'000'000};  // deadline can't split them
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  // FIFO completion: once the last future of the batch resolves, every
  // earlier one must already be resolved.
  ServeResult last = subs.back().result.get();
  ASSERT_EQ(last.status, RequestStatus::kOk);
  for (std::size_t i = 0; i + 1 < subs.size(); ++i) {
    EXPECT_EQ(subs[i].result.wait_for(std::chrono::seconds{0}), std::future_status::ready)
        << "request " << i << " not resolved before the batch tail";
    ServeResult r = subs[i].result.get();
    EXPECT_EQ(r.status, RequestStatus::kOk);
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_formed, 1U);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 4.0);
}

TEST(SnnServer, CancelBeforeBatchFormation) {
  Rng rng{13};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  ServeOptions opts;
  opts.max_batch = 8;                     // a single request never size-flushes
  opts.max_delay = microseconds{2'000'000};  // and won't deadline-flush soon
  SnnServer server{net, {3, 8, 8}, opts};

  auto sub = server.submit(images[0]);
  EXPECT_TRUE(server.cancel(sub.id));
  EXPECT_FALSE(server.cancel(sub.id));  // second cancel finds nothing
  ServeResult r = sub.result.get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_TRUE(r.logits.empty());
  EXPECT_EQ(r.predicted, -1);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1U);
  EXPECT_EQ(stats.completed, 0U);
}

TEST(SnnServer, CancelAfterCompletionFails) {
  Rng rng{17};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  ServeOptions opts;
  opts.max_batch = 1;  // flushes the moment it is queued
  SnnServer server{net, {3, 8, 8}, opts};

  auto sub = server.submit(images[0]);
  ServeResult r = sub.result.get();  // batch formed and served
  ASSERT_EQ(r.status, RequestStatus::kOk);
  EXPECT_FALSE(server.cancel(sub.id));
  server.stop();
}

TEST(SnnServer, ShutdownDrainsPendingRequests) {
  Rng rng{19};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 5);

  ServeOptions opts;
  opts.max_batch = 64;                        // nothing size-flushes
  opts.max_delay = microseconds{60'000'000};  // nothing deadline-flushes
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  const auto start = std::chrono::steady_clock::now();
  server.stop();  // must drain all 5, not wait out the 60s deadline
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{30});
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ServeResult r = subs[i].result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, images.size());
  EXPECT_EQ(stats.queue_depth, 0U);
}

TEST(SnnServer, RejectsAfterStop) {
  Rng rng{23};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);

  SnnServer server{net, {3, 8, 8}, {}};
  server.stop();
  auto sub = server.submit(images[0]);
  ASSERT_EQ(sub.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ServeResult r = sub.result.get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(server.stats().rejected, 1U);
}

TEST(SnnServer, RejectsWrongShape) {
  Rng rng{29};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{net, {3, 8, 8}, {}};
  EXPECT_THROW(server.submit(Tensor{{3, 4, 4}}), std::invalid_argument);
  EXPECT_THROW(server.submit(Tensor{{3 * 8 * 8}}), std::invalid_argument);
  server.stop();
}

TEST(SnnServer, StatsSnapshotIsConsistent) {
  Rng rng{31};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 8);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  SnnServer server{net, {3, 8, 8}, opts};
  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(img));
  for (auto& sub : subs) ASSERT_EQ(sub.result.get().status, RequestStatus::kOk);
  server.stop();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 8U);
  EXPECT_EQ(stats.completed, 8U);
  EXPECT_GE(stats.batches_formed, 1U);
  EXPECT_LE(stats.batches_formed, 8U);
  EXPECT_GT(stats.mean_batch_size, 0.0);
  EXPECT_LE(stats.mean_batch_size, 4.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_FALSE(stats.describe().empty());
}

}  // namespace
}  // namespace ttfs::serve
