// Unit tests for the serving subsystem: MicroBatcher flush policy and
// SnnServer request lifecycle (serve / cancel / drain / reject), including
// the zero-thread (inline) compute-pool mode.
//
// Determinism under many concurrent submitters is covered separately in
// serve_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "serve_test_util.h"

namespace ttfs::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

using test::GatedBackend;
using test::kModel;
using test::make_images;
using test::make_net;
using test::one_model;
using test::ThrowingBackend;

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

// Several consumers pop concurrently while producers push across model
// lanes — the server's shape, with its replica threads as the consumers.
// Each request's id is its position in its lane's push order (a per-lane
// test mutex makes that the lane's FIFO order), so per-lane FIFO shows up as
// every batch being a contiguous ascending run of its lane's ids.
TEST(MicroBatcher, ConcurrentConsumersPopEachRequestOnceFifoPerLane) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 3;
  constexpr std::size_t kLanes = 3;
  constexpr int kPerProducer = 300;
  constexpr std::int64_t kMaxBatch = 4;
  MicroBatcher batcher{{kMaxBatch, microseconds{200}}};

  std::mutex lane_mu[kLanes];
  std::uint64_t lane_pushed[kLanes] = {};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t lane = static_cast<std::size_t>(p + i) % kLanes;
        const std::lock_guard<std::mutex> lock{lane_mu[lane]};
        PendingRequest req = make_request(lane_pushed[lane]++);
        req.model_id = std::to_string(lane);
        ASSERT_EQ(batcher.push(req), PushOutcome::kQueued);
      }
    });
  }

  struct Popped {
    std::size_t lane = 0;
    std::vector<std::uint64_t> ids;
  };
  std::mutex popped_mu;
  std::vector<Popped> popped;
  std::atomic<int> shutdown_signals{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::vector<PendingRequest> batch = batcher.pop_batch();
        if (batch.empty()) {
          shutdown_signals.fetch_add(1);
          return;
        }
        Popped got;
        got.lane = std::stoul(batch.front().model_id);
        for (const PendingRequest& req : batch) {
          EXPECT_EQ(req.model_id, batch.front().model_id) << "batch mixes models";
          got.ids.push_back(req.id);
        }
        const std::lock_guard<std::mutex> lock{popped_mu};
        popped.push_back(std::move(got));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  batcher.close();
  for (std::thread& t : consumers) t.join();
  // close() reaches every consumer: each one gets the empty shutdown batch.
  EXPECT_EQ(shutdown_signals.load(), kConsumers);
  EXPECT_EQ(batcher.depth(), 0U);

  std::vector<std::vector<int>> times_popped(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) times_popped[lane].resize(lane_pushed[lane]);
  for (const Popped& batch : popped) {
    ASSERT_LT(batch.lane, kLanes);
    EXPECT_LE(batch.ids.size(), static_cast<std::size_t>(kMaxBatch));
    for (std::size_t k = 0; k < batch.ids.size(); ++k) {
      if (k > 0) {
        EXPECT_EQ(batch.ids[k], batch.ids[k - 1] + 1) << "lane " << batch.lane << " out of FIFO";
      }
      ASSERT_LT(batch.ids[k], lane_pushed[batch.lane]);
      ++times_popped[batch.lane][batch.ids[k]];
    }
  }
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t id = 0; id < times_popped[lane].size(); ++id) {
      EXPECT_EQ(times_popped[lane][id], 1) << "lane " << lane << " request " << id;
    }
  }
}

// --- SnnServer ---

// Serves sequential round trips on the event backend and checks every result
// against run_event_sim's sequential golden.
void serve_and_match(ThreadPool* pool) {
  Rng rng{7};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 6);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  opts.pool = pool;
  SnnServer server{one_model(net, opts)};

  for (std::size_t i = 0; i < images.size(); ++i) {
    auto sub = server.submit(kModel, images[i]);
    ServeResult r = sub.result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, snn::run_event_sim(net, images[i]).logits,
                      "request " + std::to_string(i));
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

TEST(SnnServer, ServesEventSimBackend) { serve_and_match(nullptr); }

TEST(SnnServer, ZeroThreadPoolRunsInline) {
  ThreadPool inline_pool{0};
  serve_and_match(&inline_pool);
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
  SnnServer server{one_model(net, opts)};
  EXPECT_EQ(server.replicas(), 3);

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(kModel, img));
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

// Counts samples run. Proves a registered backend is genuine polymorphic
// injection — the server runs whatever realization it is handed, with
// results identical to the wrapped backend's own.
class CountingBackend final : public test::ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

  std::string name() const override { return "counting"; }
  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, snn::EventTrace& into) const override {
    samples_run_.fetch_add(1, std::memory_order_relaxed);
    ForwardingBackend::run_sample(net, batch, i, arena, into);
  }
  std::int64_t samples_run() const { return samples_run_.load(std::memory_order_relaxed); }

 private:
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
    golden_opts.traces = true;
    snn::InferenceSession golden{net, inner};
    const snn::RunResult want = golden.run(snn::BatchView{gathered}, golden_opts);

    auto counting = std::make_shared<const CountingBackend>(inner);
    ServeOptions opts;
    opts.max_batch = 2;
    opts.max_delay = microseconds{500};
    SnnServer server{one_model(net, opts, counting)};
    EXPECT_EQ(server.registry().acquire(kModel)->backend().name(), "counting");
    // The registry warmed the wrapped backend's pack through the forwarded
    // hooks; without them the decorator would default to "no pack".
    const std::size_t pack_bytes = inner->resident_pack_bytes(net);
    EXPECT_GT(pack_bytes, 0U);
    EXPECT_EQ(server.registry().stats().warm_bytes, pack_bytes);

    for (std::size_t i = 0; i < images.size(); ++i) {
      auto sub = server.submit(kModel, images[i]);
      ServeResult r = sub.result.get();
      ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
      expect_rows_equal(r.logits, want.traces[i].logits, "request " + std::to_string(i));
    }
    server.stop();
    EXPECT_EQ(counting->samples_run(), static_cast<std::int64_t>(images.size()));
  }
}

// A served request's record is read off its own trace: logits, argmax and
// per-layer counts equal those of a direct traced session run on the same
// image, on the float and the fixed-point backend alike.
TEST(SnnServer, PerRequestRecordMatchesDirectTrace) {
  for (const snn::BackendKind kind : {snn::BackendKind::kEventSim, snn::BackendKind::kQuantized}) {
    SCOPED_TRACE(snn::to_string(kind));
    Rng rng{53};
    snn::SnnNetwork net = make_net(rng);
    if (kind == snn::BackendKind::kQuantized) {
      cat::log_quantize_network(net, cat::LogQuantConfig{});
    }
    const auto images = make_images(rng, 5);

    const std::shared_ptr<const snn::InferenceBackend> backend = snn::make_backend(kind);
    std::vector<const Tensor*> gathered;
    for (const Tensor& img : images) gathered.push_back(&img);
    snn::RunOptions direct_opts;
    direct_opts.logits = false;
    direct_opts.traces = true;
    snn::InferenceSession direct{net, backend};
    const snn::RunResult want = direct.run(snn::BatchView{gathered}, direct_opts);

    ServeOptions opts;
    opts.max_batch = 2;
    opts.max_delay = microseconds{500};
    SnnServer server{one_model(net, opts, backend)};
    std::vector<SnnServer::Submission> subs;
    for (const Tensor& img : images) subs.push_back(server.submit(kModel, img));
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const std::string what = "request " + std::to_string(i);
      const ServeResult r = subs[i].result.get();
      ASSERT_EQ(r.status, RequestStatus::kOk) << what;
      const snn::SnnRunStats expected = snn::stats_from_trace(net, want.traces[i]);
      EXPECT_EQ(r.stats.images, 1) << what;
      EXPECT_EQ(r.stats.spikes_per_layer, expected.spikes_per_layer) << what;
      EXPECT_EQ(r.stats.neurons_per_layer, expected.neurons_per_layer) << what;
      EXPECT_EQ(r.predicted, predicted_class(want.traces[i].logits)) << what;
      expect_rows_equal(r.logits, want.traces[i].logits, what);
    }
    server.stop();
  }
}

// With R = 1 and the only replica held inside a batch, the next request
// must wait in its lane: no batch forms ahead of a free replica, so the
// request counts in queue_depth and can still be cancelled.
TEST(SnnServer, WaitingWorkStaysQueuedWhileReplicaIsBusy) {
  Rng rng{41};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 2);

  auto gated = std::make_shared<const GatedBackend>(snn::make_backend(snn::BackendKind::kEventSim));
  ServeOptions opts;
  opts.max_batch = 1;  // every request is a ready batch the moment it queues
  SnnServer server{one_model(net, opts, gated)};
  // Opens the gate before the server's destructor joins the replica, so a
  // failed assertion below ends the test instead of hanging it.
  const struct OpenGateOnExit {
    const GatedBackend& gate;
    ~OpenGateOnExit() { gate.release(); }
  } open_gate_on_exit{*gated};

  auto running = server.submit(kModel, images[0]);
  gated->wait_entered();
  EXPECT_TRUE(server.stats().replicas[0].busy);

  auto waiting = server.submit(kModel, images[1]);
  // Staying queued is a negative property, so it is watched over a window:
  // a consumer that forms batches ahead of a free replica takes the request
  // within microseconds, long before 20 ms are up.
  const auto window_end = std::chrono::steady_clock::now() + milliseconds{20};
  while (std::chrono::steady_clock::now() < window_end) {
    ASSERT_EQ(server.stats().queue_depth, 1U);
    std::this_thread::yield();
  }
  EXPECT_TRUE(server.cancel(waiting.id));
  EXPECT_EQ(waiting.result.get().status, RequestStatus::kCancelled);

  gated->release();
  ServeResult r = running.result.get();
  ASSERT_EQ(r.status, RequestStatus::kOk);
  expect_rows_equal(r.logits, snn::run_event_sim(net, images[0]).logits, "gated request");
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_FALSE(stats.replicas[0].busy);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.cancelled, 1U);
}

// A backend that throws fails the whole segment — future and callback
// consumers alike resolve kFailed — and the replica then serves the next
// request normally, bit-identical to a direct session run.
TEST(SnnServer, BackendFailureFailsSegmentAndReplicaRecovers) {
  Rng rng{43};
  const snn::SnnNetwork net = make_net(rng);
  auto images = make_images(rng, 4);
  images[1][0] = -1.0F;  // the poisoned sample

  const std::shared_ptr<const snn::InferenceBackend> inner =
      snn::make_backend(snn::BackendKind::kEventSim);
  ServeOptions opts;
  opts.max_batch = 3;                         // the first three form one batch
  opts.max_delay = microseconds{60'000'000};  // and the deadline can't split them
  SnnServer server{one_model(net, opts, std::make_shared<const ThrowingBackend>(inner))};

  std::promise<ServeResult> async_result;
  auto first = server.submit(kModel, images[0]);
  auto poisoned = server.submit(kModel, images[1]);
  server.submit_async(kModel, images[2],
                      [&async_result](ServeResult r) { async_result.set_value(std::move(r)); });
  for (ServeResult r : {first.result.get(), poisoned.result.get(),
                        async_result.get_future().get()}) {
    EXPECT_EQ(r.status, RequestStatus::kFailed);
    EXPECT_EQ(r.model_id, kModel);
    EXPECT_TRUE(r.logits.empty());
    EXPECT_EQ(r.predicted, -1);
  }

  // The one replica's next batch: clean samples, served as usual.
  const std::vector<const Tensor*> clean{&images[0], &images[2], &images[3]};
  snn::RunOptions golden_opts;
  golden_opts.logits = false;
  golden_opts.traces = true;
  snn::InferenceSession golden{net, inner};
  const snn::RunResult want = golden.run(snn::BatchView{clean}, golden_opts);
  std::vector<SnnServer::Submission> subs;
  for (const Tensor* img : clean) subs.push_back(server.submit(kModel, *img));
  for (std::size_t i = 0; i < subs.size(); ++i) {
    ServeResult r = subs[i].result.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, want.traces[i].logits, "request " + std::to_string(i));
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, clean.size());
  EXPECT_EQ(stats.failed, 3U);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled + stats.rejected +
                                 stats.rejected_overload + stats.shed);
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].failed, 3U);
  EXPECT_NE(stats.describe().find("3 failed"), std::string::npos) << stats.describe();
  EXPECT_EQ(stats.replicas[0].batches, 2U);
}

TEST(SnnServer, FifoCompletionWithinBatch) {
  Rng rng{11};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 4);

  ServeOptions opts;
  opts.max_batch = 4;                        // exactly one flush for 4 requests
  opts.max_delay = microseconds{60'000'000};  // deadline can't split them
  SnnServer server{one_model(net, opts)};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(kModel, img));
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
  SnnServer server{one_model(net, opts)};

  auto sub = server.submit(kModel, images[0]);
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
  SnnServer server{one_model(net, opts)};

  auto sub = server.submit(kModel, images[0]);
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
  SnnServer server{one_model(net, opts)};

  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(kModel, img));
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

  SnnServer server{one_model(net)};
  server.stop();
  auto sub = server.submit(kModel, images[0]);
  ASSERT_EQ(sub.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ServeResult r = sub.result.get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(server.stats().rejected, 1U);
}

// A submit that throws on a mismatched shape never entered the server: it
// is not counted in `submitted`, its callback never runs, and the ledger
// still balances.
TEST(SnnServer, RejectsWrongShape) {
  Rng rng{29};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 1);
  SnnServer server{one_model(net)};
  EXPECT_THROW(server.submit(kModel, Tensor{{3, 4, 4}}), std::invalid_argument);
  bool called = false;
  EXPECT_THROW(server.submit_async(kModel, Tensor{{3 * 8 * 8}},
                                   [&called](ServeResult) { called = true; }),
               std::invalid_argument);
  EXPECT_EQ(server.stats().submitted, 0U);
  EXPECT_EQ(server.submit(kModel, images[0]).result.get().status, RequestStatus::kOk);
  server.stop();
  EXPECT_FALSE(called);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1U);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled + stats.rejected +
                                 stats.rejected_overload + stats.shed);
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].submitted, 1U);
}

TEST(SnnServer, StatsSnapshotIsConsistent) {
  Rng rng{31};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, 8);

  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = microseconds{500};
  SnnServer server{one_model(net, opts)};
  std::vector<SnnServer::Submission> subs;
  for (const Tensor& img : images) subs.push_back(server.submit(kModel, img));
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
