// Concurrency stress tests for SnnServer: many submitter threads race against
// the replica schedulers popping batches and the compute pool, and every
// returned logit vector must still be bit-identical to a sequential golden
// on the same input — batching composition, replica placement, arena
// reuse and thread interleaving must never leak into results. The event
// backend is exercised at replica counts 1, 2 and 4 so sharding is covered by
// the same goldens as the single-replica path, and a bounded queue is
// flooded from every submitter at once. This suite (with serve_test,
// serve_admission_test and the thread-pool suites) runs under the
// ThreadSanitizer CI lane.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "serve/stats.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "serve_test_util.h"

namespace ttfs::serve {
namespace {

constexpr std::int64_t kThreads = 4;       // submitter threads
constexpr std::int64_t kPerThread = 12;    // requests per submitter
constexpr std::int64_t kTotal = kThreads * kPerThread;

using test::kModel;
using test::make_images;
using test::make_net;
using test::one_model;

void expect_rows_equal(const Tensor& got, const float* want, std::int64_t classes,
                       std::int64_t request) {
  ASSERT_EQ(got.numel(), classes) << "request " << request;
  for (std::int64_t j = 0; j < classes; ++j) {
    EXPECT_EQ(got[j], want[j]) << "request " << request << " logit " << j;
  }
}

// N threads hammer submit() while `replicas` scheduler threads race to pop
// whatever batch mix the interleaving produces; each future's logits must
// equal the sequential golden of its own input bit for bit, whichever
// replica served it.
void stress_event_sim(std::int64_t replicas) {
  Rng rng{101};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, kTotal);

  // Sequential goldens, computed before the server exists: run_event_sim per
  // image.
  Tensor goldens{{kTotal, 10}};
  for (std::int64_t i = 0; i < kTotal; ++i) {
    const Tensor row = snn::run_event_sim(net, images[static_cast<std::size_t>(i)]).logits;
    ASSERT_EQ(row.numel(), 10);
    std::copy(row.data(), row.data() + 10, goldens.data() + i * 10);
  }

  ThreadPool compute_pool{2};
  ServeOptions opts;
  opts.max_batch = 8;
  opts.max_delay = std::chrono::microseconds{300};
  opts.replicas = replicas;
  opts.pool = &compute_pool;
  SnnServer server{one_model(net, opts)};
  ASSERT_EQ(server.replicas(), replicas);

  std::vector<std::future<ServeResult>> futures(static_cast<std::size_t>(kTotal));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::int64_t j = 0; j < kPerThread; ++j) {
        const std::int64_t i = t * kPerThread + j;
        futures[static_cast<std::size_t>(i)] =
            server.submit(kModel, images[static_cast<std::size_t>(i)]).result;
      }
    });
  }
  for (auto& th : submitters) th.join();

  for (std::int64_t i = 0; i < kTotal; ++i) {
    ServeResult r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, goldens.data() + i * 10, 10, i);
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kTotal));
  EXPECT_GE(stats.batches_formed, static_cast<std::uint64_t>(kTotal / opts.max_batch));
  EXPECT_GE(stats.mean_batch_size, 1.0);
  // Per-replica accounting must tile the totals exactly, whatever the split.
  ASSERT_EQ(stats.replicas.size(), static_cast<std::size_t>(replicas));
  std::uint64_t replica_batches = 0;
  std::uint64_t replica_completed = 0;
  for (const ReplicaStats& r : stats.replicas) {
    replica_batches += r.batches;
    replica_completed += r.completed;
    EXPECT_FALSE(r.busy);  // stopped: nothing can still be running
  }
  EXPECT_EQ(replica_batches, stats.batches_formed);
  EXPECT_EQ(replica_completed, stats.completed);
}

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR1) { stress_event_sim(1); }

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR2) { stress_event_sim(2); }

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR4) { stress_event_sim(4); }

// A bounded queue under many submitters while the replicas are held at a
// gate: at most one batch per replica plus `queue_capacity` requests get in,
// every other submit is refused at the door, and once the gate opens every
// admitted request is served bit-exact. The counters match what the callers
// saw, request for request.
TEST(ServeStress, RejectAdmissionUnderConcurrentOverload) {
  Rng rng{404};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, kTotal);
  Tensor goldens{{kTotal, 10}};
  for (std::int64_t i = 0; i < kTotal; ++i) {
    const Tensor row = snn::run_event_sim(net, images[static_cast<std::size_t>(i)]).logits;
    std::copy(row.data(), row.data() + 10, goldens.data() + i * 10);
  }

  auto gated = std::make_shared<const test::GatedBackend>(
      snn::make_backend(snn::BackendKind::kEventSim));
  ThreadPool compute_pool{2};
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds{200};
  opts.replicas = 2;
  opts.queue_capacity = 3;  // far below the offered burst
  opts.pool = &compute_pool;
  SnnServer server{one_model(net, opts, gated)};
  const test::OpenGateOnExit open_gate_on_exit{*gated};

  std::vector<std::future<ServeResult>> futures(static_cast<std::size_t>(kTotal));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::int64_t j = 0; j < kPerThread; ++j) {
        const std::int64_t i = t * kPerThread + j;
        futures[static_cast<std::size_t>(i)] =
            server.submit(kModel, images[static_cast<std::size_t>(i)]).result;
      }
    });
  }
  for (auto& th : submitters) th.join();
  gated->release();

  std::uint64_t served = 0;
  std::uint64_t refused = 0;
  for (std::int64_t i = 0; i < kTotal; ++i) {
    ServeResult r = futures[static_cast<std::size_t>(i)].get();
    if (r.status == RequestStatus::kRejected) {
      EXPECT_TRUE(r.logits.empty()) << "request " << i;
      ++refused;
      continue;
    }
    ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
    expect_rows_equal(r.logits, goldens.data() + i * 10, 10, i);
    ++served;
  }
  server.stop();
  const ServerStats stats = server.stats();
  const auto admitted_at_most =
      static_cast<std::uint64_t>(opts.replicas * opts.max_batch) + opts.queue_capacity;
  EXPECT_GE(served, opts.queue_capacity);  // the first pushes find room
  EXPECT_LE(served, admitted_at_most);
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.rejected_overload, refused);
  EXPECT_EQ(stats.rejected, 0U);
  test::expect_ledger_balances(stats);
}

// StatsCollector::snapshot takes the stats mutex exactly once for the whole
// read, so the global counters, the per-replica slots, and the per-model
// slots always come from the same instant. A torn snapshot (per-field or
// per-section locking) would let a concurrent on_complete — which bumps the
// global, replica, and model counters under ONE lock acquisition — land
// between the reads and break their equality. Regression test for the
// coherent-snapshot contract (annotated in serve/stats.h).
TEST(ServeStress, StatsSnapshotIsCoherentUnderConcurrentWrites) {
  StatsCollector stats{2};
  std::atomic<bool> done{false};

  // Writer: every iteration is one batch of exactly 3 completions, fanned
  // across both replicas and two models, all through the collector's own
  // (internally locked) mutators.
  std::thread writer{[&] {
    for (int i = 0; i < 20000; ++i) {
      const std::string model = (i % 2 == 0) ? "a" : "b";
      const std::size_t replica = static_cast<std::size_t>(i % 2);
      stats.on_submit(model);
      stats.on_batch(replica, model);
      for (int c = 0; c < 3; ++c) stats.on_complete(replica, model, 1e-3);
    }
    done.store(true, std::memory_order_release);
  }};

  // do-while: at least one snapshot races the writer even if the scheduler
  // runs the writer to completion first (single-core CI).
  do {
    const ServerStats s = stats.snapshot(0, {false, false}, {});
    // Each on_complete updates the global, replica, and model counters under
    // one lock; a coherent snapshot must therefore show them in agreement.
    std::uint64_t replica_completed = 0, replica_batches = 0;
    for (const ReplicaStats& r : s.replicas) {
      replica_completed += r.completed;
      replica_batches += r.batches;
    }
    ASSERT_EQ(replica_completed, s.completed);
    ASSERT_EQ(replica_batches, s.batches_formed);
    std::uint64_t model_completed = 0, model_submitted = 0;
    for (const ModelStats& m : s.models) {
      model_completed += m.completed;
      model_submitted += m.submitted;
    }
    ASSERT_EQ(model_completed, s.completed);
    ASSERT_EQ(model_submitted, s.submitted);
    // The writer finishes each batch's 3 completions before starting the
    // next batch, so completions can trail the batch count by at most one
    // in-progress batch — and can never exceed 3 per formed batch.
    ASSERT_LE(s.completed, 3 * s.batches_formed);
    if (s.batches_formed > 0) {
      ASSERT_GE(s.completed + 3, 3 * s.batches_formed);
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();

  const ServerStats s = stats.snapshot(0, {false, false}, {});
  EXPECT_EQ(s.submitted, 20000U);
  EXPECT_EQ(s.batches_formed, 20000U);
  EXPECT_EQ(s.completed, 60000U);
  ASSERT_EQ(s.models.size(), 2U);
  EXPECT_EQ(s.models[0].id, "a");
  EXPECT_EQ(s.models[1].id, "b");
  EXPECT_EQ(s.models[0].completed + s.models[1].completed, 60000U);
}

}  // namespace
}  // namespace ttfs::serve
