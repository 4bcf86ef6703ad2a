// Concurrency stress tests for SnnServer: many submitter threads race against
// the batching dispatcher, the replica schedulers and the compute pool, and
// every returned logit vector must still be bit-identical to a sequential
// golden on the same input — batching composition, replica routing, arena
// reuse and thread interleaving must never leak into results. Each backend is
// exercised at replica counts 1, 2 and 4 so sharding is covered by the same
// goldens as the single-replica path. This suite (with serve_test,
// serve_admission_test and the thread-pool suites) runs under the
// ThreadSanitizer CI lane.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

namespace ttfs::serve {
namespace {

constexpr std::int64_t kThreads = 4;       // submitter threads
constexpr std::int64_t kPerThread = 12;    // requests per submitter
constexpr std::int64_t kTotal = kThreads * kPerThread;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

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

void expect_rows_equal(const Tensor& got, const float* want, std::int64_t classes,
                       std::int64_t request) {
  ASSERT_EQ(got.numel(), classes) << "request " << request;
  for (std::int64_t j = 0; j < classes; ++j) {
    EXPECT_EQ(got[j], want[j]) << "request " << request << " logit " << j;
  }
}

// N threads hammer submit() while the dispatcher forms whatever batch mix the
// interleaving produces and `replicas` scheduler threads race for the formed
// batches; each future's logits must equal the sequential golden of its own
// input bit for bit, whichever replica served it.
void stress_backend(snn::BackendKind backend, std::int64_t replicas) {
  Rng rng{101};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, kTotal);

  // Sequential goldens, computed before the server exists: forward() per
  // image for the GEMM backend, run_event_sim per image for the event one.
  Tensor goldens{{kTotal, 10}};
  for (std::int64_t i = 0; i < kTotal; ++i) {
    Tensor row;
    if (backend == snn::BackendKind::kGemm) {
      row = net.forward(images[static_cast<std::size_t>(i)].reshaped({1, 3, 8, 8}));
    } else {
      row = snn::run_event_sim(net, images[static_cast<std::size_t>(i)]).logits;
    }
    ASSERT_EQ(row.numel(), 10);
    std::copy(row.data(), row.data() + 10, goldens.data() + i * 10);
  }

  ThreadPool compute_pool{2};
  ServeOptions opts;
  opts.max_batch = 8;
  opts.max_delay = std::chrono::microseconds{300};
  opts.replicas = replicas;
  opts.backend = snn::make_backend(backend);
  opts.pool = &compute_pool;
  SnnServer server{net, {3, 8, 8}, opts};
  ASSERT_EQ(server.replicas(), replicas);

  std::vector<std::future<ServeResult>> futures(static_cast<std::size_t>(kTotal));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::int64_t j = 0; j < kPerThread; ++j) {
        const std::int64_t i = t * kPerThread + j;
        futures[static_cast<std::size_t>(i)] =
            server.submit(images[static_cast<std::size_t>(i)]).result;
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

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR1) {
  stress_backend(snn::BackendKind::kEventSim, 1);
}

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR2) {
  stress_backend(snn::BackendKind::kEventSim, 2);
}

TEST(ServeStress, EventSimBitIdenticalToSequentialGoldenR4) {
  stress_backend(snn::BackendKind::kEventSim, 4);
}

TEST(ServeStress, GemmBitIdenticalToSequentialClassifyGoldenR1) {
  stress_backend(snn::BackendKind::kGemm, 1);
}

TEST(ServeStress, GemmBitIdenticalToSequentialClassifyGoldenR2) {
  stress_backend(snn::BackendKind::kGemm, 2);
}

TEST(ServeStress, GemmBitIdenticalToSequentialClassifyGoldenR4) {
  stress_backend(snn::BackendKind::kGemm, 4);
}

// Cancellations race batch formation from every submitter thread; whatever
// the interleaving, cancel() returning true must mean kCancelled and false
// must mean the request was served with correct logits.
void cancellation_churn(std::int64_t replicas) {
  Rng rng{303};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, kTotal);
  Tensor goldens{{kTotal, 10}};
  for (std::int64_t i = 0; i < kTotal; ++i) {
    const Tensor row = snn::run_event_sim(net, images[static_cast<std::size_t>(i)]).logits;
    std::copy(row.data(), row.data() + 10, goldens.data() + i * 10);
  }

  ThreadPool compute_pool{2};
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds{200};
  opts.replicas = replicas;
  opts.pool = &compute_pool;
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<std::future<ServeResult>> futures(static_cast<std::size_t>(kTotal));
  std::vector<char> cancel_won(static_cast<std::size_t>(kTotal), 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::int64_t j = 0; j < kPerThread; ++j) {
        const std::int64_t i = t * kPerThread + j;
        auto sub = server.submit(images[static_cast<std::size_t>(i)]);
        futures[static_cast<std::size_t>(i)] = std::move(sub.result);
        if (j % 2 == 1) {  // try to rip every other request back out
          cancel_won[static_cast<std::size_t>(i)] = server.cancel(sub.id) ? 1 : 0;
        }
      }
    });
  }
  for (auto& th : submitters) th.join();

  std::uint64_t cancelled = 0;
  for (std::int64_t i = 0; i < kTotal; ++i) {
    ServeResult r = futures[static_cast<std::size_t>(i)].get();
    if (cancel_won[static_cast<std::size_t>(i)] != 0) {
      EXPECT_EQ(r.status, RequestStatus::kCancelled) << "request " << i;
      ++cancelled;
    } else {
      ASSERT_EQ(r.status, RequestStatus::kOk) << "request " << i;
      expect_rows_equal(r.logits, goldens.data() + i * 10, 10, i);
    }
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.completed + stats.cancelled, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.rejected, 0U);
}

TEST(ServeStress, CancellationChurnStaysConsistent) { cancellation_churn(1); }

TEST(ServeStress, CancellationChurnStaysConsistentSharded) { cancellation_churn(2); }

// Bounded queue + kBlock under many submitters: backpressure may park any
// subset of them, but every accepted request must still be served bit-exact
// and the counters must balance — nothing lost, nothing refused.
TEST(ServeStress, BlockAdmissionUnderConcurrentOverload) {
  Rng rng{404};
  const snn::SnnNetwork net = make_net(rng);
  const auto images = make_images(rng, kTotal);
  Tensor goldens{{kTotal, 10}};
  for (std::int64_t i = 0; i < kTotal; ++i) {
    const Tensor row = snn::run_event_sim(net, images[static_cast<std::size_t>(i)]).logits;
    std::copy(row.data(), row.data() + 10, goldens.data() + i * 10);
  }

  ThreadPool compute_pool{2};
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay = std::chrono::microseconds{200};
  opts.replicas = 2;
  opts.queue_capacity = 3;  // far below the offered burst: submitters stall
  opts.admission = AdmissionPolicy::kBlock;
  opts.pool = &compute_pool;
  SnnServer server{net, {3, 8, 8}, opts};

  std::vector<std::future<ServeResult>> futures(static_cast<std::size_t>(kTotal));
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::int64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::int64_t j = 0; j < kPerThread; ++j) {
        const std::int64_t i = t * kPerThread + j;
        futures[static_cast<std::size_t>(i)] =
            server.submit(images[static_cast<std::size_t>(i)]).result;
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
  EXPECT_EQ(stats.rejected, 0U);
  EXPECT_EQ(stats.rejected_overload, 0U);
  EXPECT_EQ(stats.shed, 0U);
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
