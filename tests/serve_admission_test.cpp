// Admission-control edge cases for the bounded submit queue, whose one
// overload outcome is refusal at the door: a full queue answers the new
// request kRejected at once, and nothing already queued moves. Most cases
// run against a deliberately stalled server (huge max_delay, large
// max_batch — nothing flushes until stop() drains), so every queue state is
// reached deterministically and the stats counters can be asserted exactly
// under single-threaded submission. Runs under the TSan CI lane (label:
// concurrency) together with the serve suites.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "util/rng.h"
#include "serve_test_util.h"

namespace ttfs::serve {
namespace {

using std::chrono::microseconds;

using test::expect_ledger_balances;
using test::GatedBackend;
using test::kModel;
using test::make_image;
using test::make_net;
using test::one_model;

// A server whose batcher never flushes on its own: max_batch larger than
// anything we submit and a 60 s deadline, so the queue state is exactly what
// admission left behind until stop() drains it.
ServeOptions stalled_options(std::size_t capacity) {
  ServeOptions opts;
  opts.max_batch = 64;
  opts.max_delay = microseconds{60'000'000};
  opts.queue_capacity = capacity;
  return opts;
}

bool resolved_now(std::future<ServeResult>& result) {
  return result.wait_for(std::chrono::seconds{0}) == std::future_status::ready;
}

TEST(Admission, RejectWhenFullRefusesExactlyTheOverflow) {
  Rng rng{41};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(2))};

  auto a = server.submit(kModel, make_image(rng));  // queued (1/2)
  auto b = server.submit(kModel, make_image(rng));  // queued (2/2)
  auto c = server.submit(kModel, make_image(rng));  // full -> rejected immediately
  ASSERT_TRUE(resolved_now(c.result));
  ServeResult rc = c.result.get();
  EXPECT_EQ(rc.status, RequestStatus::kRejected);
  EXPECT_EQ(rc.model_id, kModel);
  EXPECT_TRUE(rc.logits.empty());
  EXPECT_EQ(rc.predicted, -1);
  // The refusal left the queue untouched: nothing queued was dropped.
  EXPECT_FALSE(resolved_now(a.result));
  EXPECT_FALSE(resolved_now(b.result));
  EXPECT_EQ(server.stats().queue_depth, 2U);

  // a and b drain through stop().
  server.stop();
  EXPECT_EQ(a.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(b.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.rejected_overload, 1U);
  EXPECT_EQ(stats.rejected, 0U);  // shutdown rejects are a separate counter
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].rejected_overload, 1U);
  expect_ledger_balances(stats);
}

// The bound counts waiting work only: a batch a replica has popped no longer
// holds its slot, so the next submit is admitted again.
TEST(Admission, PoppedBatchFreesItsSlot) {
  Rng rng{43};
  const snn::SnnNetwork net = make_net(rng);
  auto gated = std::make_shared<const GatedBackend>(snn::make_backend(snn::BackendKind::kEventSim));
  ServeOptions opts;
  opts.max_batch = 1;  // every request is a ready batch the moment it queues
  opts.queue_capacity = 1;
  SnnServer server{one_model(net, opts, gated)};
  const test::OpenGateOnExit open_gate_on_exit{*gated};

  auto running = server.submit(kModel, make_image(rng));
  gated->wait_entered();  // popped: its slot is free again
  auto waiting = server.submit(kModel, make_image(rng));  // queued (1/1)
  auto refused = server.submit(kModel, make_image(rng));  // full
  ASSERT_TRUE(resolved_now(refused.result));
  EXPECT_EQ(refused.result.get().status, RequestStatus::kRejected);

  gated->release();
  EXPECT_EQ(running.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(waiting.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(server.submit(kModel, make_image(rng)).result.get().status, RequestStatus::kOk);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4U);
  EXPECT_EQ(stats.completed, 3U);
  EXPECT_EQ(stats.rejected_overload, 1U);
  expect_ledger_balances(stats);
}

// Once stop() has begun, a submit is refused as shutdown (`rejected`), not
// as overload, even while the queue it would have joined was full.
TEST(Admission, StopRefusesLateSubmitsAsShutdownNotOverload) {
  Rng rng{61};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(1))};

  auto a = server.submit(kModel, make_image(rng));  // fills the queue; never flushes
  server.stop();                                     // drains a
  EXPECT_EQ(a.result.get().status, RequestStatus::kOk);
  auto late = server.submit(kModel, make_image(rng));
  ASSERT_TRUE(resolved_now(late.result));
  EXPECT_EQ(late.result.get().status, RequestStatus::kRejected);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2U);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.rejected, 1U);
  EXPECT_EQ(stats.rejected_overload, 0U);
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].rejected, 1U);
  expect_ledger_balances(stats);
}

// Unbounded capacity (the default) never refuses, whatever the burst.
TEST(Admission, UnboundedQueueNeverRefuses) {
  Rng rng{67};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(0))};
  std::vector<SnnServer::Submission> subs;
  for (int i = 0; i < 10; ++i) subs.push_back(server.submit(kModel, make_image(rng)));
  EXPECT_EQ(server.stats().queue_depth, 10U);
  server.stop();
  for (auto& sub : subs) EXPECT_EQ(sub.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 10U);
  EXPECT_EQ(stats.rejected_overload + stats.rejected, 0U);
  expect_ledger_balances(stats);
}

// Two models share one bound. Each refusal is counted on the model it named,
// so every model's own ledger balances under overload; a submit naming an
// unknown id counts globally and on no model.
TEST(Admission, EveryModelLedgerBalancesUnderOverload) {
  Rng rng{71};
  const snn::SnnNetwork net = make_net(rng);
  ServeOptions opts = one_model(net, stalled_options(3));
  opts.registry->load("b", std::make_shared<snn::SnnNetwork>(make_net(rng)),
                      snn::make_backend(snn::BackendKind::kEventSim), {3, 8, 8});
  SnnServer server{opts};

  std::vector<SnnServer::Submission> subs;
  for (const std::string& id : {kModel, kModel, std::string{"b"}}) {  // fills the queue
    subs.push_back(server.submit(id, make_image(rng)));
  }
  for (const std::string& id : {kModel, std::string{"b"}, std::string{"b"}, kModel}) {
    EXPECT_EQ(server.submit(id, make_image(rng)).result.get().status, RequestStatus::kRejected);
  }
  EXPECT_EQ(server.submit("ghost", make_image(rng)).result.get().status,
            RequestStatus::kRejected);
  server.stop();
  for (auto& sub : subs) EXPECT_EQ(sub.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(server.submit(kModel, make_image(rng)).result.get().status, RequestStatus::kRejected);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 9U);
  EXPECT_EQ(stats.completed, 3U);
  EXPECT_EQ(stats.rejected_overload, 4U);
  EXPECT_EQ(stats.rejected, 2U);  // the unknown id and the late submit
  ASSERT_EQ(stats.models.size(), 2U);
  const ModelStats& b = stats.models[0];
  const ModelStats& m = stats.models[1];
  ASSERT_EQ(b.id, "b");
  ASSERT_EQ(m.id, kModel);
  EXPECT_EQ(m.submitted, 5U);
  EXPECT_EQ(m.completed, 2U);
  EXPECT_EQ(m.rejected_overload, 2U);
  EXPECT_EQ(m.rejected, 1U);
  EXPECT_EQ(b.submitted, 3U);
  EXPECT_EQ(b.completed, 1U);
  EXPECT_EQ(b.rejected_overload, 2U);
  EXPECT_EQ(b.rejected, 0U);
  expect_ledger_balances(stats);
}

// Unknown ids are data errors any caller can send; they must not grow the
// per-model breakdown (each slot holds its own latency histogram).
TEST(Admission, UnknownIdsLeaveNoModelSlot) {
  Rng rng{73};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net)};
  const Tensor image = make_image(rng);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(server.submit("ghost-" + std::to_string(i), image).result.get().status,
              RequestStatus::kRejected);
  }
  ServerStats stats = server.stats();
  EXPECT_TRUE(stats.models.empty()) << stats.models.size() << " slots";
  EXPECT_EQ(stats.submitted, 1000U);
  EXPECT_EQ(stats.rejected, 1000U);

  EXPECT_EQ(server.submit(kModel, image).result.get().status, RequestStatus::kOk);
  server.stop();
  stats = server.stats();
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].id, kModel);
  expect_ledger_balances(stats);
}

}  // namespace
}  // namespace ttfs::serve
