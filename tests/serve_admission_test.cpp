// Admission-control edge cases for the bounded submit queue: reject vs block
// vs shed-oldest against a deliberately stalled server (huge max_delay, large
// max_batch — nothing flushes until stop() drains), so every queue state is
// reached deterministically and the stats counters can be asserted exactly
// under single-threaded submission. Runs under the TSan CI lane (label:
// concurrency) together with the serve suites.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "util/rng.h"
#include "serve_test_util.h"

namespace ttfs::serve {
namespace {

using std::chrono::microseconds;

using test::kModel;
using test::make_image;
using test::make_net;
using test::one_model;

// A server whose batcher never flushes on its own: max_batch larger than
// anything we submit and a 60 s deadline, so the queue state is exactly what
// the admission policy left behind until stop() drains it.
ServeOptions stalled_options(std::size_t capacity, AdmissionPolicy admission) {
  ServeOptions opts;
  opts.max_batch = 64;
  opts.max_delay = microseconds{60'000'000};
  opts.queue_capacity = capacity;
  opts.admission = admission;
  return opts;
}

TEST(AdmissionPolicyNames, RoundTripAndErrors) {
  EXPECT_EQ(to_string(AdmissionPolicy::kBlock), "block");
  EXPECT_EQ(to_string(AdmissionPolicy::kRejectWhenFull), "reject");
  EXPECT_EQ(to_string(AdmissionPolicy::kShedOldest), "shed");
  EXPECT_EQ(admission_policy_from_string("block"), AdmissionPolicy::kBlock);
  EXPECT_EQ(admission_policy_from_string("reject"), AdmissionPolicy::kRejectWhenFull);
  EXPECT_EQ(admission_policy_from_string("shed"), AdmissionPolicy::kShedOldest);
  EXPECT_THROW(admission_policy_from_string("drop"), std::invalid_argument);
}

TEST(Admission, RejectWhenFullRefusesExactlyTheOverflow) {
  Rng rng{41};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(2, AdmissionPolicy::kRejectWhenFull))};

  auto a = server.submit(kModel, make_image(rng));  // queued (1/2)
  auto b = server.submit(kModel, make_image(rng));  // queued (2/2)
  auto c = server.submit(kModel, make_image(rng));  // full -> rejected immediately
  ASSERT_EQ(c.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ServeResult rc = c.result.get();
  EXPECT_EQ(rc.status, RequestStatus::kRejected);
  EXPECT_TRUE(rc.logits.empty());

  // The refusal left the queue untouched: a and b drain through stop().
  server.stop();
  EXPECT_EQ(a.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(b.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.rejected_overload, 1U);
  EXPECT_EQ(stats.rejected, 0U);  // shutdown rejects are a separate counter
  EXPECT_EQ(stats.shed, 0U);
}

TEST(Admission, CancelUnderFullQueueFreesTheSlot) {
  Rng rng{43};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(2, AdmissionPolicy::kRejectWhenFull))};

  auto a = server.submit(kModel, make_image(rng));
  auto b = server.submit(kModel, make_image(rng));
  EXPECT_EQ(server.submit(kModel, make_image(rng)).result.get().status, RequestStatus::kRejected);

  // cancel-while-queued under a full queue: the slot frees and the next
  // submit is admitted again.
  EXPECT_TRUE(server.cancel(a.id));
  EXPECT_EQ(a.result.get().status, RequestStatus::kCancelled);
  auto d = server.submit(kModel, make_image(rng));

  server.stop();
  EXPECT_EQ(b.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(d.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.cancelled, 1U);
  EXPECT_EQ(stats.rejected_overload, 1U);
}

TEST(Admission, ShedOldestEvictsInFifoOrder) {
  Rng rng{47};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(2, AdmissionPolicy::kShedOldest))};

  auto a = server.submit(kModel, make_image(rng));  // oldest
  auto b = server.submit(kModel, make_image(rng));
  auto c = server.submit(kModel, make_image(rng));  // sheds a
  auto d = server.submit(kModel, make_image(rng));  // sheds b

  // Shed futures resolve immediately, oldest first, with kShed.
  ASSERT_EQ(a.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ASSERT_EQ(b.result.wait_for(std::chrono::seconds{0}), std::future_status::ready);
  ServeResult ra = a.result.get();
  ServeResult rb = b.result.get();
  EXPECT_EQ(ra.status, RequestStatus::kShed);
  EXPECT_EQ(rb.status, RequestStatus::kShed);
  EXPECT_TRUE(ra.logits.empty());
  EXPECT_EQ(ra.predicted, -1);
  EXPECT_GT(ra.latency_seconds, 0.0);

  // The survivors are the two newest; they drain normally.
  server.stop();
  EXPECT_EQ(c.result.get().status, RequestStatus::kOk);
  EXPECT_EQ(d.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4U);
  EXPECT_EQ(stats.completed, 2U);
  EXPECT_EQ(stats.shed, 2U);
  EXPECT_EQ(stats.rejected_overload, 0U);
  EXPECT_EQ(stats.rejected, 0U);
}

TEST(Admission, ShedVictimCannotBeCancelled) {
  Rng rng{53};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(1, AdmissionPolicy::kShedOldest))};

  auto a = server.submit(kModel, make_image(rng));
  auto b = server.submit(kModel, make_image(rng));  // sheds a
  EXPECT_EQ(a.result.get().status, RequestStatus::kShed);
  EXPECT_FALSE(server.cancel(a.id));  // already resolved, not queued
  EXPECT_TRUE(server.cancel(b.id));
  EXPECT_EQ(b.result.get().status, RequestStatus::kCancelled);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1U);
  EXPECT_EQ(stats.cancelled, 1U);
  EXPECT_EQ(stats.completed, 0U);
}

TEST(Admission, BlockParksTheSubmitterUntilSpaceFrees) {
  Rng rng{59};
  const snn::SnnNetwork net = make_net(rng);
  // Capacity 1 and max_batch 1: the first request flushes as its own batch,
  // freeing the slot, so a parked submitter always unblocks.
  ServeOptions opts;
  opts.max_batch = 1;
  opts.max_delay = microseconds{500};
  opts.queue_capacity = 1;
  opts.admission = AdmissionPolicy::kBlock;
  SnnServer server{one_model(net, opts)};

  std::vector<SnnServer::Submission> subs;
  // Single-threaded burst well past capacity: each submit may park until the
  // replica drains the previous request, but every one must be admitted.
  for (int i = 0; i < 6; ++i) subs.push_back(server.submit(kModel, make_image(rng)));
  for (auto& sub : subs) EXPECT_EQ(sub.result.get().status, RequestStatus::kOk);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 6U);
  EXPECT_EQ(stats.completed, 6U);
  EXPECT_EQ(stats.rejected, 0U);
  EXPECT_EQ(stats.rejected_overload, 0U);
  EXPECT_EQ(stats.shed, 0U);
}

TEST(Admission, StopUnblocksParkedSubmitterWithReject) {
  Rng rng{61};
  const snn::SnnNetwork net = make_net(rng);
  SnnServer server{one_model(net, stalled_options(1, AdmissionPolicy::kBlock))};

  auto a = server.submit(kModel, make_image(rng));  // fills the queue; never flushes
  std::promise<SnnServer::Submission> parked;
  std::future<SnnServer::Submission> parked_future = parked.get_future();
  std::thread submitter{[&] {
    // Blocks on the full queue until stop() closes it.
    parked.set_value(server.submit(kModel, make_image(rng)));
  }};
  // Give the submitter time to park; then stop() must wake it with a clean
  // rejection while still draining the accepted request. No stat shows a
  // parked submitter, so this is a sleep, not a condition wait. It only
  // makes the wake-up path the likely one: a submitter that has not parked
  // by stop() meets the closed queue and gets the same kRejected, so the
  // assertions below hold in either order.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  server.stop();
  submitter.join();
  SnnServer::Submission blocked = parked_future.get();
  EXPECT_EQ(blocked.result.get().status, RequestStatus::kRejected);
  EXPECT_EQ(a.result.get().status, RequestStatus::kOk);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 2U);
  EXPECT_EQ(stats.completed, 1U);
  EXPECT_EQ(stats.rejected, 1U);
  EXPECT_EQ(stats.rejected_overload, 0U);
}

// Unbounded capacity (the default) makes every policy a no-op: nothing is
// refused whatever the burst, preserving the pre-admission-control contract.
TEST(Admission, UnboundedQueueNeverRefuses) {
  Rng rng{67};
  const snn::SnnNetwork net = make_net(rng);
  for (const AdmissionPolicy policy : {AdmissionPolicy::kBlock,
                                       AdmissionPolicy::kRejectWhenFull,
                                       AdmissionPolicy::kShedOldest}) {
    SnnServer server{one_model(net, stalled_options(0, policy))};
    std::vector<SnnServer::Submission> subs;
    for (int i = 0; i < 10; ++i) subs.push_back(server.submit(kModel, make_image(rng)));
    EXPECT_EQ(server.stats().queue_depth, 10U) << to_string(policy);
    server.stop();
    for (auto& sub : subs) EXPECT_EQ(sub.result.get().status, RequestStatus::kOk);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 10U) << to_string(policy);
    EXPECT_EQ(stats.rejected_overload + stats.shed + stats.rejected, 0U) << to_string(policy);
  }
}

}  // namespace
}  // namespace ttfs::serve
