// Trace-storage recycling (engine.h, RunResult): a traced run refills the
// traces a dropped RunResult handed back to the process-wide bin, in place.
//
// Pinned here:
//  * recycled traces are bitwise equal to fresh single-sample traces on the
//    event and quantized backends, across a VGG-style stack, a smaller
//    3x16x16 stack and the VGG stack again (every layer slot shrinks, then
//    grows back), and also when the caller mutated the traces before
//    dropping them;
//  * RunResult copies are deep, moves hand storage over, and move-assignment
//    recycles the overwritten traces;
//  * in steady state run k+1 refills run k's spike buffers (same data()
//    pointers), the deterministic stand-in for "no page faults";
//  * sessions on four threads, whose results are dropped on a fifth, stay
//    exact. The whole suite carries the `concurrency` label, so CI also
//    runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "snn/quant.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

constexpr std::int64_t kBatch = 2;

// The hot-path bench's VGG-style stack on 3x32x32: nine trace layers.
snn::SnnNetwork make_vgg(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(Tensor::uniform({16, 16, 3, 3}, rng, -0.1F, 0.18F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({32, 16, 3, 3}, rng, -0.1F, 0.15F),
               Tensor::uniform({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_conv(Tensor::uniform({32, 32, 3, 3}, rng, -0.08F, 0.12F),
               Tensor::uniform({32}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({64, 32, 3, 3}, rng, -0.08F, 0.1F),
               Tensor::uniform({64}, rng, -0.04F, 0.08F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 64 * 4 * 4}, rng, -0.08F, 0.1F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

// A smaller stack on 3x16x16: three trace layers and fewer classes.
snn::SnnNetwork make_small(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({5, 8 * 8 * 8}, rng, -0.1F, 0.12F),
             Tensor::uniform({5}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::int64_t n, std::vector<std::int64_t> shape) {
  std::vector<Tensor> images;
  for (std::int64_t i = 0; i < n; ++i) images.push_back(Tensor::uniform(shape, rng, 0.0F, 1.0F));
  return images;
}

std::vector<const Tensor*> gather(const std::vector<Tensor>& images) {
  std::vector<const Tensor*> out;
  for (const Tensor& img : images) out.push_back(&img);
  return out;
}

// One network with its own session on `kind`; for kQuantized the network is
// log-quantized first. Goldens are fresh traces from the backend's
// single-sample primitive with a fresh arena.
struct Stack {
  snn::SnnNetwork net;
  std::vector<Tensor> images;
  std::vector<snn::EventTrace> golden;
  snn::InferenceSession session;

  Stack(snn::SnnNetwork n, std::vector<Tensor> imgs, snn::BackendKind kind, ThreadPool& pool)
      : net{quantized_if(std::move(n), kind)},
        images{std::move(imgs)},
        session{net, snn::make_backend(kind), session_options(pool)} {
    for (const Tensor& img : images) {
      if (kind == snn::BackendKind::kQuantized) {
        snn::SimArena arena;
        snn::detail::run_quantized_event_sim_span(net, img.data(), img.dim(0), img.dim(1),
                                                  img.dim(2), arena, golden.emplace_back());
      } else {
        golden.push_back(snn::run_event_sim(net, img));
      }
    }
  }

  snn::RunResult run() {
    snn::RunOptions opts;
    opts.logits = false;
    opts.traces = true;
    return session.run(snn::BatchView{gather(images)}, opts);
  }

  static snn::SnnNetwork quantized_if(snn::SnnNetwork n, snn::BackendKind kind) {
    if (kind == snn::BackendKind::kQuantized) cat::log_quantize_network(n, cat::LogQuantConfig{});
    return n;
  }
  static snn::SessionOptions session_options(ThreadPool& pool) {
    snn::SessionOptions opts;
    opts.pool = &pool;
    return opts;
  }
};

bool same_trace(const snn::EventTrace& a, const snn::EventTrace& b) {
  if (a.layers.size() != b.layers.size() || a.logits.shape() != b.logits.shape() ||
      a.logits.vec() != b.logits.vec()) {
    return false;
  }
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const snn::LayerEventTrace& x = a.layers[l];
    const snn::LayerEventTrace& y = b.layers[l];
    if (x.neuron_count != y.neuron_count || x.integration_ops != y.integration_ops ||
        x.encoder_cycles != y.encoder_cycles ||
        !std::equal(x.spikes.begin(), x.spikes.end(), y.spikes.begin(), y.spikes.end(),
                    [](const snn::Spike& s, const snn::Spike& t) {
                      return s.neuron == t.neuron && s.step == t.step;
                    })) {
      return false;
    }
  }
  return true;
}

void expect_matches_golden(const snn::RunResult& r, const Stack& stack, const std::string& what) {
  ASSERT_EQ(r.traces.size(), stack.golden.size()) << what;
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    ASSERT_GT(r.traces[i].total_spikes(), 0) << what << " sample " << i;
    EXPECT_TRUE(same_trace(r.traces[i], stack.golden[i])) << what << " sample " << i;
  }
}

// Every spike buffer (and layer array) the result's traces own.
std::set<const void*> storage_of(const snn::RunResult& r) {
  std::set<const void*> out;
  for (const snn::EventTrace& t : r.traces) {
    out.insert(t.layers.data());
    for (const snn::LayerEventTrace& l : t.layers) out.insert(l.spikes.data());
  }
  return out;
}

class TraceReuse : public ::testing::TestWithParam<snn::BackendKind> {};

TEST_P(TraceReuse, RecycledTracesMatchFreshAcrossShrinkAndGrow) {
  ThreadPool pool{2};
  Rng rng{7};
  Stack vgg{make_vgg(rng), make_images(rng, kBatch, {3, 32, 32}), GetParam(), pool};
  Stack small{make_small(rng), make_images(rng, kBatch, {3, 16, 16}), GetParam(), pool};

  std::set<const void*> vgg_storage;
  {
    const snn::RunResult r = vgg.run();
    expect_matches_golden(r, vgg, "vgg");
    vgg_storage = storage_of(r);
  }
  {
    // Same batch size: every trace comes out of the bin, so the small stack
    // refills the VGG traces, dropping six surplus layers each.
    const snn::RunResult r = small.run();
    expect_matches_golden(r, small, "vgg -> small");
    ASSERT_EQ(r.traces[0].layers.size(), 3U);
    for (const snn::EventTrace& t : r.traces) {
      EXPECT_EQ(vgg_storage.count(t.layers.data()), 1U) << "layer array not recycled";
    }
  }
  const snn::RunResult r = vgg.run();
  expect_matches_golden(r, vgg, "vgg -> small -> vgg");
}

TEST_P(TraceReuse, CallerMutatedTracesAreOverwritten) {
  ThreadPool pool{2};
  Rng rng{11};
  Stack vgg{make_vgg(rng), make_images(rng, kBatch, {3, 32, 32}), GetParam(), pool};

  std::vector<snn::Spike> kept;
  {
    snn::RunResult r = vgg.run();
    expect_matches_golden(r, vgg, "first run");
    // Spikes moved out, bogus counters and stray spikes, cleared layers,
    // reset logits: the next run must overwrite all of it.
    // Layer 0 is the input encoding and layer 3 the first pool: neither
    // integrates, so only the refill's reset clears their op counters.
    kept = std::move(r.traces[0].layers[2].spikes);
    r.traces[0].layers[0].integration_ops = 77;
    r.traces[0].layers[3].integration_ops = -1;
    r.traces[0].layers[3].neuron_count = 5;
    r.traces[0].layers[3].spikes.push_back({123, 4});
    r.traces[0].layers.back().encoder_cycles = 99;
    r.traces[0].logits[0] = 1e9F;
    r.traces[1].layers.resize(1);
    r.traces[1].logits = Tensor{};
  }
  const snn::RunResult r = vgg.run();
  expect_matches_golden(r, vgg, "after mutation");
  // The moved-out spikes stay the caller's.
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(), vgg.golden[0].layers[2].spikes.begin(),
                         vgg.golden[0].layers[2].spikes.end(),
                         [](const snn::Spike& s, const snn::Spike& t) {
                           return s.neuron == t.neuron && s.step == t.step;
                         }));
}

TEST_P(TraceReuse, SteadyStateRefillsTheSameSpikeBuffers) {
  ThreadPool pool{2};
  Rng rng{13};
  Stack vgg{make_vgg(rng), make_images(rng, kBatch, {3, 32, 32}), GetParam(), pool};
  for (int warm = 0; warm < 2; ++warm) vgg.run();

  std::set<const void*> previous;
  for (int k = 0; k < 3; ++k) {
    const snn::RunResult r = vgg.run();
    expect_matches_golden(r, vgg, "run " + std::to_string(k));
    const std::set<const void*> now = storage_of(r);
    if (k > 0) {
      EXPECT_EQ(now, previous) << "run " << k << " did not refill run " << k - 1;
    }
    previous = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TraceReuse,
                         ::testing::Values(snn::BackendKind::kEventSim,
                                           snn::BackendKind::kQuantized),
                         [](const auto& info) { return snn::to_string(info.param); });

TEST(TraceReuseResult, CopyMoveAndMoveAssignStayCorrect) {
  ThreadPool pool{0};
  Rng rng{17};
  Stack small{make_small(rng), make_images(rng, kBatch, {3, 16, 16}),
              snn::BackendKind::kEventSim, pool};

  snn::RunResult a = small.run();
  const std::set<const void*> a_storage = storage_of(a);

  const snn::RunResult copy{a};  // deep
  expect_matches_golden(copy, small, "copy");
  for (const void* p : storage_of(copy)) EXPECT_EQ(a_storage.count(p), 0U) << "shared storage";

  snn::RunResult copy_assigned = small.run();
  copy_assigned = a;
  expect_matches_golden(copy_assigned, small, "copy-assigned");

  snn::RunResult moved{std::move(a)};  // storage handed over
  expect_matches_golden(moved, small, "moved");
  EXPECT_EQ(storage_of(moved), a_storage);

  snn::RunResult target = small.run();
  const std::set<const void*> overwritten = storage_of(target);
  target = std::move(moved);  // target's own traces go to the bin
  expect_matches_golden(target, small, "move-assigned");
  EXPECT_EQ(storage_of(target), a_storage);

  // The next run refills the traces the move-assignment recycled.
  const snn::RunResult again = small.run();
  expect_matches_golden(again, small, "run after the move-assignment");
  EXPECT_EQ(storage_of(again), overwritten);
}

TEST(TraceReuseConcurrency, FourSessionsDropResultsOnAnotherThread) {
  ThreadPool pool{2};
  Rng rng{19};
  const snn::SnnNetwork vgg_net = make_vgg(rng);
  const snn::SnnNetwork small_net = make_small(rng);
  const std::vector<Tensor> vgg_images = make_images(rng, kBatch, {3, 32, 32});
  const std::vector<Tensor> small_images = make_images(rng, kBatch, {3, 16, 16});
  constexpr int kThreads = 4;
  constexpr int kRuns = 6;

  // Results are handed to one dropper thread, which destroys them; half the
  // hand-offs go through move-assignment over a result the dropper holds.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<snn::RunResult> mailbox;
  bool done = false;
  std::thread dropper{[&] {
    snn::RunResult held;
    for (int n = 0;; ++n) {
      std::unique_lock<std::mutex> lock{mu};
      cv.wait(lock, [&] { return !mailbox.empty() || done; });
      if (mailbox.empty()) return;
      snn::RunResult r = std::move(mailbox.front());
      mailbox.pop_front();
      lock.unlock();
      if (n % 2 == 0) held = std::move(r);
    }
  }};

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Even threads run the VGG stack, odd ones the small one, so recycled
      // traces keep switching shape.
      const bool big = t % 2 == 0;
      Stack stack{big ? vgg_net : small_net, big ? vgg_images : small_images,
                  snn::BackendKind::kEventSim, pool};
      for (int k = 0; k < kRuns; ++k) {
        snn::RunResult r = stack.run();
        for (std::size_t i = 0; i < r.traces.size(); ++i) {
          if (!same_trace(r.traces[i], stack.golden[i])) ++mismatches;
        }
        {
          const std::lock_guard<std::mutex> lock{mu};
          mailbox.push_back(std::move(r));
        }
        cv.notify_one();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  {
    const std::lock_guard<std::mutex> lock{mu};
    done = true;
  }
  cv.notify_one();
  dropper.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ttfs
