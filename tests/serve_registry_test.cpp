// Multi-model serving tests: snn::ModelRegistry semantics (load / swap /
// unload, LRU weight-pack eviction under a byte budget, run pins) and the
// registry-fronted SnnServer — per-model routing golden-checked against
// dedicated one-model servers, and live swap under concurrent load.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cat/logquant.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/rng.h"
#include "serve_test_util.h"

namespace ttfs::serve {
namespace {

// Three deliberately different-shaped conv/pool/fc stacks, cheap enough for
// TSan. Each returns a shared network the registry can co-own.
std::shared_ptr<snn::SnnNetwork> make_net_a(Rng& rng) {  // 3x8x8 in
  auto net = std::make_shared<snn::SnnNetwork>(snn::Base2Kernel{24, 4.0, 1.0});
  net->add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
                Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net->add_pool(2, 2);
  net->add_fc(Tensor::uniform({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
              Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

std::shared_ptr<snn::SnnNetwork> make_net_b(Rng& rng) {  // 1x12x12 in
  auto net = std::make_shared<snn::SnnNetwork>(snn::Base2Kernel{24, 4.0, 1.0});
  net->add_conv(Tensor::uniform({4, 1, 3, 3}, rng, -0.2F, 0.3F),
                Tensor::uniform({4}, rng, -0.05F, 0.1F), 1, 1);
  net->add_pool(2, 2);
  net->add_fc(Tensor::uniform({10, 4 * 6 * 6}, rng, -0.1F, 0.12F),
              Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

std::shared_ptr<snn::SnnNetwork> make_net_c(Rng& rng) {  // 2x6x6 in
  auto net = std::make_shared<snn::SnnNetwork>(snn::Base2Kernel{24, 4.0, 1.0});
  net->add_conv(Tensor::uniform({6, 2, 3, 3}, rng, -0.18F, 0.28F),
                Tensor::uniform({6}, rng, -0.05F, 0.1F), 1, 1);
  net->add_pool(2, 2);
  net->add_fc(Tensor::uniform({10, 6 * 3 * 3}, rng, -0.12F, 0.14F),
              Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

std::vector<Tensor> make_images(Rng& rng, std::vector<std::int64_t> shape, std::int64_t n) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) images.push_back(Tensor::uniform(shape, rng, 0.0F, 1.0F));
  return images;
}

// Per-sample logit rows of `net` on `images` through a dedicated session —
// the sequential golden everything else must match bit-for-bit.
std::vector<Tensor> golden_rows(const snn::SnnNetwork& net,
                                const std::shared_ptr<const snn::InferenceBackend>& backend,
                                const std::vector<Tensor>& images) {
  snn::InferenceSession session{net, backend};
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(images.size());
  for (const Tensor& img : images) ptrs.push_back(&img);
  snn::RunOptions ropts;
  ropts.logits = false;
  ropts.traces = true;
  snn::RunResult run = session.run(snn::BatchView{ptrs}, ropts);
  std::vector<Tensor> rows;
  rows.reserve(run.traces.size());
  for (snn::EventTrace& trace : run.traces) rows.push_back(std::move(trace.logits));
  return rows;
}

void expect_rows_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    EXPECT_EQ(got[j], want[j]) << what << " logit " << j;
  }
}

bool rows_bitwise_equal(const Tensor& got, const Tensor& want) {
  if (got.numel() != want.numel()) return false;
  for (std::int64_t j = 0; j < want.numel(); ++j) {
    if (got[j] != want[j]) return false;
  }
  return true;
}

// --- ModelRegistry ---

TEST(ModelRegistry, UnknownIdThrowsAndTryAcquireReturnsNull) {
  snn::ModelRegistry registry;
  EXPECT_THROW((void)registry.acquire("nope"), std::out_of_range);
  EXPECT_EQ(registry.try_acquire("nope"), nullptr);
  EXPECT_FALSE(registry.contains("nope"));
  EXPECT_FALSE(registry.unload("nope"));
}

TEST(ModelRegistry, LoadSwapUnloadLifecycle) {
  Rng rng{7};
  snn::ModelRegistry registry;
  const auto backend = snn::make_backend(snn::BackendKind::kEventSim);
  const auto h_a = registry.load("a", make_net_a(rng), backend, {3, 8, 8});
  const auto h_b = registry.load("b", make_net_b(rng), backend, {1, 12, 12});
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_EQ(registry.size(), 2U);
  // MRU order: the most recent load/acquire leads.
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(registry.acquire("a"), h_a);
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"a", "b"}));

  // Swapping an id bumps the version and flips the mapping; the old handle
  // stays valid for its holders.
  const auto h_a2 = registry.load("a", make_net_a(rng), backend, {3, 8, 8});
  EXPECT_NE(h_a2, h_a);
  EXPECT_GT(h_a2->version(), h_a->version());
  EXPECT_EQ(registry.acquire("a"), h_a2);
  EXPECT_EQ(h_a->id(), "a");  // stale but intact

  const snn::RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.loads, 2U);
  EXPECT_EQ(stats.swaps, 1U);
  EXPECT_EQ(stats.models, 2U);

  EXPECT_TRUE(registry.unload("b"));
  EXPECT_FALSE(registry.contains("b"));
  EXPECT_EQ(registry.stats().unloads, 1U);
  EXPECT_EQ(registry.size(), 1U);
  EXPECT_FALSE(stats.describe().empty());
}

TEST(ModelRegistry, LruEvictionKeepsWarmBytesUnderBudget) {
  Rng rng{11};
  const auto backend = snn::make_backend(snn::BackendKind::kEventSim);
  const auto net1 = make_net_a(rng);
  const auto net2 = make_net_a(rng);
  const auto net3 = make_net_a(rng);

  // Measure per-model pack size with an unbudgeted registry first.
  std::size_t pack_size = 0;
  {
    snn::ModelRegistry probe;
    pack_size = probe.load("probe", net1, backend, {3, 8, 8})->pack_bytes();
    ASSERT_GT(pack_size, 0U);
  }

  // Budget fits two packs but not three.
  snn::RegistryOptions opts;
  opts.max_pack_bytes = 3 * pack_size - 1;
  snn::ModelRegistry registry{opts};
  const auto h1 = registry.load("m1", net1, backend, {3, 8, 8});
  const auto h2 = registry.load("m2", net2, backend, {3, 8, 8});
  const auto h3 = registry.load("m3", net3, backend, {3, 8, 8});

  snn::RegistryStats stats = registry.stats();
  EXPECT_GE(stats.evictions, 1U);
  EXPECT_LE(stats.warm_bytes, opts.max_pack_bytes);
  // m1 was least recently used when m3 warmed, so it paid.
  EXPECT_FALSE(h1->warm());
  EXPECT_TRUE(h3->warm());

  // Pinning the cold model re-warms it (a miss) and evicts another victim to
  // stay under budget; the pin holder's pack is protected.
  {
    const auto pin = registry.pin_for_run(h1);
    EXPECT_TRUE(h1->warm());
    stats = registry.stats();
    EXPECT_GE(stats.misses, 1U);
    EXPECT_GE(stats.evictions, 2U);
    EXPECT_LE(stats.warm_bytes, opts.max_pack_bytes);
  }

  // A warm pinned run is a hit and evicts nothing further.
  {
    const auto pin = registry.pin_for_run(h1);
    EXPECT_GE(registry.stats().hits, 1U);
  }
}

TEST(ModelRegistry, StaleHandleRewarmsOffBudget) {
  Rng rng{13};
  const auto backend = snn::make_backend(snn::BackendKind::kEventSim);
  snn::RegistryOptions opts;
  opts.max_pack_bytes = 1;  // every load evicts every other unpinned pack
  snn::ModelRegistry registry{opts};

  const auto h_old = registry.load("m", make_net_a(rng), backend, {3, 8, 8});
  // Loading a second model evicts the first, so the swap retires a cold
  // handle.
  (void)registry.load("other", make_net_a(rng), backend, {3, 8, 8});
  EXPECT_FALSE(h_old->warm());
  const auto h_new = registry.load("m", make_net_a(rng), backend, {3, 8, 8});
  ASSERT_NE(h_old, h_new);

  // The stale handle still pins and runs: its pack is rebuilt off-budget and
  // dies with the handle, so a queued request admitted pre-swap drains.
  const snn::RegistryStats before = registry.stats();
  {
    const auto pin = registry.pin_for_run(h_old);
    EXPECT_TRUE(h_old->warm());
    EXPECT_EQ(registry.stats().warm_bytes, before.warm_bytes);
    EXPECT_EQ(registry.stats().misses, before.misses + 1);
  }
}

TEST(ModelRegistry, PackFreeBackendIsAlwaysWarmAtZeroBytes) {
  Rng rng{17};
  snn::RegistryOptions opts;
  opts.max_pack_bytes = 1;  // evict-happy budget
  snn::ModelRegistry registry{opts};
  const auto handle = registry.load("reference", make_net_a(rng),
                                    snn::make_backend(snn::BackendKind::kReference), {3, 8, 8});
  EXPECT_TRUE(handle->warm());
  EXPECT_EQ(handle->pack_bytes(), 0U);
  const auto pin = registry.pin_for_run(handle);
  EXPECT_TRUE(handle->warm());
  EXPECT_EQ(registry.stats().warm_bytes, 0U);
  EXPECT_EQ(registry.stats().evictions, 0U);
}

// A load whose pack build throws — here a quantized backend over a net that
// was never log-quantized — must leave the registry as it was: a failed swap
// keeps the old, warm handle under the id, and a failed new load adds no id.
TEST(ModelRegistry, FailedLoadLeavesTheRegistryUnchanged) {
  Rng rng{19};
  snn::ModelRegistry registry;
  const auto event = snn::make_backend(snn::BackendKind::kEventSim);
  const auto h_old = registry.load("m", make_net_a(rng), event, {3, 8, 8});
  ASSERT_TRUE(h_old->warm());
  const snn::RegistryStats before = registry.stats();
  const auto quantized = snn::make_backend(snn::BackendKind::kQuantized);

  EXPECT_THROW((void)registry.load("m", make_net_a(rng), quantized, {3, 8, 8}),
               std::invalid_argument);
  EXPECT_EQ(registry.acquire("m"), h_old);
  EXPECT_TRUE(h_old->warm());

  EXPECT_THROW((void)registry.load("fresh", make_net_a(rng), quantized, {3, 8, 8}),
               std::invalid_argument);
  EXPECT_FALSE(registry.contains("fresh"));

  const snn::RegistryStats after = registry.stats();
  EXPECT_EQ(after.loads, before.loads);
  EXPECT_EQ(after.swaps, before.swaps);
  EXPECT_EQ(after.models, before.models);
  EXPECT_EQ(after.warm_models, before.warm_models);
  EXPECT_EQ(after.warm_bytes, before.warm_bytes);
  EXPECT_EQ(registry.ids(), (std::vector<std::string>{"m"}));
}

// Parks the first ensure_ready until release(): a load stays inside its pack
// build for as long as the test needs to look at the registry.
class BuildGatedBackend final : public test::ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

  void ensure_ready(const snn::SnnNetwork& net) const override {
    {
      std::unique_lock<std::mutex> lock{mu_};
      if (!entered_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
      }
    }
    ForwardingBackend::ensure_ready(net);
  }
  void wait_entered() const {
    std::unique_lock<std::mutex> lock{mu_};
    cv_.wait(lock, [this] { return entered_; });
  }
  void release() const {
    const std::lock_guard<std::mutex> lock{mu_};
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
};

// A load builds its pack outside the registry lock: while one model's build
// is in flight, acquires and run pins of the other models go through.
TEST(ModelRegistry, LoadBuildsThePackWithoutBlockingOtherModels) {
  Rng rng{23};
  snn::ModelRegistry registry;
  const auto event = snn::make_backend(snn::BackendKind::kEventSim);
  const auto h_a = registry.load("a", make_net_a(rng), event, {3, 8, 8});
  const auto gated = std::make_shared<BuildGatedBackend>(event);
  const std::shared_ptr<const snn::SnnNetwork> net_b = make_net_b(rng);

  auto loading = std::async(std::launch::async,
                            [&] { return registry.load("b", net_b, gated, {1, 12, 12}); });
  gated->wait_entered();
  auto others = std::async(std::launch::async, [&] {
    const auto handle = registry.try_acquire("a");
    const auto pin = registry.pin_for_run(h_a);
    return handle;
  });
  // Generous: unblocked, this returns at once; a build under the lock would
  // hold it until the gate opens, so the wait fails the test instead of
  // hanging it.
  const bool served = others.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  gated->release();
  EXPECT_TRUE(served) << "model a waited on model b's pack build";
  EXPECT_EQ(others.get(), h_a);
  const auto h_b = loading.get();
  EXPECT_TRUE(h_b->warm());
  EXPECT_EQ(registry.acquire("b"), h_b);
}

TEST(ModelRegistry, QuantizedBackendShrinksWarmBytesAndEvictsCleanly) {
  // The registry accounts whatever pack a model's backend keeps resident.
  // The same log-quantized network loaded behind the quantized backend must
  // cost <= 0.6x the float event pack (int16 codes vs float32 lanes), and
  // eviction/rewarm must flow through the backend's release/ensure hooks.
  Rng rng{77};
  auto net = make_net_a(rng);
  cat::log_quantize_network(*net, cat::LogQuantConfig{});

  snn::ModelRegistry registry;
  const auto h_float =
      registry.load("float", net, snn::make_backend(snn::BackendKind::kEventSim), {3, 8, 8});
  const auto h_quant =
      registry.load("quant", net, snn::make_backend(snn::BackendKind::kQuantized), {3, 8, 8});
  EXPECT_TRUE(h_float->warm());
  EXPECT_TRUE(h_quant->warm());
  const std::size_t float_bytes = h_float->pack_bytes();
  const std::size_t quant_bytes = h_quant->pack_bytes();
  ASSERT_GT(float_bytes, 0U);
  ASSERT_GT(quant_bytes, 0U);
  EXPECT_LE(static_cast<double>(quant_bytes), 0.6 * static_cast<double>(float_bytes))
      << "quantized " << quant_bytes << " vs float " << float_bytes;
  EXPECT_EQ(registry.stats().warm_bytes, float_bytes + quant_bytes);

  // A budget that fits only the quantized pack: warming it as MRU must evict
  // the float model's pack via InferenceBackend::release_pack.
  snn::RegistryOptions tight;
  tight.max_pack_bytes = quant_bytes;
  snn::ModelRegistry small{tight};
  const auto h_f2 =
      small.load("float", net, snn::make_backend(snn::BackendKind::kEventSim), {3, 8, 8});
  const auto h_q2 =
      small.load("quant", net, snn::make_backend(snn::BackendKind::kQuantized), {3, 8, 8});
  EXPECT_FALSE(h_f2->warm());
  EXPECT_TRUE(h_q2->warm());
  EXPECT_EQ(small.stats().warm_bytes, quant_bytes);
  EXPECT_GE(small.stats().evictions, 1U);

  // Re-pinning the evicted float model rewarms through ensure_ready and
  // evicts the quantized pack in turn; both models keep serving correctly.
  {
    const auto pin = small.pin_for_run(h_f2);
    EXPECT_TRUE(h_f2->warm());
    EXPECT_FALSE(h_q2->warm());
  }
  {
    const auto pin = small.pin_for_run(h_q2);
    EXPECT_TRUE(h_q2->warm());
    snn::InferenceSession session{h_q2->net(), h_q2->backend_ptr()};
    const Tensor img = Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F);
    snn::RunOptions ropts;
    ropts.logits = true;
    const snn::RunResult run = session.run(snn::BatchView{std::vector<const Tensor*>{&img}}, ropts);
    EXPECT_EQ(run.logits.numel(), 10);
  }
}

// --- Registry-fronted SnnServer ---

// One server hosting three differently-shaped models must return
// bit-identical logits per model to three dedicated one-model servers,
// whatever the replica count.
TEST(ServeRegistry, MultiModelMatchesDedicatedServers) {
  Rng rng{23};
  const auto event = snn::make_backend(snn::BackendKind::kEventSim);
  const auto reference = snn::make_backend(snn::BackendKind::kReference);
  const auto net_a = make_net_a(rng);
  const auto net_b = make_net_b(rng);
  const auto net_c = make_net_c(rng);
  const std::int64_t kPerModel = 12;
  const auto images_a = make_images(rng, {3, 8, 8}, kPerModel);
  const auto images_b = make_images(rng, {1, 12, 12}, kPerModel);
  const auto images_c = make_images(rng, {2, 6, 6}, kPerModel);

  // Goldens through dedicated servers, each over its own one-model registry.
  auto dedicated_rows = [](const snn::SnnNetwork& net, std::vector<std::int64_t> shape,
                           std::shared_ptr<const snn::InferenceBackend> backend,
                           const std::vector<Tensor>& images) {
    ServeOptions opts;
    opts.max_batch = 4;
    SnnServer server{test::one_model(net, opts, std::move(backend), std::move(shape))};
    std::vector<std::future<ServeResult>> futures;
    for (const Tensor& img : images) futures.push_back(server.submit(test::kModel, img).result);
    std::vector<Tensor> rows;
    for (auto& f : futures) {
      ServeResult r = f.get();
      EXPECT_EQ(r.status, RequestStatus::kOk);
      rows.push_back(std::move(r.logits));
    }
    return rows;
  };
  const auto golden_a = dedicated_rows(*net_a, {3, 8, 8}, event, images_a);
  const auto golden_b = dedicated_rows(*net_b, {1, 12, 12}, event, images_b);
  const auto golden_c = dedicated_rows(*net_c, {2, 6, 6}, reference, images_c);

  for (const std::int64_t replicas : {1, 2, 4}) {
    auto registry = std::make_shared<snn::ModelRegistry>();
    registry->load("a", net_a, event, {3, 8, 8});
    registry->load("b", net_b, event, {1, 12, 12});
    registry->load("c", net_c, reference, {2, 6, 6});
    ServeOptions opts;
    opts.max_batch = 4;
    opts.replicas = replicas;
    opts.registry = registry;
    SnnServer server{opts};
    EXPECT_EQ(server.models().size(), 3U);

    // Interleave the three models round-robin so their requests contend for
    // the same queue and replicas but must never co-batch.
    std::vector<std::future<ServeResult>> fa, fb, fc;
    for (std::int64_t i = 0; i < kPerModel; ++i) {
      fa.push_back(server.submit("a", images_a[static_cast<std::size_t>(i)]).result);
      fb.push_back(server.submit("b", images_b[static_cast<std::size_t>(i)]).result);
      fc.push_back(server.submit("c", images_c[static_cast<std::size_t>(i)]).result);
    }
    auto check = [&](std::vector<std::future<ServeResult>>& futures,
                     const std::vector<Tensor>& golden, const std::string& model) {
      for (std::size_t i = 0; i < futures.size(); ++i) {
        ServeResult r = futures[i].get();
        ASSERT_EQ(r.status, RequestStatus::kOk) << model << " request " << i;
        EXPECT_EQ(r.model_id, model);
        expect_rows_equal(r.logits, golden[i],
                          "R=" + std::to_string(replicas) + " model " + model + " sample " +
                              std::to_string(i));
        EXPECT_EQ(r.predicted, predicted_class(golden[i]));
      }
    };
    check(fa, golden_a, "a");
    check(fb, golden_b, "b");
    check(fc, golden_c, "c");

    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(3 * kPerModel));
    ASSERT_EQ(stats.models.size(), 3U);
    std::uint64_t model_batches = 0;
    for (const ModelStats& m : stats.models) {
      EXPECT_EQ(m.completed, static_cast<std::uint64_t>(kPerModel)) << m.id;
      model_batches += m.batches;
    }
    // Batches never mix models, so per-model batch counts tile the total.
    EXPECT_EQ(model_batches, stats.batches_formed);
    EXPECT_GE(registry->stats().hits, 1U);
  }
}

// A live swap under concurrent load: every submitted request resolves OK (no
// failed futures), each result bit-matches the old or the new network's
// golden for its image, and in-flight requests admitted before the swap
// drain on the old pack.
TEST(ServeRegistry, LiveSwapUnderLoadDrainsCleanly) {
  Rng rng{29};
  const auto event = snn::make_backend(snn::BackendKind::kEventSim);
  const auto net_old = make_net_a(rng);
  const auto net_new = make_net_a(rng);
  const std::int64_t kDistinct = 6;
  const auto images = make_images(rng, {3, 8, 8}, kDistinct);
  const auto golden_old = golden_rows(*net_old, event, images);
  const auto golden_new = golden_rows(*net_new, event, images);

  auto registry = std::make_shared<snn::ModelRegistry>();
  registry->load("m", net_old, event, {3, 8, 8});
  ServeOptions opts;
  opts.max_batch = 4;
  opts.replicas = 2;
  opts.registry = registry;
  SnnServer server{opts};

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::vector<std::vector<std::pair<std::size_t, std::future<ServeResult>>>> futures(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t idx = static_cast<std::size_t>((t + i) % kDistinct);
        futures[static_cast<std::size_t>(t)].emplace_back(
            idx, server.submit("m", images[idx]).result);
        std::this_thread::yield();
      }
    });
  }
  // Swap mid-traffic: the mapping flips while batches are queued and running.
  registry->load("m", net_new, event, {3, 8, 8});
  for (std::thread& t : submitters) t.join();

  std::size_t matched_old = 0, matched_new = 0;
  for (auto& per_thread : futures) {
    for (auto& [idx, future] : per_thread) {
      ServeResult r = future.get();  // kOk only: no request may fail
      ASSERT_EQ(r.status, RequestStatus::kOk);
      if (rows_bitwise_equal(r.logits, golden_old[idx])) {
        ++matched_old;
      } else {
        expect_rows_equal(r.logits, golden_new[idx], "sample " + std::to_string(idx));
        ++matched_new;
      }
    }
  }
  EXPECT_EQ(matched_old + matched_new,
            static_cast<std::size_t>(kThreads) * static_cast<std::size_t>(kPerThread));
  // Everything submitted after the join must see the new network.
  auto after = server.submit("m", images[0]).result.get();
  ASSERT_EQ(after.status, RequestStatus::kOk);
  expect_rows_equal(after.logits, golden_new[0], "post-swap sample");

  server.stop();
  EXPECT_EQ(registry->stats().swaps, 1U);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kThreads * kPerThread + 1));
}

TEST(ServeRegistry, UnknownModelResolvesRejected) {
  Rng rng{31};
  auto registry = std::make_shared<snn::ModelRegistry>();
  registry->load("known", make_net_a(rng), snn::make_backend(snn::BackendKind::kReference),
                 {3, 8, 8});
  ServeOptions opts;
  opts.registry = registry;
  SnnServer server{opts};
  auto result = server.submit("mystery", Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F)).result.get();
  EXPECT_EQ(result.status, RequestStatus::kRejected);
  EXPECT_EQ(result.model_id, "mystery");
  server.stop();
  EXPECT_GE(server.stats().rejected, 1U);
}

// Load/unload churn must not grow the per-model breakdown: once an id is
// unloaded and nothing of it is queued or running, its slot goes, while the
// global counters and a still-registered model's slot keep their history.
TEST(ServeRegistry, UnloadChurnLeavesNoModelSlots) {
  Rng rng{53};
  const std::shared_ptr<snn::SnnNetwork> net = make_net_a(rng);
  const std::shared_ptr<const snn::InferenceBackend> backend =
      snn::make_backend(snn::BackendKind::kEventSim);
  auto registry = std::make_shared<snn::ModelRegistry>();
  registry->load("resident", net, backend, {3, 8, 8});
  ServeOptions opts;
  opts.registry = registry;
  opts.max_batch = 1;  // one request at a time: no batch waits out max_delay
  SnnServer server{opts};
  const Tensor image = Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F);

  constexpr int kIds = 1000;
  for (int i = 0; i < kIds; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    registry->load(id, net, backend, {3, 8, 8});
    EXPECT_EQ(server.submit(id, image).result.get().status, RequestStatus::kOk) << id;
    EXPECT_EQ(server.submit("resident", image).result.get().status, RequestStatus::kOk);
    ASSERT_TRUE(registry->unload(id));
  }
  const ServerStats stats = server.stats();
  EXPECT_LE(stats.models.size(), registry->size()) << stats.describe();
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].id, "resident");
  EXPECT_EQ(stats.models[0].submitted, static_cast<std::uint64_t>(kIds));
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(2 * kIds));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(2 * kIds));
  test::expect_ledger_balances(stats);
}

TEST(ServeRegistry, ShapeMismatchNamesTheModel) {
  Rng rng{41};
  auto registry = std::make_shared<snn::ModelRegistry>();
  registry->load("a", make_net_a(rng), snn::make_backend(snn::BackendKind::kReference), {3, 8, 8});
  ServeOptions opts;
  opts.registry = registry;
  SnnServer server{opts};
  EXPECT_THROW((void)server.submit("a", Tensor::uniform({1, 12, 12}, rng, 0.0F, 1.0F)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ttfs::serve
