// Shared fixtures of the serving test suites: the small conv/pool/fc net
// they serve, ServeOptions over a one-model registry holding it, the ledger
// check, and decorator backends that gate or fail samples.
#pragma once

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/rng.h"

namespace ttfs::serve::test {

// Small conv/pool/fc stack on 3x8x8 inputs; cheap enough for TSan runs.
inline snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

inline Tensor make_image(Rng& rng) { return Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F); }

inline std::vector<Tensor> make_images(Rng& rng, std::int64_t n) {
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) images.push_back(make_image(rng));
  return images;
}

// The id a one-model server hosts its network under.
inline const std::string kModel = "m";

// `opts` fronting a fresh registry that holds `net` as kModel on `backend`
// (event simulator when null) for (C, H, W) `input_shape`. The registry does
// not own `net`: it must outlive the server.
inline ServeOptions one_model(const snn::SnnNetwork& net, ServeOptions opts = {},
                              std::shared_ptr<const snn::InferenceBackend> backend = nullptr,
                              std::vector<std::int64_t> input_shape = {3, 8, 8}) {
  opts.registry = std::make_shared<snn::ModelRegistry>();
  opts.registry->load(
      kModel, std::shared_ptr<const snn::SnnNetwork>{std::shared_ptr<const void>{}, &net},
      backend != nullptr ? std::move(backend) : snn::make_backend(snn::BackendKind::kEventSim),
      std::move(input_shape));
  return opts;
}

// The serve ledger of a settled server (nothing queued, nothing running):
// every counted submit ended served, failed, or refused at the door, for the
// server as a whole and for each registered model.
inline void expect_ledger_balances(const ServerStats& stats) {
  EXPECT_EQ(stats.queue_depth, 0U) << "ledger read while requests are queued";
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.failed + stats.rejected + stats.rejected_overload)
      << stats.describe();
  std::uint64_t model_submitted = 0;
  for (const ModelStats& m : stats.models) {
    EXPECT_EQ(m.submitted, m.completed + m.failed + m.rejected + m.rejected_overload)
        << "model " << m.id;
    model_submitted += m.submitted;
  }
  // Submits naming an unknown id count globally, as rejected, and nowhere else.
  EXPECT_LE(model_submitted, stats.submitted);
}

// Caller-defined backends: decorators over a stock backend. A decorator
// forwards the three pack hooks, so it keeps whichever pack (float or
// quantized) the wrapped backend runs on; subclasses hook run_sample.
class ForwardingBackend : public snn::InferenceBackend {
 public:
  explicit ForwardingBackend(std::shared_ptr<const snn::InferenceBackend> inner)
      : inner_{std::move(inner)} {}

  std::string name() const override { return inner_->name(); }
  void ensure_ready(const snn::SnnNetwork& net) const override { inner_->ensure_ready(net); }
  std::size_t resident_pack_bytes(const snn::SnnNetwork& net) const override {
    return inner_->resident_pack_bytes(net);
  }
  void release_pack(const snn::SnnNetwork& net) const override { inner_->release_pack(net); }
  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, snn::EventTrace& into) const override {
    inner_->run_sample(net, batch, i, arena, into);
  }

 private:
  std::shared_ptr<const snn::InferenceBackend> inner_;
};

// Holds every sample at the gate until release(): the replica running it
// stays busy for as long as the test needs to look at the server.
class GatedBackend final : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, snn::EventTrace& into) const override {
    {
      std::unique_lock<std::mutex> lock{mu_};
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    ForwardingBackend::run_sample(net, batch, i, arena, into);
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

// Opens the gate when it goes out of scope. Declared after the servers it
// guards, it runs before their destructors drain the replicas, so a failed
// assertion ends the test instead of hanging it.
class OpenGateOnExit {
 public:
  explicit OpenGateOnExit(const GatedBackend& gate) : gate_{gate} {}
  ~OpenGateOnExit() { gate_.release(); }
  OpenGateOnExit(const OpenGateOnExit&) = delete;
  OpenGateOnExit& operator=(const OpenGateOnExit&) = delete;

 private:
  const GatedBackend& gate_;
};

// Throws on any sample whose first pixel is negative (request images are
// drawn from [0, 1), so a test poisons one by hand).
class ThrowingBackend final : public ForwardingBackend {
 public:
  using ForwardingBackend::ForwardingBackend;

  void run_sample(const snn::SnnNetwork& net, const snn::BatchView& batch, std::int64_t i,
                  snn::SimArena& arena, snn::EventTrace& into) const override {
    if (batch.sample(i)[0] < 0.0F) throw std::runtime_error{"poisoned sample"};
    ForwardingBackend::run_sample(net, batch, i, arena, into);
  }
};

}  // namespace ttfs::serve::test
