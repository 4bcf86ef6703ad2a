// Serving walkthrough: the request-level API over the SNN inference core.
//
//   ./build/examples/serving_demo [--requests 12] [--clients 3]
//                                 [--max-batch 4] [--max-delay-us 2000]
//                                 [--replicas 2]
//                                 [--backend event|reference|quantized]
//
// Five things in ~180 lines:
//   1. concurrent clients submit single images and get futures back;
//   2. the dynamic micro-batcher forms batches (size or deadline) that
//      --replicas replica sessions pop as they free up, over the injected
//      snn::InferenceBackend, and the per-request results are bit-identical
//      to sequential inference on that backend whichever replica served them;
//   3. graceful drain, with the server's own stats line;
//   4. overload: a bounded submit queue refuses what a burst brings past its
//      capacity, at once, and serves everything it admitted;
//   5. multi-model serving: several models behind one snn::ModelRegistry,
//      per-model micro-batches, and a live hot-swap of one model's weights
//      under concurrent load — in-flight requests drain on the old weights,
//      new submissions pick up the new ones, nothing fails.
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace ttfs;

namespace {

// The demo's conv/pool/fc stack on 3x8x8 inputs; each call draws fresh
// weights, so two calls give two genuinely different models. The quantized
// backend runs the int16 pack, which requires every weight on the
// log-quantization grid.
std::shared_ptr<snn::SnnNetwork> make_net(Rng& rng, snn::BackendKind kind) {
  auto net = std::make_shared<snn::SnnNetwork>(snn::Base2Kernel{24, 4.0, 1.0});
  net->add_conv(Tensor::uniform({8, 3, 3, 3}, rng, -0.15F, 0.25F),
                Tensor::uniform({8}, rng, -0.05F, 0.1F), 1, 1);
  net->add_pool(2, 2);
  net->add_fc(Tensor::uniform({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
              Tensor::uniform({10}, rng, -0.05F, 0.05F));
  if (kind == snn::BackendKind::kQuantized) cat::log_quantize_network(*net, cat::LogQuantConfig{});
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args{argc, argv};
  const std::int64_t requests = args.get_int("requests", 12);
  const std::int64_t clients = args.get_int("clients", 3);
  const std::int64_t max_batch = args.get_int("max-batch", 4);
  const int max_delay_us = args.get_int("max-delay-us", 2000);
  const std::int64_t replicas = args.get_int("replicas", 2);
  const snn::BackendKind kind =
      snn::backend_kind_from_string(args.get_string("backend", "event"));

  // A small random-weight TTFS net on 3x8x8 inputs — the serving layer works
  // the same for a CAT-trained, converted network (see quickstart.cpp).
  // Every server fronts a ModelRegistry; a single network is a one-model
  // registry. Any snn::InferenceBackend plugs in at load() — stock or
  // caller-defined.
  Rng rng{42};
  const std::shared_ptr<const snn::InferenceBackend> backend = snn::make_backend(kind);
  serve::ServeOptions opts;
  opts.max_batch = max_batch;
  opts.max_delay = std::chrono::microseconds{max_delay_us};
  opts.replicas = replicas;  // R sessions over one shared backend
  opts.registry = std::make_shared<snn::ModelRegistry>();
  opts.registry->load("demo", make_net(rng, kind), backend, {3, 8, 8});
  serve::SnnServer server{opts};
  std::cout << "server up: max_batch=" << max_batch << " max_delay=" << max_delay_us
            << "us replicas=" << server.replicas() << " backend=" << backend->name() << "\n";

  // Concurrent clients, each submitting its share and printing as results
  // land. Futures make the blocking point explicit per request.
  std::mutex print_mu;
  std::vector<std::thread> workers;
  for (std::int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      Rng image_rng{100 + static_cast<std::uint64_t>(c)};
      for (std::int64_t i = c; i < requests; i += clients) {
        auto sub = server.submit("demo", Tensor::uniform({3, 8, 8}, image_rng, 0.0F, 1.0F));
        serve::ServeResult r = sub.result.get();
        const std::lock_guard<std::mutex> lock{print_mu};
        std::cout << "  client " << c << " request " << i << ": class " << r.predicted
                  << " in " << r.latency_seconds * 1e3 << " ms ("
                  << r.stats.avg_firing_rate() * 100 << "% firing)\n";
      }
    });
  }
  for (auto& w : workers) w.join();

  // Graceful drain: with a long deadline and nothing else queued, the
  // request sits in the batcher until stop() flushes it as a final batch.
  serve::ServeOptions slow = opts;
  slow.max_delay = std::chrono::seconds{10};
  serve::SnnServer slow_server{slow};
  auto parked = slow_server.submit("demo", Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F));
  slow_server.stop();
  std::cout << "stop() drained the parked request: status kOk=" << std::boolalpha
            << (parked.result.get().status == serve::RequestStatus::kOk) << "\n";

  server.stop();  // graceful: drains anything still pending
  std::cout << "stats: " << server.stats().describe() << "\n";
  for (const serve::ReplicaStats& r : server.stats().replicas) {
    std::cout << "  replica: " << r.completed << " served in " << r.batches
              << " batches (mean " << r.mean_batch_size << ")\n";
  }

  // Overload: a queue of 4 slots behind a stalled batcher (long deadline, big
  // max_batch) takes a burst of 10. The 5th..10th are refused at the door
  // (kRejected, counted as overload-rejected) while the first four wait and
  // are served: the server degrades predictably instead of queueing without
  // bound, and nothing it admitted is dropped.
  serve::ServeOptions overload = opts;
  overload.max_batch = 16;
  overload.max_delay = std::chrono::milliseconds{200};
  overload.queue_capacity = 4;
  serve::SnnServer bursty{overload};
  std::vector<serve::SnnServer::Submission> burst;
  for (int i = 0; i < 10; ++i) {
    burst.push_back(bursty.submit("demo", Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F)));
  }
  int ok = 0, refused = 0;
  for (auto& sub : burst) {
    const serve::RequestStatus status = sub.result.get().status;
    (status == serve::RequestStatus::kOk ? ok : refused)++;
  }
  bursty.stop();
  std::cout << "overload (capacity 4): " << ok << " served, " << refused << " refused -> "
            << bursty.stats().describe() << "\n";

  // Multi-model serving with a live hot-swap under load: two models behind
  // one ModelRegistry-fronted server. Clients name a model per request,
  // batches never mix models, and mid-traffic we swap "alpha"'s weights —
  // requests already in flight drain on the OLD weights (their handle lease
  // keeps net + weight pack alive), later submissions run the NEW ones, and
  // every future resolves kOk.
  auto registry = std::make_shared<snn::ModelRegistry>();
  registry->load("alpha", make_net(rng, kind), backend, {3, 8, 8});
  registry->load("beta", make_net(rng, kind), backend, {3, 8, 8});
  serve::ServeOptions multi = opts;
  multi.registry = registry;
  serve::SnnServer zoo{multi};
  std::cout << "multi-model server up: models alpha+beta, replicas=" << zoo.replicas() << "\n";

  std::vector<std::thread> mixed;
  for (std::int64_t c = 0; c < 2; ++c) {
    mixed.emplace_back([&, c] {
      Rng image_rng{200 + static_cast<std::uint64_t>(c)};
      for (int i = 0; i < 12; ++i) {
        const std::string model = (i % 2 == 0) ? "alpha" : "beta";
        auto sub = zoo.submit(model, Tensor::uniform({3, 8, 8}, image_rng, 0.0F, 1.0F));
        serve::ServeResult r = sub.result.get();
        const std::lock_guard<std::mutex> lock{print_mu};
        std::cout << "  [" << r.model_id << "] request " << i << ": class "
                  << r.predicted << " (" << (r.status == serve::RequestStatus::kOk
                                                 ? "ok" : "refused") << ")\n";
      }
    });
  }
  // Hot-swap while the clients are mid-stream: the id flips to fresh weights
  // atomically; nothing running is disturbed.
  registry->load("alpha", make_net(rng, kind), backend, {3, 8, 8});
  {
    const std::lock_guard<std::mutex> lock{print_mu};
    std::cout << "  >> swapped model 'alpha' under load (version now "
              << registry->acquire("alpha")->version() << ")\n";
  }
  for (auto& t : mixed) t.join();
  zoo.stop();
  std::cout << "registry: " << registry->stats().describe() << "\n";
  for (const serve::ModelStats& m : zoo.stats().models) {
    std::cout << "  model " << m.id << ": " << m.completed << " served in " << m.batches
              << " batches (mean " << m.mean_batch_size << "), p95 " << m.latency_p95_ms
              << " ms\n";
  }
  return 0;
}
