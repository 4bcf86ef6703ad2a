// serve_churn: the in-process SnnServer under closed-loop load with registry
// churn, plus the shared model/pool definitions of the serving workloads and
// the reference check of every workload's committed pool totals.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/server.h"
#include "snn/registry.h"
#include "util/rng.h"

namespace perfbench {

using namespace ttfs;

namespace {

constexpr std::int64_t kServePoolImages = 16;
constexpr int kChurnModels = 4;
constexpr int kChurnClients = 2;
// Client 0 live-swaps one model (round robin) every this many of its requests.
constexpr std::int64_t kSwapEvery = 200;

const std::vector<std::int64_t>& serve_shape() {
  static const std::vector<std::int64_t> shape{3, 16, 16};
  return shape;
}

// m0..m3 on the wire stack, alternating event and quantized backends.
std::vector<Model> churn_models(std::vector<double>* quantize_ms) {
  std::vector<Model> models;
  for (int m = 0; m < kChurnModels; ++m) {
    auto net = std::make_shared<snn::SnnNetwork>(make_wire_net(100 + static_cast<unsigned>(m)));
    const bool quant = m % 2 == 1;
    if (quant) {
      const double ms = quantize(*net);
      if (quantize_ms != nullptr) quantize_ms->push_back(ms);
    }
    models.push_back(Model{"m" + std::to_string(m), net,
                           quant ? snn::BackendKind::kQuantized : snn::BackendKind::kEventSim,
                           serve_shape()});
  }
  return models;
}

// Pack bytes of every model's backend pack, summed (built and released).
std::size_t total_pack_bytes(const std::vector<Model>& models) {
  std::size_t total = 0;
  for (const Model& m : models) {
    const auto backend = snn::make_backend(m.backend);
    backend->ensure_ready(*m.net);
    total += backend->resident_pack_bytes(*m.net);
    backend->release_pack(*m.net);
  }
  return total;
}

// One served request as the client saw it.
struct Sample {
  double done_s = 0.0;  // completion, relative to the timed phase start
  double latency_ms = 0.0;
  double server_ms = 0.0;
  double submit_us = 0.0;
  bool traced = false;
};

struct ChurnStack {
  std::vector<Model> models;
  std::shared_ptr<snn::ModelRegistry> registry;
  std::unique_ptr<serve::SnnServer> server;
};

}  // namespace

int run_serve_churn(const Args& args, Record& rec, std::vector<Span>& spans_out) {
  const std::vector<Tensor> pool = serve_pool();

  // Set-up, repeated: nets + quantize, registry with a half-size pack
  // budget, server up, one warm-up request per model.
  std::vector<double> setup_s, quantize_ms, registry_ms;
  ChurnStack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.server.reset();
    stack = ChurnStack{};
    const std::int64_t t0 = now_ns();
    stack.models = churn_models(&quantize_ms);
    snn::RegistryOptions ropts;
    ropts.max_pack_bytes = total_pack_bytes(stack.models) / 2;
    stack.registry = std::make_shared<snn::ModelRegistry>(ropts);
    const std::int64_t tr = now_ns();
    for (const Model& m : stack.models) {
      stack.registry->load(m.id, m.net, snn::make_backend(m.backend), m.shape);
    }
    registry_ms.push_back(ms_between(tr, now_ns()));
    stack.server = std::make_unique<serve::SnnServer>(serve_options(stack.registry));
    for (const Model& m : stack.models) stack.server->submit(m.id, pool[0]).result.get();
    setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const std::int64_t first_request_ns = now_ns();

  // Expected logits of every (model, image), from direct session runs. On
  // the quantized models the float event sim over the same quantized net
  // must produce the integer artifacts the processor model prices: per-layer
  // spike counts, SOPs, encoder cycles, priced cycles and energy. Spike
  // *timing* is recorded, not gated (see perfbench/README.md).
  std::vector<std::vector<Expected>> expected(stack.models.size());
  PoolTotals totals;
  std::int64_t artifact_mismatches = 0;
  int timing_diffs = 0;
  std::string artifact_error;
  for (std::size_t m = 0; m < stack.models.size(); ++m) {
    exact_pass(stack.models[m], stack.models[m].backend, pool, expected[m], totals);
    if (stack.models[m].backend != snn::BackendKind::kQuantized) continue;
    std::vector<Expected> float_on_quant;
    PoolTotals float_totals;
    exact_pass(stack.models[m], snn::BackendKind::kEventSim, pool, float_on_quant, float_totals);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Expected& a = expected[m][i];
      const Expected& b = float_on_quant[i];
      if (a.layer_spikes != b.layer_spikes || a.layer_ops != b.layer_ops ||
          a.layer_cycles != b.layer_cycles || a.hw_cycles != b.hw_cycles ||
          a.energy_uj != b.energy_uj) {
        ++artifact_mismatches;
        if (artifact_error.empty()) {
          artifact_error = "quantized integer artifacts differ from float event sim (model " +
                           stack.models[m].id + ", image " + std::to_string(i) + ")";
        }
      }
      if (a.spike_hash != b.spike_hash) ++timing_diffs;
    }
  }
  rec.num("quant.spike_timing_diff_images", timing_diffs);
  const snn::RegistryStats reg0 = stack.registry->stats();

  Windows win = make_windows(args);
  std::vector<std::vector<Sample>> samples(kChurnClients);
  std::vector<std::vector<double>> load_ms(kChurnClients);
  std::vector<SpanLog> logs;
  for (int c = 0; c < kChurnClients; ++c) logs.emplace_back(c + 1);
  std::vector<std::int64_t> refused(kChurnClients, 0), mismatched(kChurnClients, 0);
  std::vector<std::string> errors(kChurnClients);

  const auto client = [&](int c) {
    Rng rng{args.seed * 1000 + static_cast<std::uint64_t>(c)};
    SpanLog& log = logs[static_cast<std::size_t>(c)];
    std::int64_t sent = 0;
    std::size_t next_swap = 0;
    for (;;) {
      const std::int64_t t = now_ns();
      if (t >= win.end()) break;
      log.enabled = win.traced(win.index(t));
      if (c == 0 && sent > 0 && sent % kSwapEvery == 0) {
        const Model& m = stack.models[next_swap++ % stack.models.size()];
        auto copy = std::make_shared<snn::SnnNetwork>(*m.net);  // same weights, cold pack
        const std::int64_t l0 = now_ns();
        const std::int64_t span = log.open("registry.load");
        stack.registry->load(m.id, std::move(copy), snn::make_backend(m.backend), m.shape);
        log.close(span);
        load_ms[0].push_back(ms_between(l0, now_ns()));
      }
      const auto m = static_cast<std::size_t>(rng.uniform_int(0, kChurnModels - 1));
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, kServePoolImages - 1));
      Tensor image = pool[i];

      const std::int64_t root = log.open("serve.request");
      const std::int64_t s0 = now_ns();
      const std::int64_t submit_span = log.open("serve.submit", root);
      serve::SnnServer::Submission sub = stack.server->submit(stack.models[m].id, std::move(image));
      log.close(submit_span);
      const std::int64_t s1 = now_ns();
      const std::int64_t get_span = log.open("serve.get", root);
      const serve::ServeResult r = sub.result.get();
      log.close(get_span);
      const std::int64_t s2 = now_ns();
      log.close(root);
      ++sent;

      // A refused request fails; a served one that differs from the direct
      // run is a correctness mismatch.
      const Expected& want = expected[m][i];
      if (r.status != serve::RequestStatus::kOk) {
        ++refused[static_cast<std::size_t>(c)];
      } else if (!same_logits(r.logits.data(), static_cast<std::size_t>(r.logits.numel()),
                              want.logits) ||
                 r.predicted != want.predicted) {
        ++mismatched[static_cast<std::size_t>(c)];
        if (errors[static_cast<std::size_t>(c)].empty()) {
          errors[static_cast<std::size_t>(c)] =
              "serve response differs from a direct session run (model " + stack.models[m].id +
              ", image " + std::to_string(i) + ")";
        }
      }
      samples[static_cast<std::size_t>(c)].push_back(
          Sample{ms_between(win.t0, s2) * 1e-3, ms_between(s0, s2), r.latency_seconds * 1e3,
                 ms_between(s0, s1) * 1e3, log.enabled});
    }
  };

  win.t0 = now_ns();
  HostSampler host{win};
  std::vector<std::thread> clients;
  for (int c = 0; c < kChurnClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();

  const serve::ServerStats ss = stack.server->stats();
  const snn::RegistryStats reg1 = stack.registry->stats();
  stack.server->stop();

  std::vector<double> done_s, lat_ms, server_ms, submit_us, traced;
  std::int64_t refusals = 0, mismatches = 0;
  std::string first_error = artifact_error;
  for (int c = 0; c < kChurnClients; ++c) {
    for (const Sample& s : samples[static_cast<std::size_t>(c)]) {
      done_s.push_back(s.done_s);
      lat_ms.push_back(s.latency_ms);
      server_ms.push_back(s.server_ms);
      submit_us.push_back(s.submit_us);
      traced.push_back(s.traced ? 1.0 : 0.0);
    }
    refusals += refused[static_cast<std::size_t>(c)];
    mismatches += mismatched[static_cast<std::size_t>(c)];
    if (first_error.empty()) first_error = errors[static_cast<std::size_t>(c)];
    const auto& spans = logs[static_cast<std::size_t>(c)].spans();
    spans_out.insert(spans_out.end(), spans.begin(), spans.end());
  }

  record_windows(rec, win);
  rec.arr("setup_s", setup_s);
  rec.arr("setup.quantize_ms", quantize_ms);
  rec.arr("setup.registry_ms", registry_ms);
  rec.num("first_request_s", static_cast<double>(first_request_ns) * 1e-9);
  rec.arr("req.done_s", done_s);
  rec.arr("req.latency_ms", lat_ms);
  rec.arr("req.server_ms", server_ms);
  rec.arr("req.submit_us", submit_us);
  rec.arr("req.traced", traced);
  rec.arr("registry.load_ms", load_ms[0]);
  rec.num("attempted", static_cast<double>(done_s.size()));
  rec.num("failed", static_cast<double>(refusals + mismatches));
  rec.num("serve.mean_batch", ss.mean_batch_size);
  rec.num("registry.hits", static_cast<double>(reg1.hits - reg0.hits));
  rec.num("registry.misses", static_cast<double>(reg1.misses - reg0.misses));
  rec.num("registry.evictions", static_cast<double>(reg1.evictions - reg0.evictions));
  rec.num("registry.swaps", static_cast<double>(reg1.swaps - reg0.swaps));
  host.record(rec);
  rec.num("replicas", 2);
  rec.num("connections", kChurnClients);
  record_totals(rec, totals);
  rec.str("error", first_error);
  return static_cast<int>(mismatches + artifact_mismatches);
}

std::vector<Model> wire_models() {
  std::vector<Model> models;
  for (int m = 0; m < 2; ++m) {
    models.push_back(Model{"m" + std::to_string(m),
                           std::make_shared<snn::SnnNetwork>(
                               make_wire_net(42 + static_cast<unsigned>(m))),
                           snn::BackendKind::kEventSim, serve_shape()});
  }
  return models;
}

std::vector<Tensor> serve_pool() { return make_pool(kServePoolImages, serve_shape()); }

serve::ServeOptions serve_options(std::shared_ptr<snn::ModelRegistry> registry) {
  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.max_delay = std::chrono::microseconds{500};
  opts.replicas = 2;
  opts.queue_capacity = 256;
  opts.admission = serve::AdmissionPolicy::kRejectWhenFull;
  opts.registry = std::move(registry);
  return opts;
}

int run_check_reference(Record& rec) {
  // Each workload's (model x image) pool on ReferenceBackend. For quantized
  // models the reference runs the float simulator over the quantized net;
  // the integer artifacts and priced cost it yields are what the quantized
  // backend must reproduce.
  struct Case {
    std::string workload;
    std::vector<Model> models;
    std::vector<Tensor> pool;
  };
  std::vector<Case> cases;
  const std::vector<std::int64_t> sim_shape{3, 32, 32};
  auto vgg = std::make_shared<snn::SnnNetwork>(make_vgg_style());
  cases.push_back({"sim_float", {Model{"vgg", vgg, snn::BackendKind::kEventSim, sim_shape}},
                   make_pool(32, sim_shape)});
  cases.push_back({"wire_poisson", wire_models(), serve_pool()});
  cases.push_back({"serve_churn", churn_models(nullptr), serve_pool()});
  for (const Case& c : cases) {
    PoolTotals totals;
    for (const Model& m : c.models) {
      std::vector<Expected> out;
      exact_pass(m, snn::BackendKind::kReference, c.pool, out, totals);
    }
    record_totals(rec, totals, c.workload + ".pool.");
  }
  return 0;
}

}  // namespace perfbench
