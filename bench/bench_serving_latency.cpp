// Serving throughput/latency under offered load: closed-loop clients against
// SnnServer at a sweep of (replicas, max_batch, concurrent clients)
// configurations on the VGG-style event-sim workload.
//
//   ./build/bench/bench_serving_latency [--requests N] [--reps R]
//                                       [--backend event|reference|quantized]
//                                       [--replicas 1,2,4] [--queue-cap 0]
//                                       [--admission block|reject|shed]
//                                       [--models 2,4] [--clients 8]
//                                       [--pack-budget-mb 0] [--json]
//
// Each cell runs `clients` threads, every thread submitting its share of
// `requests` back to back (submit, wait on the future, repeat), and reports
// completed requests/sec plus enqueue->complete latency p50/p95 recorded *at
// future resolution* on the client side — each ServeResult carries the
// latency the server stamped when the request's promise resolved, and the
// bench feeds it into its own LatencyHistogram the moment .get() returns, so
// the reported quantiles measure exactly what a caller experiences (the
// bench exits nonzero if that histogram ever ends a cell empty). The bench
// also ASSERTS the semantics it documents: every recorded latency_seconds
// must nest inside the client's own submit->get() wall interval — the
// server-stamped enqueue->complete can never exceed what the submitting
// thread observed, so a refactor that silently switches the stamp to
// include client/wire time (the wire bench's job, not this one; see
// docs/benchmarks.md) fails the run instead of drifting the baseline. The
// speedup column compares against max_batch=1 at the same client count,
// replica count and admission configuration.
//
// --replicas/--queue-cap/--admission take comma-separated sweeps; every
// BENCH_serving_latency_<backend>.json row carries the full configuration
// ("backend", "replicas", "queue_cap", "admission" fields), so perf
// trajectories stay keyed per configuration commit over commit. Refused
// requests (possible under reject/shed with a small --queue-cap) are
// reported in the "refused" column and excluded from the latency histogram.
// TTFS_THREADS caps the compute pool as everywhere else.
//
// --models M1,M2,... switches to the MULTI-MODEL sweep instead: each cell
// hosts M distinct models behind one ModelRegistry-fronted server and the
// closed-loop clients spread their requests round-robin across the models,
// so every micro-batch is per-model by construction and the registry's
// hit/miss/eviction counters measure the weight-pack cache under mixed
// traffic. This emits its own table (BENCH_serving_multimodel.json, rows
// keyed by "models" on top of the usual dimensions) and leaves the
// single-model table untouched — the two baselines never mix.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "common.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/cli.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ttfs;

// Same VGG-style conv/pool/fc stack as bench_batch_throughput, so the two
// benches' samples/sec are directly comparable. The quantized backend runs
// the int16 pack, which requires every weight on the log-quantization grid.
snn::SnnNetwork make_net(Rng& rng, snn::BackendKind kind) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({24, 16, 3, 3}, rng, -0.1F, 0.15F),
               Tensor::uniform({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 24 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  if (kind == snn::BackendKind::kQuantized) cat::log_quantize_network(net, cat::LogQuantConfig{});
  return net;
}

std::vector<std::int64_t> parse_int_list(const std::string& csv) {
  std::vector<std::int64_t> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  }
  return out;
}

std::vector<std::string> parse_string_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

struct CellConfig {
  std::int64_t replicas = 1;
  std::size_t queue_cap = 0;
  serve::AdmissionPolicy admission = serve::AdmissionPolicy::kBlock;
  std::int64_t max_batch = 1;
  std::int64_t clients = 1;
};

struct CellResult {
  double rate = 0.0;      // completed requests/sec, best rep
  double p50_ms = 0.0;    // enqueue -> complete, recorded at future resolution
  double p95_ms = 0.0;
  std::uint64_t refused = 0;  // rejected + shed at the best rep
  serve::ServerStats stats;
};

// One sweep cell: `clients` closed-loop threads push `requests` total through
// a fresh server over a one-model registry; best-of-`reps` wall-clock rate. Every resolved future's
// latency is recorded into the bench's own histogram right where .get()
// returns — the quantiles below are measured at future resolution, not from
// the submitting thread's wall clock.
CellResult run_cell(const std::shared_ptr<const snn::SnnNetwork>& net,
                    const std::vector<Tensor>& images,
                    std::shared_ptr<const snn::InferenceBackend> backend,
                    const CellConfig& cfg, int reps) {
  CellResult out;
  const std::int64_t requests = static_cast<std::int64_t>(images.size());
  for (int rep = 0; rep < reps; ++rep) {
    serve::ServeOptions opts;
    opts.max_batch = cfg.max_batch;
    opts.max_delay = std::chrono::microseconds{500};
    opts.replicas = cfg.replicas;
    opts.queue_capacity = cfg.queue_cap;
    opts.admission = cfg.admission;
    opts.registry = std::make_shared<snn::ModelRegistry>();
    opts.registry->load("m", net, backend, {3, 16, 16});
    serve::SnnServer server{opts};

    LatencyHistogram resolved;  // enqueue -> complete, fed at .get() return
    std::mutex resolved_mu;
    std::uint64_t completed = 0;
    std::uint64_t refused = 0;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.clients));
    for (std::int64_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        // Client c owns requests c, c+clients, c+2*clients, ...
        for (std::int64_t i = c; i < requests; i += cfg.clients) {
          const auto submitted = std::chrono::steady_clock::now();
          auto sub = server.submit("m", images[static_cast<std::size_t>(i)]);
          const serve::ServeResult r = sub.result.get();
          // Enqueue->complete nests inside this thread's submit->get
          // interval by construction; a stamp that exceeds it means the
          // latency semantics changed under the bench (see header comment).
          const double observed = serve::seconds_since(submitted);
          if (r.latency_seconds > observed + 1e-3) {
            std::cerr << "FATAL: latency stamp " << r.latency_seconds
                      << "s exceeds the client-observed submit->get interval " << observed
                      << "s — no longer enqueue->complete?\n";
            std::exit(1);
          }
          const std::lock_guard<std::mutex> lock{resolved_mu};
          if (r.status == serve::RequestStatus::kOk) {
            resolved.record(r.latency_seconds);
            ++completed;
          } else {
            ++refused;  // reject/shed under a bounded queue
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    server.stop();

    if (resolved.count() == 0) {
      std::cerr << "FATAL: latency histogram empty for cell replicas=" << cfg.replicas
                << " max_batch=" << cfg.max_batch << " clients=" << cfg.clients
                << " queue_cap=" << cfg.queue_cap << " admission="
                << serve::to_string(cfg.admission) << " — no request completed\n";
      std::exit(1);
    }
    const double rate = static_cast<double>(completed) / secs;
    if (rate > out.rate) {
      out.rate = rate;
      out.p50_ms = resolved.quantile(0.50) * 1e3;
      out.p95_ms = resolved.quantile(0.95) * 1e3;
      out.refused = refused;
      out.stats = server.stats();
    }
  }
  return out;
}

struct MultiModelResult {
  double rate = 0.0;    // completed requests/sec across all models, best rep
  double p50_ms = 0.0;  // enqueue -> complete, recorded at future resolution
  double p95_ms = 0.0;
  serve::ServerStats stats;
  snn::RegistryStats registry;  // weight-pack cache counters at the best rep
};

// One multi-model cell: the first `models` nets behind one registry-fronted
// server, `clients` closed-loop threads spreading `requests` round-robin
// across the models (so every model sees requests/models of the traffic and
// no micro-batch ever mixes models).
MultiModelResult run_multimodel_cell(const std::vector<std::shared_ptr<snn::SnnNetwork>>& nets,
                                     const std::vector<Tensor>& images,
                                     std::shared_ptr<const snn::InferenceBackend> backend,
                                     std::size_t models, std::size_t pack_budget_bytes,
                                     const CellConfig& cfg, int reps) {
  MultiModelResult out;
  const std::int64_t requests = static_cast<std::int64_t>(images.size());
  std::vector<std::string> ids;
  for (std::size_t m = 0; m < models; ++m) ids.push_back("m" + std::to_string(m));
  for (int rep = 0; rep < reps; ++rep) {
    snn::RegistryOptions ropts;
    ropts.max_pack_bytes = pack_budget_bytes;
    auto registry = std::make_shared<snn::ModelRegistry>(ropts);
    for (std::size_t m = 0; m < models; ++m) {
      registry->load(ids[m], nets[m], backend, {3, 16, 16});
    }
    serve::ServeOptions opts;
    opts.max_batch = cfg.max_batch;
    opts.max_delay = std::chrono::microseconds{500};
    opts.replicas = cfg.replicas;
    opts.queue_capacity = cfg.queue_cap;
    opts.admission = cfg.admission;
    opts.registry = registry;
    serve::SnnServer server{opts};

    LatencyHistogram resolved;
    std::mutex resolved_mu;
    std::uint64_t completed = 0;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.clients));
    for (std::int64_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::int64_t i = c; i < requests; i += cfg.clients) {
          const std::string& model = ids[static_cast<std::size_t>(i) % models];
          auto sub = server.submit(model, images[static_cast<std::size_t>(i)]);
          const serve::ServeResult r = sub.result.get();
          const std::lock_guard<std::mutex> lock{resolved_mu};
          if (r.status == serve::RequestStatus::kOk) {
            resolved.record(r.latency_seconds);
            ++completed;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    server.stop();

    if (resolved.count() == 0) {
      std::cerr << "FATAL: latency histogram empty for multimodel cell models=" << models
                << " replicas=" << cfg.replicas << " max_batch=" << cfg.max_batch
                << " clients=" << cfg.clients << " — no request completed\n";
      std::exit(1);
    }
    const double rate = static_cast<double>(completed) / secs;
    if (rate > out.rate) {
      out.rate = rate;
      out.p50_ms = resolved.quantile(0.50) * 1e3;
      out.p95_ms = resolved.quantile(0.95) * 1e3;
      out.stats = server.stats();
      out.registry = registry->stats();
    }
  }
  return out;
}

// The --models sweep: mixed traffic over M models through one server. Its
// own table/baseline (BENCH_serving_multimodel.json); the single-model sweep
// is untouched by this mode.
int run_multimodel(const CliArgs& args, snn::BackendKind kind,
                   std::shared_ptr<const snn::InferenceBackend> backend,
                   const std::vector<std::int64_t>& models_sweep,
                   const std::vector<std::int64_t>& replica_sweep, std::int64_t requests,
                   int reps) {
  const std::string backend_name = snn::to_string(kind);
  const std::vector<std::int64_t> batch_sweep{1, 8};
  const std::int64_t clients = args.get_int("clients", 8);
  const double budget_mb = args.get_double("pack-budget-mb", 0.0);
  const std::size_t pack_budget_bytes =
      static_cast<std::size_t>(budget_mb * 1024.0 * 1024.0);

  std::int64_t max_models = 1;
  for (const std::int64_t m : models_sweep) max_models = std::max(max_models, m);
  Rng rng{42};
  std::vector<std::shared_ptr<snn::SnnNetwork>> nets;
  nets.reserve(static_cast<std::size_t>(max_models));
  for (std::int64_t m = 0; m < max_models; ++m) {
    // Same architecture, distinct weights per model: uniform per-request cost
    // across models, so rate differences measure the multi-model machinery
    // (per-model lanes, session rebinds, pack cache), not workload skew.
    nets.push_back(std::make_shared<snn::SnnNetwork>(make_net(rng, kind)));
  }
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(requests));
  for (std::int64_t i = 0; i < requests; ++i) {
    images.push_back(Tensor::uniform({3, 16, 16}, rng, 0.0F, 1.0F));
  }

  std::cout << "\n### multi-model serving — backend " << backend_name << ", " << requests
            << " requests/cell round-robin across models, " << clients
            << " clients, compute pool of " << global_pool().size() << " worker(s), best of "
            << reps << " reps"
            << (pack_budget_bytes != 0
                    ? ", pack budget " + Table::num(budget_mb, 1) + " MiB"
                    : "")
            << "\n\n";

  Table table{"serving_multimodel"};
  table.set_header({"backend", "models", "replicas", "max_batch", "clients", "reqs/s",
                    "mean batch", "p50 ms", "p95 ms", "hits", "misses", "evictions"});
  for (const std::int64_t models : models_sweep) {
    for (const std::int64_t replicas : replica_sweep) {
      for (const std::int64_t max_batch : batch_sweep) {
        CellConfig cfg;
        cfg.replicas = replicas;
        cfg.max_batch = max_batch;
        cfg.clients = clients;
        const MultiModelResult cell =
            run_multimodel_cell(nets, images, backend, static_cast<std::size_t>(models),
                                pack_budget_bytes, cfg, reps);
        table.add_row({backend_name, std::to_string(models), std::to_string(replicas),
                       std::to_string(max_batch), std::to_string(clients),
                       Table::num(cell.rate, 1), Table::num(cell.stats.mean_batch_size, 2),
                       Table::num(cell.p50_ms, 3), Table::num(cell.p95_ms, 3),
                       std::to_string(cell.registry.hits), std::to_string(cell.registry.misses),
                       std::to_string(cell.registry.evictions)});
      }
    }
  }
  bench::emit(table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const CliArgs args{argc, argv};
  const std::int64_t requests = args.get_int("requests", 96);
  const int reps = args.get_int("reps", 2);
  const std::vector<std::int64_t> batch_sweep{1, 4, 16};
  const std::vector<std::int64_t> client_sweep{1, 4, 16};
  const std::vector<std::int64_t> replica_sweep =
      parse_int_list(args.get_string("replicas", "1,2,4"));
  const std::vector<std::int64_t> cap_sweep =
      parse_int_list(args.get_string("queue-cap", "0"));
  std::vector<serve::AdmissionPolicy> admission_sweep;
  for (const std::string& name : parse_string_list(args.get_string("admission", "block"))) {
    admission_sweep.push_back(serve::admission_policy_from_string(name));
  }

  const snn::BackendKind kind = bench::backend_kind();
  const std::string backend_name = snn::to_string(kind);
  const std::shared_ptr<const snn::InferenceBackend> backend = snn::make_backend(kind);

  const std::vector<std::int64_t> models_sweep =
      parse_int_list(args.get_string("models", ""));
  if (!models_sweep.empty()) {
    return run_multimodel(args, kind, backend, models_sweep, replica_sweep, requests, reps);
  }

  Rng rng{42};
  const auto net = std::make_shared<const snn::SnnNetwork>(make_net(rng, kind));
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(requests));
  for (std::int64_t i = 0; i < requests; ++i) {
    images.push_back(Tensor::uniform({3, 16, 16}, rng, 0.0F, 1.0F));
  }

  std::cout << "\n### serving latency — backend " << backend_name << ", " << requests
            << " requests/cell, compute pool of " << global_pool().size()
            << " worker(s), best of " << reps << " reps\n\n";

  Table table{"serving_latency_" + backend_name};
  table.set_header({"backend", "replicas", "queue_cap", "admission", "max_batch", "clients",
                    "reqs/s", "mean batch", "p50 ms", "p95 ms", "refused",
                    "speedup vs max_batch=1"});

  double batched_speedup_at_load = 0.0;
  for (const serve::AdmissionPolicy admission : admission_sweep) {
    for (const std::int64_t cap : cap_sweep) {
      for (const std::int64_t replicas : replica_sweep) {
        for (const std::int64_t clients : client_sweep) {
          double base_rate = 0.0;
          for (const std::int64_t max_batch : batch_sweep) {
            CellConfig cfg;
            cfg.replicas = replicas;
            cfg.queue_cap = static_cast<std::size_t>(cap);
            cfg.admission = admission;
            cfg.max_batch = max_batch;
            cfg.clients = clients;
            const CellResult cell = run_cell(net, images, backend, cfg, reps);
            if (max_batch == 1) base_rate = cell.rate;
            const double speedup = base_rate > 0.0 ? cell.rate / base_rate : 0.0;
            if (clients == client_sweep.back()) {
              batched_speedup_at_load = std::max(batched_speedup_at_load, speedup);
            }
            table.add_row({backend_name, std::to_string(replicas), std::to_string(cap),
                           serve::to_string(admission), std::to_string(max_batch),
                           std::to_string(clients), Table::num(cell.rate, 1),
                           Table::num(cell.stats.mean_batch_size, 2),
                           Table::num(cell.p50_ms, 3), Table::num(cell.p95_ms, 3),
                           std::to_string(cell.refused), Table::num(speedup, 2) + "x"});
          }
        }
      }
    }
  }
  bench::emit(table);
  std::cout << "batching speedup at full load (clients=" << client_sweep.back()
            << "): " << Table::num(batched_speedup_at_load, 2)
            << "x vs max_batch=1 (expect ~min(cores, max_batch) on an idle host; ~1x on a "
               "single core)\n";
  return 0;
}
