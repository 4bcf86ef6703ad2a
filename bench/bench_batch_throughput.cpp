// Batched-inference throughput: samples/sec of one snn::Engine backend at
// batch sizes 1 / 8 / 64.
//
// Batch 1 is the sequential baseline (the session runs a single sample
// inline on the caller); larger batches fan samples out across the thread
// pool, so on an M-core host the expected speedup approaches min(M, batch).
// The session is bit-identical to the backend's sequential loop (see
// tests/snn_engine_test.cpp), so this measures pure scheduling win.
//
//   ./build/bench/bench_batch_throughput [--samples N] [--reps R]
//                                        [--backend event|reference|quantized]
//                                        [--json]
//
// The backend defaults to the event simulator; CI's perf-smoke job runs one
// pass per backend, so every BENCH_batch_throughput_<backend>.json record
// carries a "backend" field and the per-backend trajectories can be compared
// commit over commit. TTFS_THREADS caps the pool as everywhere else.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "cat/logquant.h"
#include "common.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ttfs;

// A small conv/pool/fc stack on 3x16x16 inputs — big enough that one sample
// takes a measurable slice of a millisecond in the event simulator.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({16, 3, 3, 3}, rng, -0.15F, 0.25F),
               Tensor::uniform({16}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_conv(Tensor::uniform({24, 16, 3, 3}, rng, -0.1F, 0.15F),
               Tensor::uniform({24}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({10, 24 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({10}, rng, -0.05F, 0.05F));
  return net;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const CliArgs args{argc, argv};
  const std::int64_t samples = args.get_int("samples", 64);
  const int reps = args.get_int("reps", 3);
  const std::vector<std::int64_t> batch_sizes{1, 8, 64};

  const snn::BackendKind kind = bench::backend_kind();
  const std::string backend = snn::to_string(kind);

  Rng rng{42};
  snn::SnnNetwork mutable_net = make_net(rng);
  // The quantized backend runs the int16 pack, which requires every weight on
  // the log-quantization grid; the float backends measure the raw net.
  if (kind == snn::BackendKind::kQuantized) {
    cat::log_quantize_network(mutable_net, cat::LogQuantConfig{});
  }
  const snn::SnnNetwork net = std::move(mutable_net);
  const Tensor images = Tensor::uniform({samples, 3, 16, 16}, rng, 0.0F, 1.0F);

  std::cout << "\n### batch throughput — backend " << backend << ", " << samples
            << " samples, pool of " << global_pool().size() << " worker(s), best of " << reps
            << " reps\n\n";

  Table table{"batch_throughput_" + backend};
  table.set_header({"backend", "batch", "samples/s", "speedup vs batch 1"});

  snn::SessionOptions sopts;
  sopts.max_batch_hint = batch_sizes.back();
  sopts.input_shape = {3, 16, 16};
  snn::InferenceSession session = snn::Engine{net}.session(kind, std::move(sopts));
  // Every backend also materializes traces (the hardware model's input).
  snn::RunOptions ropts;
  ropts.logits = true;
  ropts.traces = true;

  std::int64_t checksum = 0;  // keeps the measured work observable
  double base_rate = 0.0;
  for (const std::int64_t batch : batch_sizes) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t at = 0; at < samples; at += batch) {
        const std::int64_t count = std::min(batch, samples - at);
        const Tensor chunk = images.slice0(at, count);
        const snn::RunResult run = session.run(snn::BatchView{chunk}, ropts);
        // Read computed values so the work can't be dead-code eliminated.
        checksum += static_cast<std::int64_t>(run.logits[0] * 1000.0F);
        for (const snn::EventTrace& t : run.traces) checksum += t.total_spikes();
      }
      best = std::max(best, static_cast<double>(samples) / seconds_since(start));
    }
    if (batch == 1) base_rate = best;
    table.add_row({backend, std::to_string(batch), Table::num(best, 1),
                   Table::num(base_rate > 0.0 ? best / base_rate : 0.0, 2) + "x"});
  }
  bench::emit(table);
  std::cout << "(checksum " << checksum << ")\n";
  return 0;
}
