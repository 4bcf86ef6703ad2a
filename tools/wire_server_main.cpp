// ttfs_wire_server — standalone wire-protocol serving process.
//
// Hosts N synthetic VGG-style TTFS models (the same architecture and seeds as
// bench_serving_latency, so wire numbers are comparable to the in-process
// bench) behind a ModelRegistry-fronted SnnServer with a net::WireServer
// front end:
//
//   ./build/tools/ttfs_wire_server [--port 0] [--bind 127.0.0.1]
//       [--models 1] [--replicas 2] [--max-batch 8] [--max-delay-us 500]
//       [--queue-cap 0] [--admission reject|shed|block]
//       [--backend event|reference|quantized]
//       [--idle-timeout-ms 30000] [--port-file path]
//
// Models are registered as "m0".."m{N-1}" with input shape (3, 16, 16);
// "m0" is the default model. --port 0 (the default) binds an ephemeral port;
// the actual port is printed on the "listening on" line and, with
// --port-file, written bare to that file so scripts (tests/ci_wire_smoke.sh)
// can pick it up without parsing stdout.
//
// Runs until SIGINT/SIGTERM, then drains gracefully (wire layer first, then
// the serve layer) and prints the wire + serve counters. Overload policy is
// whatever --admission says, `reject` by default: once --queue-cap bounds
// the queue, `block` would park the shared IO thread, and with it every
// connection, on a full queue (docs/serving.md). With the default unbounded
// queue no policy ever engages.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cat/logquant.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ttfs;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

// Same VGG-style conv/pool/fc stack as bench_serving_latency::make_net, so
// wire-served reqs/s lines up with the in-process serving bench. The
// quantized backend runs the int16 pack, which requires every weight on the
// log-quantization grid.
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

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args{argc, argv};
  const int models = args.get_int("models", 1);
  const std::string backend_name = args.get_string("backend", "event");
  const snn::BackendKind kind = snn::backend_kind_from_string(backend_name);
  const auto backend = snn::make_backend(kind);

  Rng rng{42};
  auto registry = std::make_shared<snn::ModelRegistry>();
  std::vector<std::string> ids;
  for (int m = 0; m < models; ++m) {
    ids.push_back("m" + std::to_string(m));
    registry->load(ids.back(), std::make_shared<snn::SnnNetwork>(make_net(rng, kind)), backend,
                   {3, 16, 16});
  }

  serve::ServeOptions opts;
  opts.max_batch = args.get_int("max-batch", 8);
  opts.max_delay = std::chrono::microseconds{args.get_int("max-delay-us", 500)};
  opts.replicas = args.get_int("replicas", 2);
  opts.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 0));
  opts.admission = serve::admission_policy_from_string(args.get_string("admission", "reject"));
  opts.registry = registry;
  serve::SnnServer server{opts};

  net::WireOptions wopts;
  wopts.bind_address = args.get_string("bind", "127.0.0.1");
  wopts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  wopts.idle_timeout = std::chrono::milliseconds{args.get_int("idle-timeout-ms", 30000)};
  net::WireServer wire{server, wopts};

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::cout << "ttfs_wire_server listening on " << wopts.bind_address << ":" << wire.port()
            << " — " << models << " model(s) [" << ids.front()
            << (models > 1 ? ".." + ids.back() : "") << "], backend " << backend_name
            << ", replicas " << opts.replicas << ", max_batch " << opts.max_batch
            << ", admission " << serve::to_string(opts.admission)
            << (opts.queue_capacity != 0
                    ? ", queue_cap " + std::to_string(opts.queue_capacity)
                    : "")
            << std::endl;
  const std::string port_file = args.get_string("port-file", "");
  if (!port_file.empty()) {
    std::ofstream f{port_file};
    f << wire.port() << "\n";
  }

  while (!g_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  }

  std::cout << "draining..." << std::endl;
  wire.stop();    // stop reading, answer everything in flight, flush, close
  server.stop();  // then drain the serve layer itself

  const net::WireStats ws = wire.stats();
  const serve::ServerStats ss = server.stats();
  std::cout << "wire: " << ws.accepted << " conns, " << ws.requests << " requests, "
            << ws.responses << " responses, " << ws.protocol_errors << " protocol errors, "
            << ws.idle_closed << " idle-closed, " << ws.read_pauses << " read pauses, "
            << ws.bytes_in << "B in / " << ws.bytes_out << "B out\n"
            << "serve: " << ss.completed << " completed, " << ss.rejected << " rejected, "
            << ss.shed << " shed, mean batch " << ss.mean_batch_size << "\n";
  return 0;
}
