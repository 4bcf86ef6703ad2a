// wire_poisson: open-loop Poisson load over loopback TCP into an in-process
// net::WireServer fronting the ttfs_wire_server configuration (2 event
// models, 2 replicas, max_batch 8, max_delay 500 us, bounded queue with the
// reject policy). One client thread drives 2 connections and times every
// request from its *scheduled* send, so a stall on either side counts
// against latency instead of silently lowering the offered rate.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "net/epoll_loop.h"
#include "net/protocol.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "snn/registry.h"
#include "util/fd.h"
#include "util/rng.h"

namespace perfbench {

using namespace ttfs;

namespace {

// Offered rate: a quarter of this configuration's capacity on a 4-core x86
// host (offered 6000 req/s, it served ~4200/s and rejected the rest), so the
// run measures latency at a fixed load rather than a growing backlog.
constexpr double kRatePerS = 1000.0;
constexpr int kConnections = 2;
constexpr std::int64_t kWarmupRequests = 64;
// After the schedule ends, outstanding requests get this long to complete
// before they count as failed.
constexpr std::int64_t kDrainNs = 2'000'000'000;
constexpr std::uint64_t kTimerKey = 1000;

// One scheduled request and what happened to it.
struct Request {
  std::int64_t due = 0;  // scheduled send, ns on the harness clock
  std::size_t model = 0;
  std::size_t image = 0;
  std::int64_t send0 = 0, send1 = 0;  // send() call
  std::int64_t read0 = 0;             // start of the read that completed it
  std::int64_t done = 0;              // response parsed
  double server_ms = 0.0;
};

// Client side: N nonblocking loopback connections plus a timerfd on one
// epoll loop, single-threaded.
class WireClient {
 public:
  WireClient(std::uint16_t port, int connections) {
    for (int c = 0; c < connections; ++c) {
      util::Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (!fd.valid() ||
          ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error(std::string{"connect: "} + std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      util::set_nonblocking(fd.get());
      if (!loop_.add(fd.get(), EPOLLIN, static_cast<std::uint64_t>(c))) {
        throw std::runtime_error("epoll add failed");
      }
      conns_.push_back(std::make_unique<Conn>(std::move(fd)));
    }
    timer_.reset(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
    if (!timer_.valid() || !loop_.add(timer_.get(), EPOLLIN, kTimerKey)) {
      throw std::runtime_error("timerfd setup failed");
    }
  }

  // Writes a whole frame; loopback buffers absorb the open-loop rate, so a
  // short write only spins until the kernel takes the rest.
  void send(std::size_t c, const std::vector<std::uint8_t>& frame) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(conns_[c]->fd.get(), frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        throw std::runtime_error(std::string{"send: "} + std::strerror(errno));
      }
    }
  }

  // Sleeps until `deadline` (harness clock) or readable responses, then
  // hands each parsed response to on_response(response, read_start).
  template <typename F>
  void poll(std::int64_t deadline, F&& on_response) {
    const std::int64_t wait = std::max<std::int64_t>(1000, deadline - now_ns());
    itimerspec spec{};
    spec.it_value.tv_sec = wait / 1'000'000'000;
    spec.it_value.tv_nsec = wait % 1'000'000'000;
    ::timerfd_settime(timer_.get(), 0, &spec, nullptr);
    loop_.wait(-1, &events_);
    for (const epoll_event& ev : events_) {
      if (ev.data.u64 == kTimerKey) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_.get(), &expirations, sizeof(expirations));
        continue;
      }
      if (ev.data.u64 >= conns_.size()) continue;
      Conn& conn = *conns_[ev.data.u64];
      for (;;) {
        const std::int64_t read0 = now_ns();
        auto [buf, len] = conn.parser.read_slot();
        const ssize_t n = ::read(conn.fd.get(), buf, len);
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) break;
          throw std::runtime_error(std::string{"read: "} + std::strerror(errno));
        }
        const auto event = conn.parser.consume(static_cast<std::size_t>(n));
        if (event == net::ResponseParser::Event::kBad) {
          throw std::runtime_error("unframeable response: " + conn.parser.error());
        }
        if (event == net::ResponseParser::Event::kResponse) {
          on_response(conn.parser.response(), read0);
        }
      }
    }
  }

 private:
  struct Conn {
    explicit Conn(util::Fd f) : fd{std::move(f)} {}
    util::Fd fd;
    net::ResponseParser parser;
  };

  net::EpollLoop loop_;
  std::vector<std::unique_ptr<Conn>> conns_;
  util::Fd timer_;
  std::vector<epoll_event> events_;
};

// Everything one set-up builds; destroyed client first, server last.
struct WireStack {
  std::vector<Model> models;
  std::shared_ptr<snn::ModelRegistry> registry;
  std::unique_ptr<serve::SnnServer> server;
  std::unique_ptr<net::WireServer> wire;
  std::unique_ptr<WireClient> client;

  void reset() {
    client.reset();
    wire.reset();
    server.reset();
    registry.reset();
    models.clear();
  }
};

// Pre-encoded request frames per (model, image); the request id is patched
// in at its header offset before each send.
using Frames = std::vector<std::vector<std::vector<std::uint8_t>>>;

void set_request_id(std::vector<std::uint8_t>& frame, std::uint64_t id) {
  std::memcpy(frame.data() + 8, &id, sizeof(id));
}

}  // namespace

int run_wire_poisson(const Args& args, Record& rec, std::vector<Span>& spans_out) {
  const std::vector<Tensor> pool = serve_pool();
  // Set-up, repeated: nets, registry, server, wire front end, connections,
  // closed-loop warm-up.
  std::vector<double> setup_s;
  WireStack stack;
  Frames frames;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack.models = wire_models();
    stack.registry = std::make_shared<snn::ModelRegistry>();
    for (const Model& m : stack.models) {
      stack.registry->load(m.id, m.net, snn::make_backend(m.backend), m.shape);
    }
    stack.server = std::make_unique<serve::SnnServer>(serve_options(stack.registry));
    stack.wire = std::make_unique<net::WireServer>(*stack.server, net::WireOptions{});
    stack.client = std::make_unique<WireClient>(stack.wire->port(), kConnections);
    frames.assign(stack.models.size(), {});
    for (std::size_t m = 0; m < stack.models.size(); ++m) {
      for (const Tensor& image : pool) {
        frames[m].push_back(net::encode_request(0, stack.models[m].id, image));
      }
    }
    for (std::int64_t k = 0; k < kWarmupRequests; ++k) {
      auto& frame = frames[static_cast<std::size_t>(k) % frames.size()]
                          [static_cast<std::size_t>(k) % pool.size()];
      set_request_id(frame, static_cast<std::uint64_t>(k));
      stack.client->send(static_cast<std::size_t>(k % kConnections), frame);
      bool answered = false;
      while (!answered) {
        stack.client->poll(now_ns() + 1'000'000'000,
                           [&](net::WireResponse&, std::int64_t) { answered = true; });
      }
    }
    setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  const std::int64_t first_request_ns = now_ns();

  // Expected logits of every (model, image), from direct session runs.
  std::vector<std::vector<Expected>> expected(stack.models.size());
  PoolTotals totals;
  for (std::size_t m = 0; m < stack.models.size(); ++m) {
    exact_pass(stack.models[m], stack.models[m].backend, pool, expected[m], totals);
  }

  // The seeded open-loop schedule: exponential gaps at kRatePerS, models and
  // images uniform.
  Windows win = make_windows(args);
  Rng rng{args.seed};
  std::vector<Request> reqs;
  const double phase_s = win.count * win.window_s;
  for (double t = -std::log(1.0 - rng.uniform(0.0, 1.0)) / kRatePerS; t < phase_s;
       t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / kRatePerS) {
    Request r;
    r.due = static_cast<std::int64_t>(t * 1e9);
    r.model = static_cast<std::size_t>(rng.uniform_int(0, 1));
    r.image = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    reqs.push_back(r);
  }

  const net::WireStats wire0 = stack.wire->stats();
  const snn::RegistryStats reg0 = stack.registry->stats();
  // A refused request fails; a served one that differs from the direct run
  // is a correctness mismatch.
  std::int64_t refused = 0, mismatched = 0, outstanding = 0;
  std::string first_error;
  const auto on_response = [&](net::WireResponse& resp, std::int64_t read0) {
    const std::int64_t t = now_ns();
    if (resp.request_id >= reqs.size() || reqs[resp.request_id].done != 0) {
      throw std::runtime_error("response for an unknown request id");
    }
    Request& r = reqs[resp.request_id];
    r.done = t;
    r.read0 = std::max(read0, r.send1);
    r.server_ms = resp.latency_seconds * 1e3;
    --outstanding;
    if (resp.type != net::MessageType::kResult || resp.status != net::WireStatus::kOk) {
      ++refused;
      return;
    }
    const Expected& want = expected[r.model][r.image];
    if (resp.predicted != want.predicted ||
        !same_logits(resp.logits.data(), resp.logits.size(), want.logits)) {
      ++mismatched;
      if (first_error.empty()) {
        first_error = "wire response differs from a direct session run (model " +
                      stack.models[r.model].id + ", image " + std::to_string(r.image) + ")";
      }
    }
  };

  win.t0 = now_ns();
  HostSampler host{win};
  for (Request& r : reqs) r.due += win.t0;
  std::size_t next = 0;
  const std::int64_t give_up = win.end() + kDrainNs;
  for (;;) {
    std::int64_t t = now_ns();
    while (next < reqs.size() && reqs[next].due <= t) {
      Request& r = reqs[next];
      auto& frame = frames[r.model][r.image];
      set_request_id(frame, next);
      r.send0 = now_ns();
      stack.client->send(next % kConnections, frame);
      r.send1 = now_ns();
      ++outstanding;
      ++next;
      t = r.send1;
    }
    if (next == reqs.size() && outstanding == 0) break;
    if (t >= give_up) break;
    stack.client->poll(next < reqs.size() ? reqs[next].due : give_up, on_response);
  }
  const std::int64_t failed = refused + mismatched + outstanding;

  const net::WireStats wire1 = stack.wire->stats();
  const serve::ServerStats ss = stack.server->stats();
  const snn::RegistryStats reg1 = stack.registry->stats();

  SpanLog log{0};
  std::vector<double> sched_s, done_s, lat_ms, server_ms, lag_ms, traced;
  for (const Request& r : reqs) {
    // Every scheduled request counts towards the offered load, answered or
    // not, so a server that stalls shows up as backlog.
    sched_s.push_back(ms_between(win.t0, r.due) * 1e-3);
    if (r.done == 0) continue;
    const bool tr = win.traced(win.index(r.due));
    done_s.push_back(ms_between(win.t0, r.done) * 1e-3);
    lat_ms.push_back(ms_between(r.due, r.done));
    server_ms.push_back(r.server_ms);
    lag_ms.push_back(ms_between(r.due, r.send0));
    traced.push_back(tr ? 1.0 : 0.0);
    // Spans are stamped live and assembled here, so traced and untraced
    // windows run the same client code.
    log.enabled = tr;
    const std::int64_t root = log.add("wire.request", -1, r.due, r.done);
    log.add("gen.lag", root, r.due, r.send0);
    log.add("net.send", root, r.send0, r.send1);
    // The server's own enqueue-to-complete stamp, placed to end where the
    // read that brought the response began. What it leaves of the wait
    // (loopback, the wire front end, wake-ups) stays root self time.
    const auto server_ns = static_cast<std::int64_t>(r.server_ms * 1e6);
    log.add("serve.server", root, std::max(r.send1, r.read0 - server_ns), r.read0);
    log.add("net.recv", root, r.read0, r.done);
  }
  spans_out = log.spans();

  record_windows(rec, win);
  rec.arr("setup_s", setup_s);
  rec.num("first_request_s", static_cast<double>(first_request_ns) * 1e-9);
  rec.arr("req.sched_s", sched_s);
  rec.arr("req.done_s", done_s);
  rec.arr("req.latency_ms", lat_ms);
  rec.arr("req.server_ms", server_ms);
  rec.arr("req.lag_ms", lag_ms);
  rec.arr("req.traced", traced);
  rec.num("rate_per_s", kRatePerS);
  rec.num("offered", static_cast<double>(reqs.size()));
  rec.num("attempted", static_cast<double>(reqs.size()));
  rec.num("failed", static_cast<double>(failed));
  rec.num("serve.mean_batch", ss.mean_batch_size);
  rec.num("registry.hits", static_cast<double>(reg1.hits - reg0.hits));
  rec.num("registry.misses", static_cast<double>(reg1.misses - reg0.misses));
  rec.num("registry.evictions", static_cast<double>(reg1.evictions - reg0.evictions));
  rec.num("registry.swaps", static_cast<double>(reg1.swaps - reg0.swaps));
  rec.num("net.requests", static_cast<double>(wire1.requests - wire0.requests));
  rec.num("net.bytes", static_cast<double>((wire1.bytes_in - wire0.bytes_in) +
                                           (wire1.bytes_out - wire0.bytes_out)));
  rec.num("net.read_pauses", static_cast<double>(wire1.read_pauses - wire0.read_pauses));
  rec.num("net.protocol_errors",
          static_cast<double>(wire1.protocol_errors - wire0.protocol_errors));
  host.record(rec);
  rec.num("replicas", 2);
  rec.num("connections", kConnections);
  record_totals(rec, totals);
  rec.str("error", first_error);
  stack.reset();
  return static_cast<int>(mismatched);
}

}  // namespace perfbench
