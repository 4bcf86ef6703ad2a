// Wire front-end tests (src/net/): framing hostility — truncated headers,
// bad magic/version, oversized dims, slow-loris byte-at-a-time writes,
// mid-request disconnects — plus the loopback integration contract: logits
// served over the socket are bit-identical to a direct SnnServer::submit of
// the same image.
//
// Linux-only like src/net/ itself; on other platforms this TU compiles to an
// empty suite. Carries the `concurrency` CTest label (wire server IO thread +
// serve scheduler threads), so the TSan lane runs it.
#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/network.h"
#include "snn/registry.h"
#include "util/fd.h"
#include "util/rng.h"
#include "serve_test_util.h"

namespace ttfs::net {
namespace {

using serve::test::make_net;

// Blocking loopback client with a receive deadline — a hung server fails the
// test instead of wedging the suite.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    EXPECT_TRUE(fd_.valid());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    const int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{10, 0};  // every blocking read gives up after 10s
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  void send_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_.get(), bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  // Slow-loris: dribble the bytes `chunk` at a time with a pause between
  // sends, so every header/meta/payload section arrives fragmented.
  void send_slowly(const std::vector<std::uint8_t>& bytes, std::size_t chunk,
                   std::chrono::microseconds pause) {
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      const std::size_t n = std::min(chunk, bytes.size() - off);
      std::vector<std::uint8_t> piece{bytes.begin() + static_cast<std::ptrdiff_t>(off),
                                      bytes.begin() + static_cast<std::ptrdiff_t>(off + n)};
      send_all(piece);
      // The pause is the input, not a wait for the server: it spaces the
      // sends so the server's reads see the frame in pieces. The assertions
      // hold however the pieces coalesce.
      std::this_thread::sleep_for(pause);
    }
  }

  // Blocks until one full response frame arrives; false on EOF/timeout/parse
  // failure.
  bool recv_response(WireResponse* out) {
    for (;;) {
      const auto [buf, cap] = parser_.read_slot();
      if (cap == 0) return false;
      const ssize_t n = ::read(fd_.get(), buf, cap);
      if (n <= 0) return false;
      const ResponseParser::Event ev = parser_.consume(static_cast<std::size_t>(n));
      if (ev == ResponseParser::Event::kResponse) {
        *out = parser_.response();
        return true;
      }
      if (ev == ResponseParser::Event::kBad) return false;
    }
  }

  // True when the server has closed its end within the receive deadline —
  // either a clean FIN (read 0) or an RST (the server tore the connection
  // down with unread bytes still in its receive buffer).
  bool recv_eof() {
    std::uint8_t byte = 0;
    const ssize_t n = ::read(fd_.get(), &byte, 1);
    return n == 0 || (n < 0 && errno == ECONNRESET);
  }

  void shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }
  void close() { fd_.reset(); }
  int raw_fd() const { return fd_.get(); }

 private:
  util::Fd fd_;
  ResponseParser parser_;
};

// Serve stack + wire server on an ephemeral loopback port, shared per suite.
class NetWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng{42};
    registry_ = std::make_shared<snn::ModelRegistry>();
    backend_ = snn::make_backend(snn::BackendKind::kEventSim);
    registry_->load("m0", std::make_shared<snn::SnnNetwork>(make_net(rng)), backend_,
                    {3, 8, 8});
    serve::ServeOptions opts;
    opts.max_batch = 4;
    opts.max_delay = std::chrono::microseconds{200};
    opts.replicas = 2;
    opts.registry = registry_;
    server_ = std::make_unique<serve::SnnServer>(opts);
    WireOptions wopts;
    wopts.idle_timeout = std::chrono::milliseconds{0};  // tests control closes
    wire_ = std::make_unique<WireServer>(*server_, wopts);
  }

  void TearDown() override {
    wire_.reset();
    server_.reset();
  }

  Tensor make_image(std::uint64_t seed) {
    Rng rng{seed};
    return Tensor::uniform({3, 8, 8}, rng, 0.0F, 1.0F);
  }

  std::shared_ptr<snn::ModelRegistry> registry_;
  std::shared_ptr<const snn::InferenceBackend> backend_;
  std::unique_ptr<serve::SnnServer> server_;
  std::unique_ptr<WireServer> wire_;
};

// Patches raw header fields into an encoded frame (all offsets from the
// protocol.h layout table).
void poke_u16(std::vector<std::uint8_t>& frame, std::size_t off, std::uint16_t v) {
  std::memcpy(frame.data() + off, &v, sizeof(v));
}
void poke_u32(std::vector<std::uint8_t>& frame, std::size_t off, std::uint32_t v) {
  std::memcpy(frame.data() + off, &v, sizeof(v));
}

// --- integration: the whole point of the wire ---

TEST_F(NetWireTest, LogitsBitIdenticalToDirectSubmit) {
  constexpr int kRequests = 16;
  // Direct in-process submits first: the reference rows.
  std::vector<serve::ServeResult> reference;
  for (int i = 0; i < kRequests; ++i) {
    auto sub = server_->submit("m0", make_image(100 + static_cast<std::uint64_t>(i)));
    reference.push_back(sub.result.get());
    ASSERT_EQ(reference.back().status, serve::RequestStatus::kOk);
  }

  TestClient client{wire_->port()};
  for (int i = 0; i < kRequests; ++i) {
    const auto rid = static_cast<std::uint64_t>(1000 + i);
    client.send_all(encode_request(rid, "m0", make_image(100 + static_cast<std::uint64_t>(i))));
    WireResponse resp;
    ASSERT_TRUE(client.recv_response(&resp)) << "request " << i;
    ASSERT_EQ(resp.type, MessageType::kResult);
    ASSERT_EQ(resp.request_id, rid);
    ASSERT_EQ(resp.status, WireStatus::kOk);
    const serve::ServeResult& record = reference[static_cast<std::size_t>(i)];
    const Tensor& want = record.logits;
    ASSERT_EQ(static_cast<std::int64_t>(resp.logits.size()), want.numel());
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      // Bitwise, not approximate: the wire moves raw f32, and serving is
      // deterministic per sample regardless of batching/replica placement.
      EXPECT_EQ(resp.logits[static_cast<std::size_t>(j)], want[j])
          << "request " << i << " logit " << j;
    }
    EXPECT_EQ(resp.predicted, serve::predicted_class(want));
    EXPECT_GT(resp.latency_seconds, 0.0);
    // The frame's counts are the sums of the served record's per-layer ones.
    const auto sum = [](const std::vector<std::int64_t>& v) {
      return static_cast<std::uint64_t>(std::accumulate(v.begin(), v.end(), std::int64_t{0}));
    };
    EXPECT_GT(resp.spikes, 0U);
    EXPECT_EQ(resp.spikes, sum(record.stats.spikes_per_layer)) << "request " << i;
    EXPECT_EQ(resp.neurons, sum(record.stats.neurons_per_layer)) << "request " << i;
  }
}

TEST_F(NetWireTest, PipelinedRequestsAllAnswered) {
  // Fire a burst without reading a single response, then collect: exercises
  // outbox queuing and out-of-order completion matching by request_id.
  constexpr int kBurst = 32;
  TestClient client{wire_->port()};
  for (int i = 0; i < kBurst; ++i) {
    client.send_all(encode_request(static_cast<std::uint64_t>(i), "m0", make_image(7)));
  }
  std::vector<bool> seen(kBurst, false);
  for (int i = 0; i < kBurst; ++i) {
    WireResponse resp;
    ASSERT_TRUE(client.recv_response(&resp)) << "response " << i;
    ASSERT_EQ(resp.status, WireStatus::kOk);
    ASSERT_LT(resp.request_id, static_cast<std::uint64_t>(kBurst));
    EXPECT_FALSE(seen[resp.request_id]) << "duplicate response " << resp.request_id;
    seen[resp.request_id] = true;
  }
}

TEST_F(NetWireTest, PingPong) {
  TestClient client{wire_->port()};
  client.send_all(encode_ping(77));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.type, MessageType::kPong);
  EXPECT_EQ(resp.request_id, 77U);
}

// --- per-request errors: the connection survives ---

TEST_F(NetWireTest, UnknownModelAnswersErrorAndConnectionSurvives) {
  TestClient client{wire_->port()};
  client.send_all(encode_request(1, "not-a-model", make_image(7)));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.type, MessageType::kError);
  EXPECT_EQ(resp.status, WireStatus::kUnknownModel);
  EXPECT_EQ(resp.request_id, 1U);
  // Same connection still serves.
  client.send_all(encode_request(2, "m0", make_image(7)));
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.request_id, 2U);
}

TEST_F(NetWireTest, ShapeMismatchAnswersBadRequestAndConnectionSurvives) {
  TestClient client{wire_->port()};
  Rng rng{3};
  client.send_all(encode_request(9, "m0", Tensor::uniform({3, 4, 4}, rng, 0.0F, 1.0F)));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kBadRequest);
  client.send_all(encode_request(10, "m0", make_image(7)));
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  // The refused frame never entered the serve ledger.
  const serve::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.submitted, 1U);
  serve::test::expect_ledger_balances(stats);
}

TEST_F(NetWireTest, BackendFailureAnswersInternalErrorAndConnectionSurvives) {
  Rng rng{5};
  registry_->load("poison", std::make_shared<snn::SnnNetwork>(make_net(rng)),
                  std::make_shared<const serve::test::ThrowingBackend>(backend_), {3, 8, 8});
  TestClient client{wire_->port()};
  Tensor poisoned = make_image(7);
  poisoned[0] = -1.0F;  // ThrowingBackend fails this sample
  client.send_all(encode_request(11, "poison", poisoned));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.type, MessageType::kError);
  EXPECT_EQ(resp.status, WireStatus::kInternalError);
  EXPECT_EQ(resp.request_id, 11U);
  // Same connection, same model: a clean image is served.
  client.send_all(encode_request(12, "poison", make_image(7)));
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.request_id, 12U);
  const serve::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.failed, 1U);
  EXPECT_EQ(stats.completed, 1U);
  serve::test::expect_ledger_balances(stats);
}

// Overload on the wire: a burst on one connection against a full submit
// queue. The overflow is answered at once with per-request kRejected error
// frames while the admitted requests wait, the admitted ones are served once
// the replica frees up, and the connection keeps serving afterwards.
TEST_F(NetWireTest, OverloadAnswersRejectedAndConnectionSurvives) {
  auto gated = std::make_shared<const serve::test::GatedBackend>(backend_);
  auto registry = std::make_shared<snn::ModelRegistry>();
  Rng rng{9};
  registry->load("g", std::make_shared<snn::SnnNetwork>(make_net(rng)), gated, {3, 8, 8});
  serve::ServeOptions opts;
  opts.max_batch = 1;
  opts.replicas = 1;
  opts.queue_capacity = 2;
  opts.registry = registry;
  serve::SnnServer server{opts};
  WireOptions wopts;
  wopts.idle_timeout = std::chrono::milliseconds{0};
  WireServer wire{server, wopts};
  const serve::test::OpenGateOnExit open_gate_on_exit{*gated};

  TestClient client{wire.port()};
  client.send_all(encode_request(0, "g", make_image(7)));
  gated->wait_entered();  // request 0 holds the only replica
  constexpr std::uint64_t kBurst = 8;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 1; id < kBurst; ++id) {
    const std::vector<std::uint8_t> frame = encode_request(id, "g", make_image(7 + id));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  client.send_all(burst);  // 1 and 2 fill the queue; 3..7 overflow

  WireResponse resp;
  for (std::uint64_t n = 0; n < kBurst - 3; ++n) {
    ASSERT_TRUE(client.recv_response(&resp)) << "refusal " << n << " did not arrive";
    EXPECT_EQ(resp.type, MessageType::kError);
    EXPECT_EQ(resp.status, WireStatus::kRejected);
    EXPECT_GE(resp.request_id, 3U);
    EXPECT_LT(resp.request_id, kBurst);
  }
  gated->release();
  std::vector<bool> served(3, false);
  for (int n = 0; n < 3; ++n) {
    ASSERT_TRUE(client.recv_response(&resp)) << "result " << n;
    EXPECT_EQ(resp.type, MessageType::kResult);
    EXPECT_EQ(resp.status, WireStatus::kOk);
    ASSERT_LT(resp.request_id, 3U);
    EXPECT_FALSE(served[resp.request_id]) << "duplicate response " << resp.request_id;
    served[resp.request_id] = true;
  }
  // The same connection still serves.
  client.send_all(encode_request(kBurst, "g", make_image(7)));
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.request_id, kBurst);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kBurst + 1);
  EXPECT_EQ(stats.completed, 4U);
  EXPECT_EQ(stats.rejected_overload, kBurst - 3);
  serve::test::expect_ledger_balances(stats);
  const WireStats ws = wire.stats();
  EXPECT_EQ(ws.requests, kBurst + 1);
  EXPECT_EQ(ws.responses, ws.requests);
  EXPECT_EQ(ws.in_flight, 0U);
  EXPECT_EQ(ws.protocol_errors, 0U);
}

// --- per-connection errors: error frame, then close ---

TEST_F(NetWireTest, BadMagicGetsErrorFrameThenClose) {
  TestClient client{wire_->port()};
  std::vector<std::uint8_t> frame = encode_ping(1);
  poke_u32(frame, 0, 0xDEADBEEF);
  client.send_all(frame);
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.type, MessageType::kError);
  EXPECT_EQ(resp.status, WireStatus::kBadMagic);
  EXPECT_TRUE(client.recv_eof());
}

TEST_F(NetWireTest, BadVersionGetsErrorFrameThenClose) {
  TestClient client{wire_->port()};
  std::vector<std::uint8_t> frame = encode_ping(1);
  poke_u16(frame, 4, kProtocolVersion + 1);
  client.send_all(frame);
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kBadVersion);
  EXPECT_TRUE(client.recv_eof());
}

TEST_F(NetWireTest, OversizedBodyGetsBadFrameThenClose) {
  TestClient client{wire_->port()};
  std::vector<std::uint8_t> frame = encode_request(1, "m0", make_image(7));
  poke_u32(frame, 16, 64U << 20);  // body_len far beyond ParserLimits
  client.send_all({frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes)});
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kBadFrame);
  EXPECT_TRUE(client.recv_eof());
}

TEST_F(NetWireTest, OversizedDimsGetBadFrameThenClose) {
  // First dim patched to 2^30: the dims product no longer matches the
  // declared body_len, which the meta section must reject without trying to
  // allocate a 2^36-element tensor.
  TestClient client{wire_->port()};
  std::vector<std::uint8_t> frame = encode_request(1, "m0", make_image(7));
  poke_u32(frame, static_cast<std::size_t>(kHeaderBytes) + 2 /* "m0" */, 1U << 30);
  // Send only through the meta section: the server must reject on the dims
  // alone, without waiting for (or reading) any payload byte. Stopping there
  // also keeps the close a clean FIN — no unread payload means no RST racing
  // the error frame back to us.
  client.send_all({frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + 2 + 3 * 4)});
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kBadFrame);
  EXPECT_TRUE(client.recv_eof());
}

// --- partial input: slow writers and vanishing clients ---

TEST_F(NetWireTest, SlowLorisByteAtATimeStillServes) {
  TestClient client{wire_->port()};
  // Header dribbled a byte at a time, body in small odd-sized chunks: every
  // parser section boundary lands mid-chunk at least once.
  const std::vector<std::uint8_t> frame = encode_request(5, "m0", make_image(7));
  client.send_slowly({frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes)},
                     1, std::chrono::microseconds{200});
  client.send_slowly({frame.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes), frame.end()},
                     13, std::chrono::microseconds{100});
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.request_id, 5U);
}

TEST_F(NetWireTest, TruncatedHeaderThenDisconnectLeavesServerServing) {
  {
    TestClient dropper{wire_->port()};
    std::vector<std::uint8_t> frame = encode_ping(1);
    dropper.send_all({frame.begin(), frame.begin() + 7});  // 7 of 24 header bytes
    dropper.close();
  }
  TestClient client{wire_->port()};
  client.send_all(encode_request(2, "m0", make_image(7)));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
}

TEST_F(NetWireTest, MidRequestDisconnectLeavesServerServing) {
  {
    TestClient dropper{wire_->port()};
    const std::vector<std::uint8_t> frame = encode_request(1, "m0", make_image(7));
    // Header + model + dims + roughly half the payload, then vanish.
    dropper.send_all({frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(frame.size() / 2)});
    dropper.close();
  }
  TestClient client{wire_->port()};
  client.send_all(encode_request(2, "m0", make_image(7)));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
}

TEST_F(NetWireTest, HalfCloseStillDeliversPendingResponse) {
  // Client shuts down its write side right after sending — the server owes a
  // response on a half-closed connection and must still deliver it.
  TestClient client{wire_->port()};
  client.send_all(encode_request(3, "m0", make_image(7)));
  client.shutdown_write();
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.request_id, 3U);
  EXPECT_TRUE(client.recv_eof());  // nothing owed -> server closes
}

// --- lifecycle ---

TEST_F(NetWireTest, IdleTimeoutReapsSilentConnections) {
  serve::ServeOptions opts;
  opts.registry = registry_;
  serve::SnnServer server{opts};
  WireOptions wopts;
  wopts.idle_timeout = std::chrono::milliseconds{100};
  WireServer wire{server, wopts};
  TestClient client{wire.port()};
  EXPECT_TRUE(client.recv_eof()) << "idle connection was not reaped";
  const WireStats stats = wire.stats();
  EXPECT_EQ(stats.idle_closed, 1U);
}

TEST_F(NetWireTest, StopDrainsInFlightResponses) {
  TestClient client{wire_->port()};
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    client.send_all(encode_request(static_cast<std::uint64_t>(i), "m0", make_image(7)));
  }
  // The drain contract covers fully parsed frames only, so stop() must not
  // race the IO thread's first read: block on the first response (proof the
  // server parsed a frame), then stop with the rest possibly unread.
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp)) << "no response within 10 s";
  EXPECT_EQ(resp.status, WireStatus::kOk);
  int answered = 1;
  std::thread stopper{[this] { wire_->stop(); }};
  while (client.recv_response(&resp)) {
    EXPECT_EQ(resp.status, WireStatus::kOk);
    ++answered;
  }
  stopper.join();
  // Every frame the server had fully parsed before stop() is answered; ones
  // still in the socket buffer are dropped unanswered (never partially).
  const WireStats stats = wire_->stats();
  EXPECT_EQ(static_cast<std::uint64_t>(answered), stats.requests);
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_EQ(stats.in_flight, 0U);
  EXPECT_EQ(stats.active, 0U);
}

TEST_F(NetWireTest, StatsCountTheTraffic) {
  TestClient client{wire_->port()};
  client.send_all(encode_request(1, "m0", make_image(7)));
  WireResponse resp;
  ASSERT_TRUE(client.recv_response(&resp));
  // With nothing owed the server closes its end on our FIN, and it counts
  // the close before its socket goes: once we read EOF the stats are final.
  client.shutdown_write();
  ASSERT_TRUE(client.recv_eof());
  const WireStats stats = wire_->stats();
  EXPECT_EQ(stats.accepted, 1U);
  EXPECT_EQ(stats.closed, 1U);
  EXPECT_EQ(stats.active, 0U);
  EXPECT_EQ(stats.requests, 1U);
  EXPECT_EQ(stats.responses, 1U);
  EXPECT_GT(stats.bytes_in, 0U);
  EXPECT_GT(stats.bytes_out, 0U);
  EXPECT_EQ(stats.in_flight, 0U);
}

}  // namespace
}  // namespace ttfs::net

#endif  // __linux__
