// WireServer — the socket front end over serve::SnnServer.
//
// One IO thread runs an edge-triggered epoll loop (net/epoll_loop.h) over a
// nonblocking listener plus every accepted connection, speaking the
// length-prefixed binary protocol of net/protocol.h:
//
//   accept (nonblocking, until EAGAIN)
//     -> per-connection RequestParser reads each frame straight off the
//        socket — the tensor payload lands in the Tensor that
//        SnnServer::submit_async will own (zero intermediate copy)
//     -> submit_async(model_id, tensor, callback): the bounded submit
//        queue, micro-batching, replicas — everything the in-process server
//        does
//     -> the completion callback (replica scheduler thread) enqueues the
//        result into a mutex-guarded completion queue and wakes the loop
//     -> the IO thread encodes the kResult/kError frame into the
//        connection's outbox and flushes until EAGAIN
//
// Backpressure and overload:
//   * write side — when a connection's outbox exceeds
//     WireOptions::write_high_watermark (a client reading slower than it
//     submits), the server STOPS READING that connection until the outbox
//     drains below half the watermark; the client's sends then queue in
//     kernel buffers and eventually block/EAGAIN at the client. No unbounded
//     buffering, per connection.
//   * admission side — submit_async never blocks: a full submit queue
//     refuses the request at once, and the IO thread answers it with a
//     per-request kRejected error frame while the connection stays open.
//
// Idle timeout: connections with no read activity, no queued output and no
// in-flight requests for WireOptions::idle_timeout are closed — a half-sent
// frame (slow-loris) does not hold a slot forever.
//
// Shutdown: stop() closes the listener, stops reading every connection,
// waits for every in-flight request to resolve and every outbox to flush
// (bounded by drain_timeout for the socket flush; the in-flight wait is
// unbounded because serve's own drain contract guarantees resolution), then
// closes all sockets and joins the IO thread. The graceful-drain contract
// is that fully parsed frames drain: every kInfer frame parsed before stop()
// (each counted in WireStats::requests) gets its response frame before its
// socket closes, flush permitting within drain_timeout; a half-parsed frame
// and any bytes still unread in the kernel receive buffer are dropped
// unanswered. A client that reads to EOF after stop() therefore receives
// exactly WireStats::requests responses (tests/net_wire_test.cpp,
// StopDrainsInFlightResponses).
//
// Thread safety: stop() and stats() and port() are safe from any thread;
// everything else happens on the internal IO thread. The SnnServer must
// outlive the WireServer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/epoll_loop.h"
#include "net/protocol.h"
#include "serve/server.h"
#include "util/fd.h"
#include "util/thread_annotations.h"

namespace ttfs::net {

struct WireOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  int backlog = 128;
  std::size_t max_connections = 4096;  // accepts beyond this are closed at once
  ParserLimits limits;                 // per-frame caps (body bytes, model len)
  // Outbox bytes above which a connection's reads pause (resume at half).
  std::size_t write_high_watermark = 1U << 20;
  // Close connections idle (no reads, no output, nothing in flight) this
  // long; 0 disables the sweep.
  std::chrono::milliseconds idle_timeout{30000};
  // Bound on waiting for unflushed response bytes at stop(); sockets still
  // holding data after this are closed anyway.
  std::chrono::milliseconds drain_timeout{5000};
};

// Point-in-time counters of the wire layer (request-level stats live in
// SnnServer::stats()).
struct WireStats {
  std::uint64_t accepted = 0;         // connections accepted
  std::uint64_t closed = 0;           // connections closed (any reason)
  std::uint64_t refused_capacity = 0; // accepts closed for max_connections
  std::uint64_t requests = 0;         // well-formed kInfer frames parsed
  std::uint64_t responses = 0;        // kResult/kError frames enqueued
  std::uint64_t protocol_errors = 0;  // connections killed by framing errors
  std::uint64_t idle_closed = 0;      // connections reaped by the idle sweep
  std::uint64_t read_pauses = 0;      // write-backpressure events
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::size_t active = 0;             // open connections right now
  std::size_t in_flight = 0;          // submitted, not yet answered
};

class WireServer {
 public:
  // Binds, listens and starts the IO thread; throws std::runtime_error when
  // the socket setup fails (port in use, fd exhaustion). [ctor: one thread]
  explicit WireServer(serve::SnnServer& server, WireOptions opts = {});
  ~WireServer();  // stop()

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  // The actually-bound port (resolves WireOptions::port == 0). [thread-safe]
  std::uint16_t port() const { return port_; }
  // Graceful drain as described in the header comment. Idempotent.
  // [thread-safe; blocks until the drain completes]
  void stop();
  // Consistent snapshot of the wire-layer counters. [thread-safe]
  WireStats stats() const;

 private:
  struct Conn {
    util::Fd fd;
    std::uint64_t key = 0;
    RequestParser parser;
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t out_off = 0;        // flushed bytes of outbox.front()
    std::size_t outbox_bytes = 0;   // queued bytes across the outbox
    std::size_t in_flight = 0;      // submitted requests not yet answered
    std::uint32_t events = 0;       // current epoll interest mask
    bool reads_paused = false;      // write backpressure engaged
    bool close_after_flush = false; // fatal frame error: answer, then close
    bool peer_half_closed = false;  // read side saw EOF; still flushing
    std::chrono::steady_clock::time_point last_activity;

    explicit Conn(util::Fd f, std::uint64_t k, const ParserLimits& limits)
        : fd{std::move(f)}, key{k}, parser{limits} {}
  };

  // One resolved request on its way back to a connection.
  struct Completion {
    std::uint64_t conn_key = 0;
    std::uint64_t request_id = 0;
    serve::ServeResult result;
  };

  // The bool-returning helpers report liveness: false means the connection
  // was closed inside the call and `conn` must not be touched again.
  void io_loop();
  void handle_accept();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  bool read_until_blocked(Conn& conn);
  bool submit_request(Conn& conn);
  bool enqueue_frame(Conn& conn, std::vector<std::uint8_t> frame);
  // Writes until EAGAIN/empty; false asks the CALLER to close (fatal write
  // error, or a planned close whose outbox just emptied).
  bool flush_outbox(Conn& conn);
  void update_interest(Conn& conn);
  void close_conn(std::uint64_t key);
  void drain_completions();
  void sweep_idle(std::chrono::steady_clock::time_point now);
  bool drained() const;  // stop condition: nothing in flight, nothing queued

  serve::SnnServer& server_;
  const WireOptions opts_;
  std::uint16_t port_ = 0;
  util::Fd listener_;
  EpollLoop loop_;

  // IO-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_key_ = 2;  // 1 = listener, kWakeKey reserved

  // Cross-thread state: completion queue fed by serve's scheduler threads.
  // wake() is called under mu_ so the IO thread can never observe a pushed
  // completion whose producer is still inside the loop object (that ordering
  // is what makes destruction safe).
  mutable util::Mutex mu_;
  std::vector<Completion> completions_ TTFS_GUARDED_BY(mu_);
  WireStats stats_ TTFS_GUARDED_BY(mu_);
  std::atomic<std::int64_t> in_flight_total_{0};

  std::atomic<bool> stopping_{false};
  std::thread io_;
  std::once_flag stopped_;
};

}  // namespace ttfs::net
