// The TTFS wire protocol: length-prefixed binary frames between a client
// (tools/loadgen, tests) and the wire server (net/wire_server.h).
//
// Why not HTTP: a request is one small tensor and a response is one logits
// row — a fixed 24-byte header plus a raw little-endian payload keeps the
// parse allocation-free and lets the server read the tensor payload straight
// into the Tensor that SnnServer::submit will own (zero intermediate copy;
// see RequestParser::read_slot).
//
// Frame layout (all integers little-endian; the only supported hosts are
// little-endian, enforced by static_assert below):
//
//   offset size  field
//   0      4     magic       0x53465454 — the bytes "TTFS"
//   4      2     version     kProtocolVersion (1); mismatch closes the
//                            connection with WireStatus::kBadVersion
//   6      2     type        MessageType
//   8      8     request_id  client-chosen, echoed verbatim in the response
//   16     4     body_len    bytes following this header
//   20     2     model_len   REQUEST: model-id byte count (<= limits)
//                            RESPONSE: WireStatus of the request
//   22     1     rank        REQUEST: tensor rank (1..kMaxRank)
//                            RESPONSE: 0
//   23     1     reserved    must be 0
//
// Request body (type kInfer):   model_id bytes, then rank u32 dims, then
//                               product(dims) float32 payload — so
//                               body_len == model_len + 4*rank + 4*numel.
// Response body (type kResult): i64 predicted, f64 latency_seconds (server
//                               enqueue->complete, NOT wire time), u64 spikes,
//                               u64 neurons, u32 classes, f32 logits[classes].
// Response body (type kError):  UTF-8 diagnostic text (body_len bytes).
// kPing/kPong carry no body.
//
// Versioning: bump kProtocolVersion on any layout change; a server answers a
// bad version with one kError frame (status kBadVersion) and closes, so old
// clients fail loudly instead of misparsing. Error codes come in two
// severities — per-REQUEST errors (kUnknownModel, kRejected, kBadRequest,
// kInternalError: the stream stays framed, the connection survives) and
// per-CONNECTION errors (kBadMagic, kBadVersion, kBadFrame: framing trust is
// gone, the server sends the error and closes). docs/serving.md carries the
// worked spec.
//
// Thread safety: parsers and encoders are plain single-threaded values —
// every connection owns its RequestParser/ResponseParser on its IO thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/result.h"
#include "tensor/tensor.h"

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the TTFS wire protocol is little-endian on the wire and in memory");

namespace ttfs::net {

inline constexpr std::uint32_t kMagic = 0x53465454;  // "TTFS" little-endian
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::uint8_t kMaxRank = 4;

enum class MessageType : std::uint16_t {
  kInfer = 1,   // client -> server: one tensor for one model
  kResult = 2,  // server -> client: logits/predicted/stats/latency
  kError = 3,   // server -> client: WireStatus != kOk, body = diagnostic
  kPing = 4,    // client -> server: liveness probe (no body)
  kPong = 5,    // server -> client: ping echo (request_id preserved)
};

// Response status codes. kOk and kRejected mirror serve::RequestStatus;
// kBadMagic..kInternalError are wire-layer failures. Every code keeps its v1
// number: kShed, kCancelled and kShuttingDown are v1 codes this server never
// sends; clients still classify them.
enum class WireStatus : std::uint16_t {
  kOk = 0,
  kRejected = 1,        // refused at the door (queue full, or shutdown began)
  kShed = 2,            // v1 code; this server never sends it
  kCancelled = 3,       // v1 code; this server never sends it
  kBadMagic = 10,       // first 4 bytes were not "TTFS" — connection closes
  kBadVersion = 11,     // unsupported version field — connection closes
  kBadFrame = 12,       // malformed lengths/rank/dims — connection closes
  kBadRequest = 13,     // well-framed but semantically invalid (shape mismatch)
  kUnknownModel = 14,   // model id not in the registry
  kShuttingDown = 15,   // v1 code; never sent (a draining server stops reading)
  kInternalError = 16,  // backend failure while serving the request
};

// "ok" / "rejected" / ... — used by loadgen reports and error frames.
std::string to_string(WireStatus status);

// serve -> wire status for a resolved request.
WireStatus wire_status(serve::RequestStatus status);

struct ParserLimits {
  std::size_t max_body_bytes = 4U << 20;  // caps model+dims+payload (per frame)
  std::uint16_t max_model_len = 256;
};

// ---------------------------------------------------------------------------
// Encoding (client builds requests, server builds responses; tests use both).
// ---------------------------------------------------------------------------

// One kInfer frame for `image` aimed at `model_id`.
std::vector<std::uint8_t> encode_request(std::uint64_t request_id, const std::string& model_id,
                                         const Tensor& image);
// One kResult frame from a served request.
std::vector<std::uint8_t> encode_result(std::uint64_t request_id, const serve::ServeResult& r);
// One kError frame (also used for the non-kOk RequestStatus outcomes).
std::vector<std::uint8_t> encode_error(std::uint64_t request_id, WireStatus status,
                                       const std::string& message);
std::vector<std::uint8_t> encode_ping(std::uint64_t request_id);
std::vector<std::uint8_t> encode_pong(std::uint64_t request_id);

// ---------------------------------------------------------------------------
// Server-side incremental request parser.
// ---------------------------------------------------------------------------

// Pull parser shaped for edge-triggered nonblocking reads: the owner asks
// read_slot() where the next bytes belong, read()s straight into it, then
// reports the byte count to consume(). While a payload section is in
// progress the slot points INTO the request Tensor's float storage — the
// only copy a request payload ever makes is kernel-socket-buffer -> tensor.
// A slot never spans a frame boundary, so over-read of the next frame is
// impossible by construction.
class RequestParser {
 public:
  explicit RequestParser(ParserLimits limits = {});

  enum class Event {
    kNeedMore,  // keep reading
    kRequest,   // a full kInfer frame: request_id()/model()/take_payload()
    kPing,      // a kPing frame: request_id()
    kBad,       // framing violation: error()/error_status(); connection is
                // unsynchronized — close it after sending the error frame
  };

  // Destination for the next read and its maximum length (never 0 unless the
  // parser is in the kBad terminal state).
  std::pair<std::uint8_t*, std::size_t> read_slot();
  // `n` bytes landed in the last read_slot(); advances the state machine.
  Event consume(std::size_t n);

  // Valid after kRequest/kPing:
  std::uint64_t request_id() const { return request_id_; }
  const std::string& model() const { return model_; }
  // Moves the fully-read payload tensor out; parser resets for the next
  // frame on the next read_slot().
  Tensor take_payload();
  // Call instead of take_payload() after kPing to arm the next frame.
  void reset_frame();

  // Valid after kBad:
  WireStatus error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

 private:
  enum class State { kHeader, kMeta, kPayload, kDone, kBad };

  Event fail(WireStatus status, std::string message);
  Event parse_header();
  Event parse_meta();

  const ParserLimits limits_;
  State state_ = State::kHeader;
  std::vector<std::uint8_t> scratch_;  // header, then model+dims section
  std::size_t filled_ = 0;             // bytes accumulated in the current section
  std::size_t need_ = kHeaderBytes;    // section size

  MessageType type_ = MessageType::kInfer;
  std::uint64_t request_id_ = 0;
  std::uint32_t body_len_ = 0;
  std::uint16_t model_len_ = 0;
  std::uint8_t rank_ = 0;
  std::string model_;
  Tensor payload_;
  std::size_t payload_bytes_ = 0;

  WireStatus error_status_ = WireStatus::kOk;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Client-side incremental response parser (loadgen, tests).
// ---------------------------------------------------------------------------

// A fully-decoded server frame.
struct WireResponse {
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::int64_t predicted = -1;
  double latency_seconds = 0.0;  // server-side enqueue->complete
  std::uint64_t spikes = 0;
  std::uint64_t neurons = 0;
  std::vector<float> logits;
  std::string error;  // kError diagnostic text
};

// Same read_slot/consume pull shape as RequestParser. kBad here means the
// *server* sent something unframeable — clients treat it as a broken
// connection.
class ResponseParser {
 public:
  explicit ResponseParser(ParserLimits limits = {});

  enum class Event { kNeedMore, kResponse, kBad };

  std::pair<std::uint8_t*, std::size_t> read_slot();
  Event consume(std::size_t n);

  // Valid after kResponse; parser re-arms for the next frame on the next
  // read_slot().
  WireResponse& response() { return response_; }
  const std::string& error() const { return error_; }

 private:
  enum class State { kHeader, kBody, kDone, kBad };

  Event fail(std::string message);
  Event parse_header();
  Event parse_body();

  const ParserLimits limits_;
  State state_ = State::kHeader;
  std::vector<std::uint8_t> scratch_;
  std::size_t filled_ = 0;
  std::size_t need_ = kHeaderBytes;
  std::uint32_t body_len_ = 0;
  WireResponse response_;
  std::string error_;
};

}  // namespace ttfs::net
