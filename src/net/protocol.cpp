#include "net/protocol.h"

#include <cstring>
#include <numeric>
#include <utility>

namespace ttfs::net {

namespace {

template <typename T>
T load_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

// The shared 24-byte header; `aux16` is model_len on requests, WireStatus on
// responses, and `rank` is 0 on responses.
void append_header(std::vector<std::uint8_t>& out, MessageType type, std::uint64_t request_id,
                   std::uint32_t body_len, std::uint16_t aux16, std::uint8_t rank) {
  append_le(out, kMagic);
  append_le(out, kProtocolVersion);
  append_le(out, static_cast<std::uint16_t>(type));
  append_le(out, request_id);
  append_le(out, body_len);
  append_le(out, aux16);
  out.push_back(rank);
  out.push_back(0);  // reserved
}

std::uint64_t sum64(const std::vector<std::int64_t>& v) {
  std::uint64_t total = 0;
  for (const std::int64_t x : v) total += static_cast<std::uint64_t>(x);
  return total;
}

}  // namespace

std::string to_string(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kRejected: return "rejected";
    case WireStatus::kShed: return "shed";
    case WireStatus::kCancelled: return "cancelled";
    case WireStatus::kBadMagic: return "bad-magic";
    case WireStatus::kBadVersion: return "bad-version";
    case WireStatus::kBadFrame: return "bad-frame";
    case WireStatus::kBadRequest: return "bad-request";
    case WireStatus::kUnknownModel: return "unknown-model";
    case WireStatus::kShuttingDown: return "shutting-down";
    case WireStatus::kInternalError: return "internal-error";
  }
  return "unknown";
}

WireStatus wire_status(serve::RequestStatus status) {
  switch (status) {
    case serve::RequestStatus::kOk: return WireStatus::kOk;
    case serve::RequestStatus::kRejected: return WireStatus::kRejected;
    case serve::RequestStatus::kFailed: return WireStatus::kInternalError;
  }
  return WireStatus::kInternalError;
}

std::vector<std::uint8_t> encode_request(std::uint64_t request_id, const std::string& model_id,
                                         const Tensor& image) {
  const std::size_t rank = image.rank();
  const std::size_t payload = static_cast<std::size_t>(image.numel()) * sizeof(float);
  const std::size_t body = model_id.size() + rank * 4 + payload;
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + body);
  append_header(out, MessageType::kInfer, request_id, static_cast<std::uint32_t>(body),
                static_cast<std::uint16_t>(model_id.size()), static_cast<std::uint8_t>(rank));
  append_bytes(out, model_id.data(), model_id.size());
  for (std::size_t d = 0; d < rank; ++d) {
    append_le(out, static_cast<std::uint32_t>(image.shape()[d]));
  }
  append_bytes(out, image.data(), payload);
  return out;
}

std::vector<std::uint8_t> encode_result(std::uint64_t request_id, const serve::ServeResult& r) {
  const std::uint32_t classes = static_cast<std::uint32_t>(r.logits.numel());
  const std::uint32_t body = 36 + classes * 4;
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + body);
  append_header(out, MessageType::kResult, request_id, body,
                static_cast<std::uint16_t>(WireStatus::kOk), 0);
  append_le(out, static_cast<std::int64_t>(r.predicted));
  append_le(out, r.latency_seconds);
  append_le(out, sum64(r.stats.spikes_per_layer));
  append_le(out, sum64(r.stats.neurons_per_layer));
  append_le(out, classes);
  append_bytes(out, r.logits.data(), static_cast<std::size_t>(classes) * sizeof(float));
  return out;
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id, WireStatus status,
                                       const std::string& message) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + message.size());
  append_header(out, MessageType::kError, request_id,
                static_cast<std::uint32_t>(message.size()),
                static_cast<std::uint16_t>(status), 0);
  append_bytes(out, message.data(), message.size());
  return out;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  append_header(out, MessageType::kPing, request_id, 0, 0, 0);
  return out;
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  append_header(out, MessageType::kPong, request_id, 0,
                static_cast<std::uint16_t>(WireStatus::kOk), 0);
  return out;
}

// ---------------------------------------------------------------------------
// RequestParser
// ---------------------------------------------------------------------------

RequestParser::RequestParser(ParserLimits limits) : limits_{limits} {
  scratch_.resize(kHeaderBytes);
}

std::pair<std::uint8_t*, std::size_t> RequestParser::read_slot() {
  if (state_ == State::kDone) {
    // The previous frame was taken; re-arm for the next header.
    reset_frame();
  }
  if (state_ == State::kBad) return {nullptr, 0};
  if (state_ == State::kPayload) {
    auto* base = reinterpret_cast<std::uint8_t*>(payload_.data());
    return {base + filled_, payload_bytes_ - filled_};
  }
  if (scratch_.size() < need_) scratch_.resize(need_);
  return {scratch_.data() + filled_, need_ - filled_};
}

RequestParser::Event RequestParser::consume(std::size_t n) {
  if (state_ == State::kBad) return Event::kBad;
  filled_ += n;
  switch (state_) {
    case State::kHeader:
      if (filled_ < need_) return Event::kNeedMore;
      return parse_header();
    case State::kMeta:
      if (filled_ < need_) return Event::kNeedMore;
      return parse_meta();
    case State::kPayload:
      if (filled_ < payload_bytes_) return Event::kNeedMore;
      state_ = State::kDone;
      return Event::kRequest;
    case State::kDone:
    case State::kBad:
      break;
  }
  return Event::kNeedMore;
}

RequestParser::Event RequestParser::fail(WireStatus status, std::string message) {
  state_ = State::kBad;
  error_status_ = status;
  error_ = std::move(message);
  return Event::kBad;
}

RequestParser::Event RequestParser::parse_header() {
  const std::uint8_t* h = scratch_.data();
  if (load_le<std::uint32_t>(h) != kMagic) {
    return fail(WireStatus::kBadMagic, "bad magic (expected \"TTFS\")");
  }
  const std::uint16_t version = load_le<std::uint16_t>(h + 4);
  if (version != kProtocolVersion) {
    return fail(WireStatus::kBadVersion,
                "unsupported protocol version " + std::to_string(version) + " (speak " +
                    std::to_string(kProtocolVersion) + ")");
  }
  type_ = static_cast<MessageType>(load_le<std::uint16_t>(h + 6));
  request_id_ = load_le<std::uint64_t>(h + 8);
  body_len_ = load_le<std::uint32_t>(h + 16);
  model_len_ = load_le<std::uint16_t>(h + 20);
  rank_ = h[22];
  if (h[23] != 0) return fail(WireStatus::kBadFrame, "reserved header byte must be 0");

  if (type_ == MessageType::kPing) {
    if (body_len_ != 0) return fail(WireStatus::kBadFrame, "ping carries no body");
    state_ = State::kDone;
    return Event::kPing;
  }
  if (type_ != MessageType::kInfer) {
    return fail(WireStatus::kBadFrame,
                "unexpected client frame type " +
                    std::to_string(static_cast<std::uint16_t>(type_)));
  }
  if (body_len_ > limits_.max_body_bytes) {
    return fail(WireStatus::kBadFrame, "body of " + std::to_string(body_len_) +
                                           " bytes exceeds the " +
                                           std::to_string(limits_.max_body_bytes) +
                                           "-byte frame limit");
  }
  if (model_len_ > limits_.max_model_len) {
    return fail(WireStatus::kBadFrame, "model id of " + std::to_string(model_len_) +
                                           " bytes exceeds the " +
                                           std::to_string(limits_.max_model_len) +
                                           "-byte limit");
  }
  if (rank_ < 1 || rank_ > kMaxRank) {
    return fail(WireStatus::kBadFrame,
                "tensor rank " + std::to_string(rank_) + " outside 1.." +
                    std::to_string(kMaxRank));
  }
  const std::size_t meta = static_cast<std::size_t>(model_len_) + std::size_t{4} * rank_;
  if (body_len_ < meta) {
    return fail(WireStatus::kBadFrame, "body_len smaller than its model+dims section");
  }
  state_ = State::kMeta;
  need_ = meta;
  filled_ = 0;
  return Event::kNeedMore;
}

RequestParser::Event RequestParser::parse_meta() {
  const std::uint8_t* m = scratch_.data();
  model_.assign(reinterpret_cast<const char*>(m), model_len_);
  std::vector<std::int64_t> shape(rank_);
  std::uint64_t numel = 1;
  for (std::size_t d = 0; d < rank_; ++d) {
    const std::uint32_t dim = load_le<std::uint32_t>(m + model_len_ + 4 * d);
    if (dim == 0) return fail(WireStatus::kBadFrame, "zero tensor dimension");
    shape[d] = static_cast<std::int64_t>(dim);
    numel *= dim;
    if (numel > limits_.max_body_bytes / sizeof(float)) {
      return fail(WireStatus::kBadFrame, "tensor dims overflow the frame limit");
    }
  }
  payload_bytes_ = static_cast<std::size_t>(numel) * sizeof(float);
  const std::size_t meta = static_cast<std::size_t>(model_len_) + std::size_t{4} * rank_;
  if (static_cast<std::size_t>(body_len_) != meta + payload_bytes_) {
    return fail(WireStatus::kBadFrame,
                "payload of " + std::to_string(body_len_ - meta) +
                    " bytes does not match dims (want " + std::to_string(payload_bytes_) +
                    ")");
  }
  // The zero-copy hand-off: payload floats land straight in the tensor that
  // submit() will own (read_slot points into its storage from here on).
  payload_ = Tensor{std::move(shape)};
  state_ = State::kPayload;
  filled_ = 0;
  return Event::kNeedMore;
}

Tensor RequestParser::take_payload() {
  Tensor out = std::move(payload_);
  payload_ = Tensor{};
  return out;
}

void RequestParser::reset_frame() {
  state_ = State::kHeader;
  need_ = kHeaderBytes;
  filled_ = 0;
  payload_bytes_ = 0;
  model_.clear();
}

// ---------------------------------------------------------------------------
// ResponseParser
// ---------------------------------------------------------------------------

ResponseParser::ResponseParser(ParserLimits limits) : limits_{limits} {
  scratch_.resize(kHeaderBytes);
}

std::pair<std::uint8_t*, std::size_t> ResponseParser::read_slot() {
  if (state_ == State::kDone) {
    state_ = State::kHeader;
    need_ = kHeaderBytes;
    filled_ = 0;
  }
  if (state_ == State::kBad) return {nullptr, 0};
  if (scratch_.size() < need_) scratch_.resize(need_);
  return {scratch_.data() + filled_, need_ - filled_};
}

ResponseParser::Event ResponseParser::consume(std::size_t n) {
  if (state_ == State::kBad) return Event::kBad;
  filled_ += n;
  if (filled_ < need_) return Event::kNeedMore;
  return state_ == State::kHeader ? parse_header() : parse_body();
}

ResponseParser::Event ResponseParser::fail(std::string message) {
  state_ = State::kBad;
  error_ = std::move(message);
  return Event::kBad;
}

ResponseParser::Event ResponseParser::parse_header() {
  const std::uint8_t* h = scratch_.data();
  if (load_le<std::uint32_t>(h) != kMagic) return fail("bad magic in server frame");
  if (load_le<std::uint16_t>(h + 4) != kProtocolVersion) {
    return fail("unsupported server protocol version");
  }
  response_ = WireResponse{};
  response_.type = static_cast<MessageType>(load_le<std::uint16_t>(h + 6));
  response_.request_id = load_le<std::uint64_t>(h + 8);
  body_len_ = load_le<std::uint32_t>(h + 16);
  response_.status = static_cast<WireStatus>(load_le<std::uint16_t>(h + 20));
  if (body_len_ > limits_.max_body_bytes) return fail("oversized server frame");
  switch (response_.type) {
    case MessageType::kResult:
      if (body_len_ < 36) return fail("kResult body too short");
      break;
    case MessageType::kError:
      break;
    case MessageType::kPong:
      if (body_len_ != 0) return fail("pong carries no body");
      state_ = State::kDone;
      return Event::kResponse;
    default:
      return fail("unexpected server frame type");
  }
  if (body_len_ == 0) {
    state_ = State::kDone;
    return Event::kResponse;
  }
  state_ = State::kBody;
  need_ = body_len_;
  filled_ = 0;
  return Event::kNeedMore;
}

ResponseParser::Event ResponseParser::parse_body() {
  const std::uint8_t* b = scratch_.data();
  if (response_.type == MessageType::kError) {
    response_.error.assign(reinterpret_cast<const char*>(b), body_len_);
    state_ = State::kDone;
    return Event::kResponse;
  }
  response_.predicted = load_le<std::int64_t>(b);
  response_.latency_seconds = load_le<double>(b + 8);
  response_.spikes = load_le<std::uint64_t>(b + 16);
  response_.neurons = load_le<std::uint64_t>(b + 24);
  const std::uint32_t classes = load_le<std::uint32_t>(b + 32);
  if (body_len_ != 36 + static_cast<std::size_t>(classes) * 4) {
    return fail("kResult logits length does not match its class count");
  }
  response_.logits.resize(classes);
  std::memcpy(response_.logits.data(), b + 36, static_cast<std::size_t>(classes) * 4);
  state_ = State::kDone;
  return Event::kResponse;
}

}  // namespace ttfs::net
