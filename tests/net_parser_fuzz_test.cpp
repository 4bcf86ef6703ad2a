// Seeded mutation fuzz of the wire parsers (net/protocol.h), without
// libFuzzer. Valid frames — encode_request / encode_ping for RequestParser,
// encode_result / encode_error / encode_pong for ResponseParser — are
// bit-flipped, truncated, spliced and given rewritten length fields, then fed
// through read_slot/consume in random chunk sizes from a fixed seed. Checked:
// kBad is terminal, no accepted frame exceeds ParserLimits, and unmutated
// streams round-trip exactly. The ASan lane catches over-reads and -writes.
//
// Linux-only like src/net/ itself; on other platforms this TU compiles to an
// empty suite.
#ifdef __linux__

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/rng.h"

namespace ttfs::net {
namespace {

// Streams per test: the four tests together take well under 1 s in the
// Debug+ASan build.
constexpr int kFuzzIterations = 2000;

using Bytes = std::vector<std::uint8_t>;

// Tight limits, so rewritten length fields land on both sides of them; every
// unmutated frame below fits.
ParserLimits fuzz_limits() {
  ParserLimits limits;
  limits.max_body_bytes = 512;
  limits.max_model_len = 16;
  return limits;
}

// Concatenated frames and the offset of each frame's header.
struct Stream {
  Bytes bytes;
  std::vector<std::size_t> headers;

  void add(const Bytes& frame) {
    headers.push_back(bytes.size());
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
};

std::uint64_t random_id(Rng& rng) { return rng.engine()(); }

bool same_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;  // pings carry no payload
}

template <typename T>
void poke(Bytes& bytes, std::size_t offset, T value) {
  if (offset + sizeof(T) <= bytes.size()) std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

// A value near the interesting edges of a length field, or anywhere.
std::uint32_t length_value(Rng& rng, std::uint32_t limit) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0;
    case 1: return limit - 1;
    case 2: return limit;
    case 3: return limit + 1;
    case 4: return 0xFFFFFFFFU;
    default: return static_cast<std::uint32_t>(rng.uniform_int(0, 2 * limit));
  }
}

// One to three of: flip bytes, truncate, splice with `other`, append random
// bytes (so a grown length field can complete), rewrite a header length field
// (body_len, model_len, rank) or a request dim.
Bytes mutate(const Stream& s, const Stream& other, Rng& rng) {
  const auto body_limit = static_cast<std::uint32_t>(fuzz_limits().max_body_bytes);
  Bytes out = s.bytes;
  for (auto ops = rng.uniform_int(1, 3); ops > 0 && !out.empty(); --ops) {
    const auto pos = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
    };
    const std::size_t header = s.headers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.headers.size()) - 1))];
    switch (rng.uniform_int(0, 6)) {
      case 0:
        for (int f = static_cast<int>(rng.uniform_int(1, 4)); f > 0; --f) {
          out[pos()] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        break;
      case 1:
        out.resize(pos());
        break;
      case 2: {
        const auto from = rng.uniform_int(0, static_cast<std::int64_t>(other.bytes.size()) - 1);
        out.resize(pos());
        out.insert(out.end(), other.bytes.begin() + from, other.bytes.end());
        break;
      }
      case 3:
        for (auto n = rng.uniform_int(1, 2 * body_limit); n > 0; --n) {
          out.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
        break;
      case 4:
        poke(out, header + 16, length_value(rng, body_limit));
        break;
      case 5:
        poke(out, header + 20, static_cast<std::uint16_t>(length_value(rng, 16)));
        poke(out, header + 22, static_cast<std::uint8_t>(rng.uniform_int(0, 8)));
        break;
      default: {
        if (header + kHeaderBytes > out.size()) break;
        std::uint16_t model_len = 0;
        std::memcpy(&model_len, out.data() + header + 20, sizeof model_len);
        const std::size_t dim = static_cast<std::size_t>(rng.uniform_int(0, kMaxRank - 1));
        poke(out, header + kHeaderBytes + model_len + 4 * dim, length_value(rng, body_limit / 4));
        break;
      }
    }
  }
  return out;
}

// Feeds `stream` to `parser` in random chunk sizes (clipped to its read slot),
// handing every event but kBad to on_event. Returns false once the parser
// went kBad, after checking that kBad is terminal.
template <typename Parser, typename OnEvent>
bool feed(Parser& parser, const Bytes& stream, Rng& rng, OnEvent on_event) {
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const auto [slot, room] = parser.read_slot();
    if (room == 0) {
      ADD_FAILURE() << "empty read slot outside kBad";
      return true;
    }
    const auto chunk =
        static_cast<std::size_t>(rng.bernoulli(0.5) ? rng.uniform_int(1, 8)
                                                    : rng.uniform_int(1, 1024));
    const std::size_t n = std::min({room, stream.size() - pos, chunk});
    std::memcpy(slot, stream.data() + pos, n);
    pos += n;
    const auto event = parser.consume(n);
    if (event == Parser::Event::kBad) {
      EXPECT_FALSE(parser.error().empty());
      const auto [dead_slot, dead_room] = parser.read_slot();
      EXPECT_EQ(dead_slot, nullptr);
      EXPECT_EQ(dead_room, 0U);
      EXPECT_EQ(parser.consume(0), Parser::Event::kBad);
      EXPECT_EQ(parser.consume(1), Parser::Event::kBad);
      return false;
    }
    on_event(event);
  }
  return true;
}

// --- RequestParser: kInfer and kPing frames ---

struct Request {
  bool ping = false;
  std::uint64_t id = 0;
  std::string model;
  Tensor payload;
};

Request random_request(Rng& rng) {
  Request r;
  r.id = random_id(rng);
  if (rng.bernoulli(0.2)) {
    r.ping = true;
    return r;
  }
  r.model.resize(static_cast<std::size_t>(rng.uniform_int(0, 8)));
  for (char& c : r.model) c = static_cast<char>(rng.uniform_int('a', 'z'));
  std::vector<std::int64_t> shape(static_cast<std::size_t>(rng.uniform_int(1, kMaxRank)));
  for (auto& d : shape) d = rng.uniform_int(1, 3);
  r.payload = Tensor::uniform(shape, rng, -2.0F, 2.0F);
  return r;
}

Stream request_stream(Rng& rng, std::vector<Request>* sent = nullptr) {
  Stream s;
  for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
    Request r = random_request(rng);
    s.add(r.ping ? encode_ping(r.id) : encode_request(r.id, r.model, r.payload));
    if (sent != nullptr) sent->push_back(std::move(r));
  }
  return s;
}

// Every frame RequestParser accepts from `stream`, each checked against the
// limits; *bad reports whether the stream ended the parser in kBad.
std::vector<Request> parse_requests(const Bytes& stream, Rng& rng, bool* bad) {
  const ParserLimits limits = fuzz_limits();
  RequestParser parser{limits};
  std::vector<Request> got;
  *bad = !feed(parser, stream, rng, [&](RequestParser::Event event) {
    if (event == RequestParser::Event::kPing) {
      got.push_back(Request{true, parser.request_id(), {}, {}});
      parser.reset_frame();
    } else if (event == RequestParser::Event::kRequest) {
      Request r{false, parser.request_id(), parser.model(), parser.take_payload()};
      const auto body = r.model.size() + 4 * r.payload.rank() +
                        static_cast<std::size_t>(r.payload.numel()) * sizeof(float);
      EXPECT_LE(body, limits.max_body_bytes);
      EXPECT_LE(r.model.size(), limits.max_model_len);
      got.push_back(std::move(r));
    }
  });
  return got;
}

TEST(WireParserFuzz, UnmutatedRequestStreamsRoundTrip) {
  Rng rng{0x5EED01};
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::vector<Request> sent;
    const Stream s = request_stream(rng, &sent);
    bool bad = false;
    const std::vector<Request> got = parse_requests(s.bytes, rng, &bad);
    ASSERT_FALSE(bad) << "iteration " << it;
    ASSERT_EQ(got.size(), sent.size()) << "iteration " << it;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].ping, sent[i].ping);
      EXPECT_EQ(got[i].id, sent[i].id);
      EXPECT_EQ(got[i].model, sent[i].model);
      ASSERT_EQ(got[i].payload.shape(), sent[i].payload.shape());
      EXPECT_TRUE(same_bits(got[i].payload.data(), sent[i].payload.data(),
                            static_cast<std::size_t>(sent[i].payload.numel())));
    }
  }
}

TEST(WireParserFuzz, MutatedRequestStreamsStayWithinLimits) {
  Rng rng{0x5EED02};
  int bad_streams = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    const Stream s = request_stream(rng);
    const Stream other = request_stream(rng);
    bool bad = false;
    (void)parse_requests(mutate(s, other, rng), rng, &bad);
    if (bad) ++bad_streams;
  }
  // The mutations reach the rejection paths, not only the happy path.
  EXPECT_GT(bad_streams, kFuzzIterations / 4);
}

// --- ResponseParser: kResult, kError and kPong frames ---

WireResponse random_response(Rng& rng) {
  WireResponse r;
  r.request_id = random_id(rng);
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      r.type = MessageType::kResult;
      r.predicted = rng.uniform_int(-1, 9);
      r.latency_seconds = rng.uniform(0.0, 1.0);
      r.spikes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
      r.neurons = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
      r.logits.resize(static_cast<std::size_t>(rng.uniform_int(1, 20)));
      for (float& v : r.logits) v = rng.uniform_f(-5.0F, 5.0F);
      break;
    }
    case 1: {
      r.type = MessageType::kError;
      static constexpr WireStatus kStatuses[] = {WireStatus::kRejected, WireStatus::kShed,
                                                 WireStatus::kBadFrame, WireStatus::kUnknownModel,
                                                 WireStatus::kInternalError};
      r.status = kStatuses[rng.uniform_int(0, 4)];
      r.error.resize(static_cast<std::size_t>(rng.uniform_int(0, 40)));
      for (char& c : r.error) c = static_cast<char>(rng.uniform_int(' ', '~'));
      break;
    }
    default:
      r.type = MessageType::kPong;
      break;
  }
  return r;
}

Bytes encode(const WireResponse& r) {
  switch (r.type) {
    case MessageType::kResult: {
      serve::ServeResult result;
      result.status = serve::RequestStatus::kOk;
      result.predicted = r.predicted;
      result.latency_seconds = r.latency_seconds;
      // encode_result sends the per-layer sums.
      result.stats.spikes_per_layer = {static_cast<std::int64_t>(r.spikes)};
      result.stats.neurons_per_layer = {static_cast<std::int64_t>(r.neurons)};
      result.logits = Tensor{{1, static_cast<std::int64_t>(r.logits.size())}, r.logits};
      return encode_result(r.request_id, result);
    }
    case MessageType::kError: return encode_error(r.request_id, r.status, r.error);
    default: return encode_pong(r.request_id);
  }
}

Stream response_stream(Rng& rng, std::vector<WireResponse>* sent = nullptr) {
  Stream s;
  for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
    WireResponse r = random_response(rng);
    s.add(encode(r));
    if (sent != nullptr) sent->push_back(std::move(r));
  }
  return s;
}

std::vector<WireResponse> parse_responses(const Bytes& stream, Rng& rng, bool* bad) {
  const ParserLimits limits = fuzz_limits();
  ResponseParser parser{limits};
  std::vector<WireResponse> got;
  *bad = !feed(parser, stream, rng, [&](ResponseParser::Event event) {
    if (event != ResponseParser::Event::kResponse) return;
    const WireResponse& r = parser.response();
    EXPECT_LE(36 + r.logits.size() * sizeof(float), limits.max_body_bytes);
    EXPECT_LE(r.error.size(), limits.max_body_bytes);
    got.push_back(r);
  });
  return got;
}

TEST(WireParserFuzz, UnmutatedResponseStreamsRoundTrip) {
  Rng rng{0x5EED03};
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::vector<WireResponse> sent;
    const Stream s = response_stream(rng, &sent);
    bool bad = false;
    const std::vector<WireResponse> got = parse_responses(s.bytes, rng, &bad);
    ASSERT_FALSE(bad) << "iteration " << it;
    ASSERT_EQ(got.size(), sent.size()) << "iteration " << it;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].request_id, sent[i].request_id);
      EXPECT_EQ(got[i].status, sent[i].status);
      EXPECT_EQ(got[i].predicted, sent[i].predicted);
      EXPECT_EQ(std::memcmp(&got[i].latency_seconds, &sent[i].latency_seconds, sizeof(double)),
                0);
      EXPECT_EQ(got[i].spikes, sent[i].spikes);
      EXPECT_EQ(got[i].neurons, sent[i].neurons);
      ASSERT_EQ(got[i].logits.size(), sent[i].logits.size());
      EXPECT_TRUE(same_bits(got[i].logits.data(), sent[i].logits.data(), sent[i].logits.size()));
      EXPECT_EQ(got[i].error, sent[i].error);
    }
  }
}

TEST(WireParserFuzz, MutatedResponseStreamsStayWithinLimits) {
  Rng rng{0x5EED04};
  int bad_streams = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    const Stream s = response_stream(rng);
    const Stream other = response_stream(rng);
    bool bad = false;
    (void)parse_responses(mutate(s, other, rng), rng, &bad);
    if (bad) ++bad_streams;
  }
  EXPECT_GT(bad_streams, kFuzzIterations / 4);
}

}  // namespace
}  // namespace ttfs::net

#endif  // __linux__
