#include "cat/deploy.h"

#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "snn/log_weight.h"
#include "util/check.h"

namespace ttfs::cat {
namespace {

constexpr std::uint32_t kMagic = 0x54544644;  // "TTFD"
constexpr std::uint32_t kVersion = 1;

enum class LayerTag : std::uint8_t { kConv = 1, kFc = 2, kPool = 3 };

template <typename T>
void write_pod(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  TTFS_CHECK_MSG(is.good(), "truncated deploy image");
  return v;
}

// The image's serialization of a log-weight code (snn/log_weight.h holds the
// format itself): a (bits)-wide field whose bit (bits-1) is the sign and
// whose low bits are the magnitude index q_max - q, with the all-ones index
// reserved for zero. Field i sits at bits [i * bits, (i + 1) * bits) of the
// payload, little-endian within each byte, matching a DMA burst layout.
std::uint32_t zero_index(int bits) { return (std::uint32_t{1} << (bits - 1)) - 1; }

std::uint32_t encode_weight(float wq, int q_max, const LogQuantConfig& config,
                            std::uint64_t& zero_coded) {
  if (wq == 0.0F) {
    ++zero_coded;
    return zero_index(config.bits);
  }
  const std::optional<int> q = snn::log_weight_code(wq, config.z);
  TTFS_CHECK_MSG(q.has_value(), "weight " << wq << " is not on the log grid of z = " << config.z);
  const int index = q_max - *q;
  TTFS_CHECK_MSG(index >= 0 && index < static_cast<int>(zero_index(config.bits)),
                 "weight code out of range: q=" << *q << " q_max=" << q_max);
  return static_cast<std::uint32_t>(index) | (wq < 0.0F ? 1U << (config.bits - 1) : 0U);
}

float decode_weight(std::uint32_t code, int q_max, const LogQuantConfig& config) {
  const std::uint32_t index = code & zero_index(config.bits);
  if (index == zero_index(config.bits)) return 0.0F;
  const double mag = snn::log_weight_magnitude(q_max - static_cast<int>(index), config.z);
  return static_cast<float>((code >> (config.bits - 1) & 1U) != 0U ? -mag : mag);
}

// Log-quantizes a copy of `weight` and writes its anchor, count and payload,
// then the bias (zeros when the layer has none).
void write_weights(std::ofstream& os, const Tensor& weight, const Tensor& bias,
                   const LogQuantConfig& config, DeployStats& stats) {
  Tensor quantized{weight.shape(), weight.vec()};
  const LayerQuantInfo info = log_quantize_tensor(quantized, config);
  const auto count = static_cast<std::uint64_t>(quantized.numel());
  std::vector<unsigned char> payload((count * static_cast<std::uint64_t>(config.bits) + 7) / 8);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t code = encode_weight(quantized[static_cast<std::int64_t>(i)], info.q_max,
                                             config, stats.zero_coded);
    for (int b = 0; b < config.bits; ++b) {
      const std::uint64_t at = i * static_cast<std::uint64_t>(config.bits) + b;
      if ((code >> b & 1U) != 0U) payload[at / 8] |= static_cast<unsigned char>(1U << at % 8);
    }
  }
  write_pod(os, static_cast<std::int32_t>(info.q_max));
  write_pod(os, count);
  write_pod(os, static_cast<std::uint64_t>(payload.size()));
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  stats.weight_payload_bytes += payload.size();
  stats.weights += count;
  const Tensor b = bias.empty() ? Tensor{{weight.dim(0)}} : bias;
  write_pod(os, static_cast<std::uint64_t>(b.numel()));
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.numel() * sizeof(float)));
}

// Reads what write_weights wrote: the layer's weights and bias.
std::pair<Tensor, Tensor> read_weights(std::ifstream& is, std::vector<std::int64_t> shape,
                                       const LogQuantConfig& config) {
  const std::int64_t outputs = shape[0];
  const auto q_max = read_pod<std::int32_t>(is);
  const auto count = read_pod<std::uint64_t>(is);
  const auto bytes = read_pod<std::uint64_t>(is);
  Tensor out{std::move(shape)};
  TTFS_CHECK(static_cast<std::uint64_t>(out.numel()) == count);
  TTFS_CHECK_MSG(bytes * 8 >= count * static_cast<std::uint64_t>(config.bits),
                 "deploy payload overrun");
  std::vector<unsigned char> payload(bytes);
  is.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(bytes));
  TTFS_CHECK_MSG(is.good(), "truncated weight payload");

  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t code = 0;
    for (int b = 0; b < config.bits; ++b) {
      const std::uint64_t at = i * static_cast<std::uint64_t>(config.bits) + b;
      if ((payload[at / 8] >> at % 8 & 1U) != 0U) code |= 1U << b;
    }
    out[static_cast<std::int64_t>(i)] = decode_weight(code, q_max, config);
  }
  TTFS_CHECK(read_pod<std::uint64_t>(is) == static_cast<std::uint64_t>(outputs));
  Tensor bias{{outputs}};
  is.read(reinterpret_cast<char*>(bias.data()),
          static_cast<std::streamsize>(outputs * sizeof(float)));
  TTFS_CHECK_MSG(is.good(), "truncated bias");
  return {std::move(out), std::move(bias)};
}

}  // namespace

DeployStats write_deploy_image(const snn::SnnNetwork& net, const LogQuantConfig& config,
                               const std::string& path) {
  TTFS_CHECK(config.bits >= 2 && config.bits <= 16);
  const std::filesystem::path p{path};
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os{p, std::ios::binary};
  TTFS_CHECK_MSG(os.good(), "cannot open " << path);

  DeployStats stats;
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::int32_t>(net.kernel().window()));
  write_pod(os, net.kernel().tau());
  write_pod(os, net.kernel().theta0());
  write_pod(os, static_cast<std::int32_t>(config.bits));
  write_pod(os, static_cast<std::int32_t>(config.z));
  write_pod(os, static_cast<std::uint32_t>(net.layers().size()));

  for (const auto& layer : net.layers()) {
    if (const auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      write_pod(os, static_cast<std::uint8_t>(LayerTag::kConv));
      for (int d = 0; d < 4; ++d) write_pod(os, static_cast<std::int64_t>(conv->weight.dim(d)));
      write_pod(os, static_cast<std::int64_t>(conv->stride));
      write_pod(os, static_cast<std::int64_t>(conv->pad));
      write_weights(os, conv->weight, conv->bias, config, stats);
    } else if (const auto* fc = std::get_if<snn::SnnFc>(&layer)) {
      write_pod(os, static_cast<std::uint8_t>(LayerTag::kFc));
      write_pod(os, static_cast<std::int64_t>(fc->weight.dim(0)));
      write_pod(os, static_cast<std::int64_t>(fc->weight.dim(1)));
      write_weights(os, fc->weight, fc->bias, config, stats);
    } else {
      const auto& pool = std::get<snn::SnnPool>(layer);
      write_pod(os, static_cast<std::uint8_t>(LayerTag::kPool));
      write_pod(os, static_cast<std::int64_t>(pool.kernel));
      write_pod(os, static_cast<std::int64_t>(pool.stride));
    }
  }
  TTFS_CHECK_MSG(os.good(), "write failed for " << path);
  os.flush();
  stats.file_bytes = static_cast<std::uint64_t>(std::filesystem::file_size(p));
  return stats;
}

snn::SnnNetwork read_deploy_image(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  TTFS_CHECK_MSG(is.good(), "cannot open " << path);
  TTFS_CHECK_MSG(read_pod<std::uint32_t>(is) == kMagic, "bad magic in " << path);
  TTFS_CHECK_MSG(read_pod<std::uint32_t>(is) == kVersion, "unsupported version in " << path);
  const auto window = read_pod<std::int32_t>(is);
  const auto tau = read_pod<double>(is);
  const auto theta0 = read_pod<double>(is);
  LogQuantConfig config;
  config.bits = read_pod<std::int32_t>(is);
  config.z = read_pod<std::int32_t>(is);
  TTFS_CHECK_MSG(config.bits >= 2 && config.bits <= 16 && config.z >= 0 && config.z <= 8,
                 "bad weight format (bits " << config.bits << ", z " << config.z << ") in "
                                            << path);
  const auto layer_count = read_pod<std::uint32_t>(is);

  snn::SnnNetwork net{snn::Base2Kernel{window, tau, theta0}};
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    const auto tag = static_cast<LayerTag>(read_pod<std::uint8_t>(is));
    if (tag == LayerTag::kConv) {
      std::vector<std::int64_t> shape(4);
      for (auto& d : shape) d = read_pod<std::int64_t>(is);
      const auto stride = read_pod<std::int64_t>(is);
      const auto pad = read_pod<std::int64_t>(is);
      auto [w, b] = read_weights(is, shape, config);
      net.add_conv(std::move(w), std::move(b), stride, pad);
    } else if (tag == LayerTag::kFc) {
      const auto out = read_pod<std::int64_t>(is);
      const auto in = read_pod<std::int64_t>(is);
      auto [w, b] = read_weights(is, {out, in}, config);
      net.add_fc(std::move(w), std::move(b));
    } else if (tag == LayerTag::kPool) {
      const auto kernel = read_pod<std::int64_t>(is);
      const auto stride = read_pod<std::int64_t>(is);
      net.add_pool(kernel, stride);
    } else {
      TTFS_CHECK_MSG(false, "unknown layer tag in " << path);
    }
  }
  return net;
}

}  // namespace ttfs::cat
