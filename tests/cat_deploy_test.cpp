#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "cat/deploy.h"
#include "cat/logquant.h"
#include "snn/log_weight.h"
#include "snn/network.h"
#include "util/rng.h"

namespace ttfs::cat {
namespace {

snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({6, 3, 3, 3}, rng, -0.2F, 0.25F),
               Tensor::uniform({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({4, 6 * 5 * 5}, rng, -0.08F, 0.1F),
             Tensor::uniform({4}, rng, -0.05F, 0.05F));
  return net;
}

TEST(Deploy, RoundTripMatchesQuantizedNetworkExactly) {
  Rng rng{500};
  snn::SnnNetwork net = make_net(rng);
  LogQuantConfig config;
  config.bits = 5;
  config.z = 1;

  const std::string path = ::testing::TempDir() + "/ttfs_deploy_test.ttfd";
  const DeployStats stats = write_deploy_image(net, config, path);
  EXPECT_GT(stats.file_bytes, 0U);
  EXPECT_EQ(stats.weights, static_cast<std::uint64_t>(6 * 3 * 9 + 4 * 6 * 25));

  snn::SnnNetwork loaded = read_deploy_image(path);
  EXPECT_EQ(loaded.kernel().window(), 24);
  EXPECT_DOUBLE_EQ(loaded.kernel().tau(), 4.0);
  ASSERT_EQ(loaded.layers().size(), net.layers().size());

  // Reference: quantize the original in place; weights must match the
  // reconstruction bit-for-bit.
  snn::SnnNetwork reference{net.kernel(), std::vector<snn::SnnLayer>(net.layers())};
  log_quantize_network(reference, config);
  const auto* ref_conv = std::get_if<snn::SnnConv>(&reference.layers()[0]);
  const auto* got_conv = std::get_if<snn::SnnConv>(&loaded.layers()[0]);
  ASSERT_NE(got_conv, nullptr);
  EXPECT_TRUE(got_conv->weight.allclose(ref_conv->weight, 0.0F));
  EXPECT_TRUE(got_conv->bias.allclose(ref_conv->bias, 0.0F));
  const auto* ref_fc = std::get_if<snn::SnnFc>(&reference.layers()[2]);
  const auto* got_fc = std::get_if<snn::SnnFc>(&loaded.layers()[2]);
  ASSERT_NE(got_fc, nullptr);
  EXPECT_TRUE(got_fc->weight.allclose(ref_fc->weight, 0.0F));

  // And inference agrees exactly.
  Rng img_rng{501};
  Tensor x = Tensor::uniform({2, 3, 10, 10}, img_rng, 0.0F, 1.0F);
  EXPECT_TRUE(loaded.forward(x).allclose(reference.forward(x), 0.0F));
}

class DeployBits : public ::testing::TestWithParam<int> {};

TEST_P(DeployBits, PayloadSizeMatchesDramAccounting) {
  const int bits = GetParam();
  Rng rng{502};
  snn::SnnNetwork net = make_net(rng);
  LogQuantConfig config;
  config.bits = bits;
  config.z = 1;
  const std::string path = ::testing::TempDir() + "/ttfs_deploy_bits.ttfd";
  const DeployStats stats = write_deploy_image(net, config, path);
  // Packed payload = ceil(weights * bits / 8) per layer — the DRAM weight
  // stream Table 4 charges at `weight_bits` per weight.
  const std::uint64_t expected_bits = stats.weights * static_cast<std::uint64_t>(bits);
  EXPECT_GE(stats.weight_payload_bytes * 8, expected_bits);
  EXPECT_LE(stats.weight_payload_bytes * 8, expected_bits + 2 * 8);  // <=1 byte pad per layer
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, DeployBits, ::testing::Values(4, 5, 6, 8));

// Every grid value +-2^(q * 2^-z), q in [-40, 40], crosses the image with
// its own code at z in {0, 1, 2}: the writer recovers each code through the
// log-weight codec's inverse and the reader expands it back, bit for bit.
TEST(Deploy, GridValuesRoundTripThroughTheImage) {
  constexpr int kGridQ = 40;
  for (const int z : {0, 1, 2}) {
    std::vector<float> grid;
    for (int q = -kGridQ; q <= kGridQ; ++q) {
      for (const int sign : {1, -1}) {
        grid.push_back(static_cast<float>(sign * snn::log_weight_magnitude(q, z)));
      }
    }
    const auto n = static_cast<std::int64_t>(grid.size());
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
    net.add_fc(Tensor{{1, n}, grid}, Tensor{{1}});
    LogQuantConfig config;
    config.bits = 8;  // 127 magnitude levels below the anchor q_max = kGridQ
    config.z = z;
    const std::string path = ::testing::TempDir() + "/ttfs_deploy_grid.ttfd";
    EXPECT_EQ(write_deploy_image(net, config, path).zero_coded, 0U) << "z=" << z;

    const snn::SnnNetwork loaded = read_deploy_image(path);
    const Tensor& got = std::get<snn::SnnFc>(loaded.layers()[0]).weight;
    ASSERT_EQ(got.numel(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], grid[static_cast<std::size_t>(i)]) << "z=" << z << " weight " << i;
    }
  }
}

TEST(Deploy, RejectsCorruptImage) {
  const std::string path = ::testing::TempDir() + "/ttfs_deploy_bad.ttfd";
  std::ofstream os{path, std::ios::binary};
  os << "not a deploy image";
  os.close();
  EXPECT_THROW(read_deploy_image(path), std::invalid_argument);
  EXPECT_THROW(read_deploy_image("/nonexistent.ttfd"), std::invalid_argument);
}

TEST(Deploy, ZeroCodesCounted) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  // One big weight + many tiny ones that underflow the 4-bit window.
  Tensor w{{1, 1, 3, 3}};
  w.fill(1e-5F);
  w[0] = 1.0F;
  net.add_conv(std::move(w), Tensor{{1}}, 1, 1);
  net.add_fc(Tensor::full({2, 1 * 3 * 3}, 0.5F), Tensor{{2}});
  LogQuantConfig config;
  config.bits = 4;
  config.z = 0;
  const std::string path = ::testing::TempDir() + "/ttfs_deploy_zero.ttfd";
  const DeployStats stats = write_deploy_image(net, config, path);
  EXPECT_EQ(stats.zero_coded, 8U);  // the eight 1e-5 weights
  snn::SnnNetwork loaded = read_deploy_image(path);
  const auto* conv = std::get_if<snn::SnnConv>(&loaded.layers()[0]);
  EXPECT_EQ(conv->weight[1], 0.0F);
  EXPECT_EQ(conv->weight[0], 1.0F);
}

}  // namespace
}  // namespace ttfs::cat
