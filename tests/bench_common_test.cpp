// The benches' shared accuracy helper (bench/common.h) on every --backend
// spelling: the fixed-point backend needs log-quantized weights, so
// bench::snn_accuracy must evaluate a float net's log-quantized copy there
// rather than hand the float net to it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cat/logquant.h"
#include "common.h"
#include "util/rng.h"

namespace ttfs {
namespace {

// Parses `--backend <spelling>` through bench::init, as a bench main does,
// and restores the default on exit.
struct ScopedBackend {
  explicit ScopedBackend(const std::string& spelling) {
    std::string prog = "bench", flag = "--backend", value = spelling;
    char* argv[] = {prog.data(), flag.data(), value.data()};
    bench::init(3, argv);
  }
  ~ScopedBackend() { bench::backend_flag().clear(); }
};

TEST(BenchSnnAccuracy, EveryBackendSpellingEvaluatesAFloatNet) {
  Rng rng{941};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(Tensor::uniform({6, 3, 3, 3}, rng, -0.15F, 0.3F),
               Tensor::uniform({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(Tensor::uniform({4, 6 * 4 * 4}, rng, -0.1F, 0.12F),
             Tensor::uniform({4}, rng, -0.05F, 0.05F));
  data::LabeledData test;
  test.images = Tensor::uniform({10, 3, 8, 8}, rng, 0.0F, 1.0F);
  test.classes = 4;
  for (std::int32_t i = 0; i < 10; ++i) test.labels.push_back(i % 4);

  // The quantized spelling runs the log-quantized copy: the same accuracy as
  // the float event sim on that copy (their predictions agree exactly).
  snn::SnnNetwork quantized = net;
  cat::log_quantize_network(quantized, cat::LogQuantConfig{});
  double want_quantized = 0.0;
  {
    const ScopedBackend event{"event"};
    want_quantized = bench::snn_accuracy(quantized, test);
  }
  for (const std::string spelling : {"event", "reference", "quantized"}) {
    const ScopedBackend backend{spelling};
    double acc = -1.0;
    ASSERT_NO_THROW(acc = bench::snn_accuracy(net, test)) << spelling;
    EXPECT_GE(acc, 0.0) << spelling;  // percent
    EXPECT_LE(acc, 100.0) << spelling;
    if (spelling == "quantized") {
      EXPECT_EQ(acc, want_quantized);
    }
  }
}

}  // namespace
}  // namespace ttfs
