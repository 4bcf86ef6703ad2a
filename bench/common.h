// Shared plumbing for the table/figure reproduction benches.
//
// Every bench resolves its datasets, trains (or loads a cached) CAT model and
// prints a Table with the paper's numbers alongside ours. Trained models are
// cached under artifacts/models/ keyed by their full configuration, so
// re-running a bench (or the whole suite) reuses earlier training runs;
// delete the directory or set TTFS_REFRESH=1 to retrain.
#pragma once

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cat/conversion.h"
#include "cat/logquant.h"
#include "cat/trainer.h"
#include "data/cifar.h"
#include "data/synthetic.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
#include "nn/vgg.h"
#include "snn/engine.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/table.h"

namespace ttfs::bench {

// Process-wide --json switch. When enabled, every emit()ted table is also
// written as BENCH_<title>.json in the working directory (CI uploads the
// BENCH_*.json glob as per-commit perf artifacts).
inline bool& json_mode() {
  static bool enabled = false;
  return enabled;
}

// Process-wide --backend flag (event|reference|quantized): which
// snn::Engine realization inference-driven benches run. Empty until
// --backend is passed; resolve through backend_kind(), which falls back to
// the event simulator.
inline std::string& backend_flag() {
  static std::string name;
  return name;
}

inline snn::BackendKind backend_kind() {
  return backend_flag().empty() ? snn::BackendKind::kEventSim
                                : snn::backend_kind_from_string(backend_flag());
}

// Call at the top of every bench main: parses the shared flags
// (--json, --backend).
inline void init(int argc, char** argv) {
  const CliArgs args{argc, argv};
  json_mode() = args.get_flag("json");
  backend_flag() = args.get_string("backend", "");
}

// Filesystem-safe slug of a table title.
inline std::string slug(const std::string& title) {
  std::string file = title;
  for (char& c : file) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return file;
}

struct DatasetCase {
  std::string paper_name;  // what the paper's table row says
  data::SyntheticSpec spec;
};

// The three stand-in datasets, in the paper's order.
inline std::vector<DatasetCase> dataset_cases() {
  return {
      {"CIFAR-10*", data::syn_cifar10_spec()},
      {"CIFAR-100*", data::syn_cifar100_spec()},
      {"Tiny-ImageNet*", data::syn_tiny_spec()},
  };
}

inline std::int64_t train_count() { return scaled(900, 4000); }
inline std::int64_t test_count() { return scaled(300, 1000); }
inline int default_epochs() { return scaled(14, 60); }

struct TrainedModel {
  nn::Model model;
  data::LabeledData train;
  data::LabeledData test;
  double ann_acc = 0.0;  // under the end-of-schedule activation config
};

inline std::string artifacts_dir() {
  if (const char* env = std::getenv("TTFS_ARTIFACTS")) return env;
  return "artifacts";
}

inline std::string model_cache_key(const DatasetCase& ds, const cat::TrainConfig& cfg) {
  std::ostringstream os;
  os << ds.spec.name << "_m" << to_string(cfg.schedule.mode) << "_T" << cfg.window << "_tau"
     << cfg.tau << "_e" << cfg.epochs << "_r" << cfg.schedule.relu_epochs << "_w"
     << cfg.schedule.ttfs_epoch << "_n" << train_count() << "_s" << cfg.seed;
  std::string key = os.str();
  for (char& c : key) {
    if (c == '+' || c == '.') c = '-';
  }
  return key;
}

// Trains (or loads from cache) a CAT model for this dataset/config.
inline TrainedModel get_trained(const DatasetCase& ds, cat::TrainConfig cfg) {
  TrainedModel out;
  out.train = data::generate_synthetic(ds.spec, train_count(), 0);
  out.test = data::generate_synthetic(ds.spec, test_count(), 1);

  Rng rng{cfg.seed};
  const nn::VggSpec arch = run_scale() == Scale::kFull ? nn::vgg_mini_spec(ds.spec.classes)
                                                       : nn::vgg_small_spec(ds.spec.classes);
  out.model = nn::build_vgg(arch, ds.spec.channels, ds.spec.image, rng);

  const std::string path =
      artifacts_dir() + "/models/" + model_cache_key(ds, cfg) + ".bin";
  const bool refresh = std::getenv("TTFS_REFRESH") != nullptr;
  if (!refresh && nn::is_checkpoint(path)) {
    TTFS_LOG_INFO("loading cached model " << path);
    nn::load_model(out.model, path);
    cat::apply_schedule(out.model, cfg.schedule, cfg.kernel(), cfg.epochs - 1);
  } else {
    TTFS_LOG_INFO("training " << model_cache_key(ds, cfg));
    cfg.verbose = false;
    (void)cat::train_cat(out.model, out.train, out.test, cfg);
    nn::save_model(out.model, path);
  }
  out.ann_acc =
      nn::evaluate_accuracy(out.model, data::make_batches(out.test, 64, nullptr));
  return out;
}

// Accuracy of an SnnNetwork on a labelled set through an engine session on
// the --backend realization (the event simulator by default; its
// predictions agree with SnnNetwork::forward, see snn/engine.h). The
// fixed-point backend runs log-quantized weights only, so under --backend
// quantized the net is evaluated as a log-quantized copy at the
// cat::LogQuantConfig defaults, as ttfs_wire_server and serving_demo do
// (print_scale_banner says so).
inline double snn_accuracy(const snn::SnnNetwork& net, const data::LabeledData& test) {
  const snn::BackendKind kind = backend_kind();
  std::optional<snn::SnnNetwork> quantized;
  if (kind == snn::BackendKind::kQuantized) {
    quantized.emplace(net);
    cat::log_quantize_network(*quantized, cat::LogQuantConfig{});
  }
  snn::InferenceSession session = snn::Engine{quantized ? *quantized : net}.session(kind);
  return nn::evaluate_accuracy_fn(
      [&session](const Tensor& images) { return session.run(snn::BatchView{images}).logits; },
      data::make_batches(test, 64, nullptr));
}

// Prints the table, saves it under artifacts/csv/<title>.csv, and — when
// --json was passed (see init) — writes machine-readable BENCH_<title>.json
// next to the invocation for CI artifact upload.
inline void emit(const Table& table) {
  table.print(std::cout);
  const std::string file = slug(table.title());
  table.save_csv(artifacts_dir() + "/csv/" + file + ".csv");
  if (json_mode()) {
    const std::string path = "BENCH_" + file + ".json";
    table.save_json(path);
    std::cout << "json written to " << path << "\n";
  }
}

inline void print_scale_banner(const std::string& bench) {
  std::cout << "\n### " << bench << " — scale: "
            << (run_scale() == Scale::kFull ? "full (TTFS_SCALE=full)" : "quick (default)")
            << "; datasets marked * are synthetic stand-ins (DESIGN.md)\n";
  if (backend_kind() == snn::BackendKind::kQuantized) {
    std::cout << "--backend quantized: every SNN accuracy is that of its log-quantized copy "
                 "(cat::LogQuantConfig defaults)\n";
  }
  std::cout << "\n";
}

}  // namespace ttfs::bench
