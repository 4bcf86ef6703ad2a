// Full CAT experiment driver with command-line control — the workhorse for
// custom experiments beyond the canned benches.
//
//   ./cat_training_pipeline --dataset syn-c100 --mode full --T 24 --tau 4
//       --epochs 20 --bits 5 --z 1 [--save model.bin] [--cifar10 <dir>]
//
// Prints the training history, conversion loss, T2FSNN-style latency, log-
// quantized accuracy, and a per-layer spiking profile.
#include <iostream>

#include "cat/conversion.h"
#include "cat/logquant.h"
#include "cat/trainer.h"
#include "data/cifar.h"
#include "data/synthetic.h"
#include "hw/activity.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
#include "nn/vgg.h"
#include "snn/engine.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ttfs;
  const CliArgs args{argc, argv};

  // --- dataset selection ---
  data::LabeledData train, test;
  std::int64_t image = 0;
  int channels = 3;
  const std::string cifar_dir = args.get_string("cifar10", "");
  if (!cifar_dir.empty()) {
    auto tr = data::load_cifar10(cifar_dir, true);
    auto te = data::load_cifar10(cifar_dir, false);
    if (!tr || !te) {
      std::cerr << "CIFAR-10 binaries not found under " << cifar_dir << "\n";
      return 1;
    }
    train = std::move(*tr);
    test = std::move(*te);
    image = 32;
  } else {
    const std::string name = args.get_string("dataset", "syn-c10");
    data::SyntheticSpec spec = name == "syn-c100"  ? data::syn_cifar100_spec()
                               : name == "syn-tiny" ? data::syn_tiny_spec()
                                                    : data::syn_cifar10_spec();
    train = data::generate_synthetic(spec, args.get_int("train", 800), 0);
    test = data::generate_synthetic(spec, args.get_int("test", 300), 1);
    image = spec.image;
    channels = spec.channels;
  }

  // --- training configuration ---
  cat::TrainConfig cfg = cat::TrainConfig::compressed(args.get_int("epochs", 16));
  cfg.window = args.get_int("T", 24);
  cfg.tau = args.get_double("tau", 4.0);
  cfg.base_lr = static_cast<float>(args.get_double("lr", cfg.base_lr));
  if (args.has("ttfs-epoch")) cfg.schedule.ttfs_epoch = args.get_int("ttfs-epoch", cfg.schedule.ttfs_epoch);
  cfg.augment = args.get_flag("augment");
  const std::string mode = args.get_string("mode", "full");
  cfg.schedule.mode = mode == "clip"        ? cat::CatMode::kClipOnly
                      : mode == "clip-input" ? cat::CatMode::kClipInputTtfs
                                             : cat::CatMode::kFull;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  cfg.verbose = true;

  Rng rng{cfg.seed};
  const std::string arch_name = args.get_string("arch", "small");
  const nn::VggSpec arch = arch_name == "mini"  ? nn::vgg_mini_spec(train.classes)
                           : arch_name == "micro" ? nn::vgg_micro_spec(train.classes)
                                                  : nn::vgg_small_spec(train.classes);
  nn::Model model = nn::build_vgg(arch, channels, image, rng);
  std::cout << "architecture (" << arch.name << "):\n" << model.summary();
  std::cout << "parameters: " << model.param_count() << "\n\n";

  const cat::TrainHistory history = cat::train_cat(model, train, test, cfg);
  if (history.diverged) std::cout << "WARNING: training diverged at some point\n";

  // --- conversion & evaluation ---
  const auto batches = data::make_batches(test, 64, nullptr);
  const double ann_acc = nn::evaluate_accuracy(model, batches);
  const auto snn_accuracy = [&batches](const snn::SnnNetwork& snn_net) {
    snn::InferenceSession session = snn::Engine{snn_net}.session(snn::BackendKind::kEventSim);
    return nn::evaluate_accuracy_fn(
        [&session](const Tensor& images) { return session.run(snn::BatchView{images}).logits; },
        batches);
  };
  snn::SnnNetwork net = cat::convert_to_snn(model, cfg.kernel(), train);
  const double snn_acc = snn_accuracy(net);

  cat::LogQuantConfig qc;
  qc.bits = args.get_int("bits", 5);
  qc.z = args.get_int("z", 1);
  snn::SnnNetwork qnet = cat::convert_to_snn(model, cfg.kernel(), train);
  const auto qinfo = cat::log_quantize_network(qnet, qc);
  const double q_acc = snn_accuracy(qnet);

  Table results{"results"};
  results.set_header({"stage", "accuracy %", "note"});
  results.add_row({"ANN (CAT, " + to_string(cfg.schedule.mode) + ")", Table::num(ann_acc, 2),
                   "T=" + std::to_string(cfg.window) + " tau=" + Table::num(cfg.tau, 1)});
  results.add_row({"SNN (converted)", Table::num(snn_acc, 2),
                   "loss " + Table::signed_num(snn_acc - ann_acc, 2) + ", latency " +
                       std::to_string(net.latency_timesteps()) + " steps"});
  results.add_row({"SNN (log " + std::to_string(qc.bits) + "b, z=" + std::to_string(qc.z) + ")",
                   Table::num(q_acc, 2),
                   "a_w = 2^-1/" + std::to_string(1 << qc.z)});
  results.print(std::cout);

  // --- per-layer spiking profile ---
  const auto activity = hw::measure_activity(net, data::head(test, 64));
  Table prof{"per-fire-phase spiking activity"};
  prof.set_header({"phase", "firing fraction"});
  for (std::size_t i = 0; i < activity.size(); ++i) {
    prof.add_row({i == 0 ? "input encoding" : "layer " + std::to_string(i),
                  Table::num(activity[i], 3)});
  }
  prof.print(std::cout);

  std::int64_t zeroed = 0, weights = 0;
  for (const auto& info : qinfo) {
    zeroed += info.zeroed;
    weights += info.weights;
  }
  std::cout << "log-quant: " << weights << " weights, " << zeroed
            << " underflowed to the zero code\n";

  const std::string save = args.get_string("save", "");
  if (!save.empty()) {
    nn::save_model(model, save);
    std::cout << "saved trained ANN to " << save << "\n";
  }
  return 0;
}
