// Quickstart: the whole paper pipeline in ~60 lines.
//
//   1. make a small synthetic dataset
//   2. train a VGG-style ANN with conversion-aware training (CAT)
//   3. convert it to a TTFS SNN (BN fusion + output weight norm)
//   4. quantize weights to 5-bit log representation (a_w = 2^-1/2)
//   5. compare ANN / SNN / quantized-SNN accuracy and estimate hardware cost
//
// Build & run:  ./build/examples/quickstart [--epochs N]
#include <iostream>

#include "cat/conversion.h"
#include "cat/deploy.h"
#include "cat/logquant.h"
#include "cat/trainer.h"
#include "data/synthetic.h"
#include "hw/activity.h"
#include "hw/processor.h"
#include "nn/metrics.h"
#include "nn/vgg.h"
#include "snn/engine.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace ttfs;
  const CliArgs args{argc, argv};

  // 1. Data: 5-class procedural images, 12x12x3.
  data::SyntheticSpec spec = data::syn_cifar10_spec();
  spec.classes = 5;
  spec.image = 12;
  const auto train = data::generate_synthetic(spec, 500, 0);
  const auto test = data::generate_synthetic(spec, 200, 1);

  // 2. CAT training: ReLU -> clip -> phi_TTFS on a compressed schedule.
  cat::TrainConfig cfg = cat::TrainConfig::compressed(args.get_int("epochs", 12));
  cfg.window = 24;  // T
  cfg.tau = 4.0;    // power of two -> logarithmic hardware path applies
  cfg.schedule.mode = cat::CatMode::kFull;

  Rng rng{cfg.seed};
  nn::Model model = nn::build_vgg(nn::vgg_micro_spec(spec.classes), 3, spec.image, rng);
  std::cout << "training (" << cfg.epochs << " epochs, T=" << cfg.window << ", tau=" << cfg.tau
            << ")...\n";
  const cat::TrainHistory history = cat::train_cat(model, train, test, cfg);
  std::cout << "final ANN test accuracy: " << history.final_test_acc << "%\n";

  // 3. Conversion. Inference runs through an engine session on the
  // spike-order-accurate event simulator (kReference runs the frozen oracle).
  snn::SnnNetwork snn_net = cat::convert_to_snn(model, cfg.kernel(), train);
  snn::InferenceSession session = snn::Engine{snn_net}.session(snn::BackendKind::kEventSim);
  const auto evaluate = [&session](const auto& batches) {
    return nn::evaluate_accuracy_fn(
        [&session](const Tensor& images) { return session.run(snn::BatchView{images}).logits; },
        batches);
  };
  const auto batches = data::make_batches(test, 64, nullptr);
  const double snn_acc = evaluate(batches);
  std::cout << "SNN accuracy after conversion: " << snn_acc << "%  (conversion loss "
            << snn_acc - history.final_test_acc << ")\n";
  std::cout << "SNN latency: " << snn_net.latency_timesteps() << " timesteps ("
            << snn_net.weighted_layer_count() << " weighted layers + input, T = "
            << cfg.window << ")\n";

  // 4. 5-bit logarithmic weights (the paper's hardware configuration).
  cat::LogQuantConfig qc;
  qc.bits = 5;
  qc.z = 1;  // a_w = 2^-1/2
  cat::log_quantize_network(snn_net, qc);
  // Same session: the network drops its weight pack when its layers change,
  // so the next run repacks and sees the quantized weights.
  const double q_acc = evaluate(batches);
  std::cout << "SNN accuracy with 5-bit log weights: " << q_acc << "%\n";

  // 5. Hardware cost on this network with measured spiking activity.
  hw::NetworkWorkload w = hw::workload_from_snn(snn_net, 3, spec.image, "quickstart");
  w.activity = hw::measure_activity(snn_net, data::head(test, 64));
  hw::ArchConfig arch;
  arch.window = cfg.window;
  const hw::ProcessorReport report = hw::SnnProcessorModel{arch, hw::default_tech()}.run(w);
  std::cout << "SNN processor model: " << report.energy_per_image_uj() << " uJ/image, "
            << report.fps << " fps, " << report.power_mw << " mW, " << report.area_mm2
            << " mm2\n";

  // 6. Pack the deployment image — the bit stream the processor's DMA pulls
  // from DRAM (its size is exactly Table 4's per-image weight traffic).
  const cat::DeployStats deploy =
      cat::write_deploy_image(snn_net, qc, "artifacts/quickstart.ttfd");
  std::cout << "deploy image: " << deploy.file_bytes << " bytes ("
            << deploy.weight_payload_bytes << " packed weight bytes for " << deploy.weights
            << " weights at " << qc.bits << " bits)\n";
  return 0;
}
