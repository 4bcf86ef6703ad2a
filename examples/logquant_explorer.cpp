// Logarithmic-quantization playground: shows the code grid for any
// (bits, z), the quantization error over a random weight population, and a
// bit-exactness check of the LUT+shift PE datapath against floating point.
//
//   ./logquant_explorer [--bits 5] [--z 1] [--tau-p 2]
#include <cmath>
#include <iostream>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "snn/kernel.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ttfs;
  const CliArgs args{argc, argv};

  cat::LogQuantConfig qc;
  qc.bits = args.get_int("bits", 5);
  qc.z = args.get_int("z", 1);

  std::cout << "log-base a_w = 2^-(1/" << (1 << qc.z) << "), " << qc.bits << " bits => "
            << qc.magnitude_levels() << " magnitude levels + zero + sign\n\n";

  Table grid{"code grid (FSR = 1.0)"};
  grid.set_header({"code q", "magnitude 2^(q*step)"});
  for (int q = 0; q > -qc.magnitude_levels(); --q) {
    grid.add_row({std::to_string(q), Table::num(std::exp2(q * qc.step()), 6)});
  }
  grid.print(std::cout);

  // Quantization error over a half-normal weight population.
  Rng rng{42};
  Tensor w{{4096}};
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0.0F, 0.2F);
  Tensor q = w.reshaped({4096});
  const cat::LayerQuantInfo info = cat::log_quantize_tensor(q, qc);
  std::cout << "\nrandom N(0, 0.2) weights: fsr=" << Table::num(info.fsr, 4)
            << " mse=" << info.mse << " zeroed=" << info.zeroed << "/" << info.weights << "\n";

  // PE datapath check: product via exponent add + LUT + shift vs float.
  cat::LogPeConfig pe_cfg;
  pe_cfg.p = args.get_int("tau-p", 2);  // tau = 2^p
  pe_cfg.z = qc.z;
  cat::LogPe pe{pe_cfg};
  const snn::Base2Kernel kernel{24, std::exp2(pe_cfg.p), 1.0};

  double max_rel_err = 0.0;
  for (int qcode = -10; qcode <= 0; ++qcode) {
    for (int step = 0; step < kernel.window(); ++step) {
      pe.reset();
      pe.accumulate(1, qcode, step);
      const double ref = std::exp2(qcode * qc.step()) * kernel.level(step);
      if (ref > 1e-9) max_rel_err = std::max(max_rel_err, std::fabs(pe.membrane() - ref) / ref);
    }
  }
  std::cout << "LUT(" << pe.lut().size() << " entries, " << pe_cfg.lut_bits
            << "b)+shift datapath vs float: max relative error " << max_rel_err << "\n";
  std::cout << (max_rel_err < 1e-3 ? "PASS: log PE is numerically faithful\n"
                                   : "FAIL: log PE error too large\n");
  return max_rel_err < 1e-3 ? 0 : 1;
}
