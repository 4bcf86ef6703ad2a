// Packed deployment image for the SNN processor ("firmware" format).
//
// The processor consumes log-coded weights: sign + (bits-1)-bit magnitude
// index below the per-layer FSR anchor, plus a zero code (Eq. 15's layout).
// This module serializes a converted SnnNetwork into that representation —
// kernel parameters, layer descriptors, per-layer q_max anchors, bit-packed
// weight codes and fp32 biases — and loads it back, reconstructing exactly
// the values the log PEs compute with. Codes are recovered from the
// quantized weights and expanded back through the one log-weight codec
// (snn/log_weight.h); this module owns only the bit layout.
//
// The packed weight payload is byte-for-byte the DRAM weight stream that the
// Table 4 energy model charges at 4 pJ/bit (tested: a VGG-16 image's payload
// equals total_weights * weight_bits within padding).
#pragma once

#include <cstdint>
#include <string>

#include "cat/logquant.h"
#include "snn/network.h"

namespace ttfs::cat {

struct DeployStats {
  std::uint64_t file_bytes = 0;
  std::uint64_t weight_payload_bytes = 0;  // packed codes only
  std::uint64_t weights = 0;
  std::uint64_t zero_coded = 0;  // weights stored as the zero code
};

// Quantizes (a copy of) every weighted layer per `config` and writes the
// image. The network itself is not modified.
DeployStats write_deploy_image(const snn::SnnNetwork& net, const LogQuantConfig& config,
                               const std::string& path);

// Reads an image back into an executable SnnNetwork. Weights are bit-exact
// reconstructions of the stored codes (2^(q*step) magnitudes), so inference
// matches a log_quantize_network'd copy of the original exactly.
snn::SnnNetwork read_deploy_image(const std::string& path);

}  // namespace ttfs::cat
