// ANN -> SNN conversion (paper Sec. 3.1, last paragraph).
//
// Steps the paper prescribes after CAT training:
//   1. fuse batch-normalization layers into the preceding conv weights;
//   2. weight-normalize the output layer (the only layer without an
//      activation, so CAT cannot bound its inputs' scale — hidden layers need
//      no normalization because phi_Clip/phi_TTFS already bound them to
//      [0, theta0]);
//   3. re-emit the stack as SNN layers that integrate spikes and fire through
//      the shared Base2Kernel.
//
// Also hosts Rueckauer-style data-based weight normalization, which the
// T2FSNN baseline (ReLU-trained ANN) requires for every layer.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "snn/kernel.h"
#include "snn/network.h"

namespace ttfs::cat {

// Extracts the weighted/pool stack of `model` with BN layers fused into the
// preceding conv/linear weights. Activation sites and Flatten are dropped —
// the SNN's fire/decode replaces them. The model is not modified.
std::vector<snn::SnnLayer> extract_fused_layers(nn::Model& model);

// Scales the final weighted layer's weights and biases by 1/scale. With
// scale = max |logit| over a calibration set this is the paper's output-layer
// weight normalization; argmax is unaffected, magnitudes become hardware-
// friendly.
void normalize_output_layer(std::vector<snn::SnnLayer>& layers, double scale);

// Returns max |logit| of `model` over the calibration set.
double max_abs_logit(nn::Model& model, const data::LabeledData& calibration);

// Rueckauer-style layer-wise weight normalization for ReLU-trained ANNs:
// runs the fused stack as a plain ReLU network over `calibration` (the dense
// walk of snn/network.h with ReLU as the activation), records
// the per-layer activation lambda_l at the given percentile (1.0 = max;
// Rueckauer recommends ~0.999 — "robust normalization" — so a handful of
// outliers do not crush the useful dynamic range), and rescales layer l by
// lambda_{l-1}/lambda_l so hidden activations fit in [0, theta0].
// Used by the T2FSNN baseline; CAT networks skip it by construction.
void weight_normalize_relu(std::vector<snn::SnnLayer>& layers, const Tensor& calibration_images,
                           double theta0, double percentile = 1.0);

// Full CAT conversion pipeline: fuse BN, normalize the output layer on the
// calibration set, and wrap into an SnnNetwork with the given kernel.
snn::SnnNetwork convert_to_snn(nn::Model& model, const snn::Base2Kernel& kernel,
                               const data::LabeledData& calibration);

}  // namespace ttfs::cat
