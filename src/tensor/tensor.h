// Dense row-major float32 tensor.
//
// The minimal substrate needed to train the paper's networks: contiguous
// storage, shape bookkeeping, and element access. All heavy math lives in
// free functions (sgemm.h, ops.h, im2col.h) that operate on raw spans so the
// same kernels serve both training and the SNN/hardware simulators.
//
// Convention: activations are NCHW (batch, channel, height, width); fully
// connected activations are (batch, features); conv weights are
// (out_ch, in_ch, kh, kw).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "util/check.h"

namespace ttfs {

class Rng;

class Tensor {
 public:
  Tensor() = default;

  // Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);
  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>{shape}) {}

  // Builds a tensor from explicit data; data.size() must match the shape.
  Tensor(std::vector<std::int64_t> shape, std::vector<float> data);

  static Tensor full(std::vector<std::int64_t> shape, float value);
  // Elements drawn independently from U[lo, hi) in storage order.
  static Tensor uniform(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi);

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t axis) const;
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::int64_t i) {
    TTFS_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    TTFS_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }

  // 2-D and 4-D element access (bounds-checked in debug builds).
  float& at(std::int64_t i, std::int64_t j);
  float at(std::int64_t i, std::int64_t j) const;
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const;

  // Returns a tensor sharing no storage with this one but holding the same
  // data reinterpreted under a new shape (numel must match).
  Tensor reshaped(std::vector<std::int64_t> new_shape) const;

  // Copies `count` consecutive entries along axis 0 starting at `begin`;
  // result shape is (count, rest...). The batch-chunk primitive.
  Tensor slice0(std::int64_t begin, std::int64_t count) const;

  // Copies entry `i` along axis 0 with that axis dropped; a (N, C, H, W)
  // batch yields a (C, H, W) sample. The per-sample fan-out primitive.
  Tensor sample0(std::int64_t i) const;

  // Fills every element with `value`.
  void fill(float value);

  // Human-readable shape, e.g. "[32, 3, 16, 16]".
  std::string shape_str() const;

  // True when shapes are identical and all elements differ by at most `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5F) const;

 private:
  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

// Total element count implied by a shape vector.
std::int64_t shape_numel(const std::vector<std::int64_t>& shape);

}  // namespace ttfs
