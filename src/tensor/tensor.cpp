#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "util/rng.h"

namespace ttfs {

std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    TTFS_CHECK_MSG(d >= 0, "negative dimension " << d);
    n *= d;
  }
  return n;
}

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_{std::move(shape)}, data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0F) {}

Tensor::Tensor(std::vector<std::int64_t> shape, std::vector<float> data)
    : shape_{std::move(shape)}, data_{std::move(data)} {
  TTFS_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == shape_numel(shape_),
                 "data size " << data_.size() << " != shape numel " << shape_numel(shape_));
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor t{std::move(shape)};
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

std::int64_t Tensor::dim(std::size_t axis) const {
  TTFS_CHECK_MSG(axis < shape_.size(), "axis " << axis << " out of rank " << shape_.size());
  return shape_[axis];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  TTFS_DCHECK(rank() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  TTFS_DCHECK(rank() == 2);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}

float& Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
  TTFS_DCHECK(rank() == 4);
  return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
}

float Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
  TTFS_DCHECK(rank() == 4);
  return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
}

Tensor Tensor::reshaped(std::vector<std::int64_t> new_shape) const {
  TTFS_CHECK_MSG(shape_numel(new_shape) == numel(),
                 "reshape " << shape_str() << " to incompatible numel");
  return Tensor{std::move(new_shape), data_};
}

Tensor Tensor::slice0(std::int64_t begin, std::int64_t count) const {
  TTFS_CHECK_MSG(rank() >= 1 && begin >= 0 && count >= 0 && begin + count <= dim(0),
                 "slice0 [" << begin << ", " << begin + count << ") out of " << shape_str());
  const std::int64_t stride = dim(0) == 0 ? 0 : numel() / dim(0);
  std::vector<std::int64_t> shape = shape_;
  shape[0] = count;
  return Tensor{std::move(shape),
                std::vector<float>(data() + begin * stride, data() + (begin + count) * stride)};
}

Tensor Tensor::sample0(std::int64_t i) const {
  TTFS_CHECK_MSG(rank() >= 2 && i >= 0 && i < dim(0),
                 "sample0 " << i << " out of " << shape_str());
  const std::int64_t stride = numel() / dim(0);
  return Tensor{std::vector<std::int64_t>(shape_.begin() + 1, shape_.end()),
                std::vector<float>(data() + i * stride, data() + (i + 1) * stride)};
}

void Tensor::fill(float value) {
  for (auto& v : data_) v = value;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace ttfs
