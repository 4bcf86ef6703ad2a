// Event-path weight packs: the one layout and the one lifecycle shared by the
// float pack (network.h) and the quantized pack (quant.h).
//
// Layout. The canonical (Cout, Cin, k, k) and (out, in) tensors walk output
// channels at the largest stride, so the event simulator's inner loop —
// "stream this input's weight vector over all outputs" — was a strided
// gather. A pack stores the same weights output-contiguous so each incoming
// spike performs contiguous vector adds:
//  * conv: slot-major — w[kernels::conv_slot(ci, ky, kx, kh, kw) * cstride + co],
//    slot (ci*kh + ky)*kw + (kw-1-kx): kx is mirrored so a stride-1 spike's
//    taps into one output row are one contiguous weight span (simd.h)
//  * fc:   column-major — w[i * ostride + j]
// Output spans are padded to the kernel layer's lane width (simd.h: cstride =
// padded(cout), ostride = padded(out)) and the storage is 64-byte aligned, so
// the SIMD kernels run with no tail loop and no cache-line splits. Padding
// lanes hold the lane type's "no weight" value (0.0F for float lanes,
// kQuantZeroCode for int16 codes) and are never read back. The padded layout
// is identical in SIMD and scalar builds. Packs are move-only (AlignedBuffer
// storage).
//
// Lifecycle. A network keeps each pack in a LazyPack slot: built on first
// use from the network's layers, dirtied when the layers change, released by
// the model registry's cold eviction, and rebuilt bit-identically on the
// next ensure().
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "snn/simd.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace ttfs::snn {

template <typename Lane>
struct ConvPack {
  std::int64_t cout = 0, cin = 0, kh = 0, kw = 0;
  std::int64_t cstride = 0;         // padded(cout): stride between weight slots
  kernels::AlignedBuffer<Lane> w;   // cin*kh*kw slots of cstride lanes

  std::size_t bytes() const { return static_cast<std::size_t>(w.size()) * sizeof(Lane); }
};

template <typename Lane>
struct FcPack {
  std::int64_t out = 0, in = 0;
  std::int64_t ostride = 0;         // padded(out): stride between columns
  kernels::AlignedBuffer<Lane> w;   // in columns of ostride lanes

  std::size_t bytes() const { return static_cast<std::size_t>(w.size()) * sizeof(Lane); }
};

// Packs a (Cout, Cin, kh, kw) weight tensor into `p` slot-major: lane
// conv_slot(ci, ky, kx)*cstride + co holds encode(weight[co, ci, ky, kx]),
// and every padding lane holds `pad`.
template <typename Lane, typename Encode>
void pack_conv_weights(const Tensor& weight, Lane pad, Encode encode, ConvPack<Lane>& p) {
  p.cout = weight.dim(0);
  p.cin = weight.dim(1);
  p.kh = weight.dim(2);
  p.kw = weight.dim(3);
  p.cstride = kernels::padded(p.cout);
  const std::int64_t lanes = p.cin * p.kh * p.kw * p.cstride;
  Lane* dst = p.w.ensure(lanes);
  std::fill(dst, dst + lanes, pad);
  const float* src = weight.data();
  for (std::int64_t co = 0; co < p.cout; ++co) {
    for (std::int64_t ci = 0; ci < p.cin; ++ci) {
      for (std::int64_t ky = 0; ky < p.kh; ++ky) {
        for (std::int64_t kx = 0; kx < p.kw; ++kx) {
          dst[kernels::conv_slot(ci, ky, kx, p.kh, p.kw) * p.cstride + co] = encode(*src++);
        }
      }
    }
  }
}

// Packs an (out, in) weight tensor into `p` column-major: lane i*ostride + j
// holds encode(weight[j, i]), and every padding lane holds `pad`.
template <typename Lane, typename Encode>
void pack_fc_weights(const Tensor& weight, Lane pad, Encode encode, FcPack<Lane>& p) {
  p.out = weight.dim(0);
  p.in = weight.dim(1);
  p.ostride = kernels::padded(p.out);
  const std::int64_t lanes = p.in * p.ostride;
  Lane* dst = p.w.ensure(lanes);
  std::fill(dst, dst + lanes, pad);
  const float* src = weight.data();
  for (std::int64_t j = 0; j < p.out; ++j) {
    for (std::int64_t i = 0; i < p.in; ++i) dst[i * p.ostride + j] = encode(*src++);
  }
}

// One pack per network: layers[i] is the repack of net.layers()[i]
// (monostate for pools, which have no weights).
template <typename Conv, typename Fc>
struct LayerPack {
  using Layer = std::variant<std::monostate, Conv, Fc>;
  std::vector<Layer> layers;

  std::size_t bytes() const {
    std::size_t n = 0;
    for (const Layer& layer : layers) {
      if (const auto* conv = std::get_if<Conv>(&layer)) {
        n += conv->bytes();
      } else if (const auto* fc = std::get_if<Fc>(&layer)) {
        n += fc->bytes();
      }
    }
    return n;
  }
};

// A lazily built pack: derived state of the owning network's layers. The
// dirty flag is the lock-free steady-state path; the slot's mutex serializes
// the (rare) rebuild, so any number of const callers may ensure() at once.
// A copy or a move starts empty and dirty — the destination rebuilds from
// its own layers — which is what lets the owner's copy/move be defaulted.
template <typename Pack>
class LazyPack {
 public:
  LazyPack() = default;
  LazyPack(const LazyPack& /*other*/) noexcept {}
  // Takes this slot's lock before dropping its pack: unlike construction,
  // assignment can race a concurrent ensure() on the destination.
  LazyPack& operator=(const LazyPack& /*other*/) {
    release();
    return *this;
  }

  // Marks the pack stale; the next ensure() rebuilds it.
  void invalidate() { dirty_.store(true, std::memory_order_release); }

  // Rebuilds the pack with build() if it is dirty. Double-checked: after the
  // first build this is one acquire load.
  template <typename Build>
  void ensure(Build build) const {
    if (!dirty_.load(std::memory_order_acquire)) return;
    const util::MutexLock lock{mu_};
    if (!dirty_.load(std::memory_order_relaxed)) return;
    pack_ = build();
    dirty_.store(false, std::memory_order_release);
  }

  // Lock-free read by protocol, not by lock: after ensure() returns, the
  // pack is immutable until someone dirties it, and the registry's run-pin
  // (ModelRegistry::pin_for_run) or single ownership guarantees no
  // release/rebuild overlaps a reader. The TSan lane exercises this
  // protocol; the annotation suppression is deliberate and scoped to exactly
  // this accessor.
  const Pack& get() const TTFS_NO_THREAD_SAFETY_ANALYSIS {
    TTFS_CHECK_MSG(!dirty_.load(std::memory_order_acquire),
                   "weight pack not built -- ensure it first");
    return pack_;
  }

  // Resident bytes (0 while unbuilt or released). Taken under the mutex, so
  // it is safe against a concurrent rebuild.
  std::size_t bytes() const {
    const util::MutexLock lock{mu_};
    return dirty_.load(std::memory_order_relaxed) ? 0 : pack_.bytes();
  }

  // Frees the pack's storage and marks it dirty; the next ensure() rebuilds
  // it bit-identically. The caller must guarantee no thread is reading get()
  // concurrently (the registry's run-pin protocol does).
  void release() const {
    const util::MutexLock lock{mu_};
    pack_ = Pack{};
    dirty_.store(true, std::memory_order_release);
  }

 private:
  mutable util::Mutex mu_;
  mutable Pack pack_ TTFS_GUARDED_BY(mu_);
  mutable std::atomic<bool> dirty_{true};
};

}  // namespace ttfs::snn
