// ModelRegistry — many packed networks behind one serving front door.
//
// One process hosting the whole coding-scheme family (the converted TTFS
// net, a T2FSNN-style decoder, a burst-transmission variant, ...) needs a
// place that owns "which model is `id` right now": the network, the
// InferenceBackend realization it runs on, its input shape, and the
// event-path weight pack. ModelRegistry is that place, shaped like the
// per-graph cached-execution-plan registries of mature serving stacks (one
// entry point, many cached plans):
//
//   auto registry = std::make_shared<ModelRegistry>(opts);
//   registry->load("ttfs_vgg", net, make_backend(BackendKind::kEventSim),
//                  {3, 32, 32});
//   auto handle = registry->acquire("ttfs_vgg");   // shared_ptr lease
//   { auto pin = registry->pin_for_run(handle);    // warm + evict-proof
//     ... run batches on handle->net / handle->backend ... }
//
// Handles and swap
// ----------------
// A ModelHandle is an immutable bundle (network + backend + input shape).
// The registry maps id -> current handle; load() on an existing id is a live
// SWAP: the map entry flips to the new handle (version bumped) under the
// registry lock, while every in-flight request keeps its shared_ptr to the
// old handle — old batches drain on the old pack, and the old network (pack
// included) is released only when the last reference drops. Nothing running ever observes a half-swapped model.
//
// Warm/cold state and the weight-pack cache
// -----------------------------------------
// The weight pack (snn/pack.h: the float event pack or the quantized pack)
// is the expensive per-model resident state. The registry treats packs as a cache under
// RegistryOptions::max_pack_bytes: a model whose pack is resident is WARM, a
// model whose pack has been released is COLD. pin_for_run() is the data-path
// gate — it re-warms a cold model (a MISS), counts a HIT otherwise, touches
// the LRU order, and pins the handle so eviction can never release a pack
// mid-batch. When warming pushes the resident total over budget, the
// least-recently-used unpinned models are evicted (pack released, bytes
// reclaimed) until the total fits; the pack rebuild on the next pin is
// bit-identical, so eviction is invisible to results. "Pack" is whatever the
// model's backend keeps resident (InferenceBackend::ensure_ready /
// resident_pack_bytes / release_pack): the float event pack for the event
// backend, the ~2x-smaller quantized pack for the quantized backend. A model
// whose backend keeps no pack (the reference simulator) warms at load to
// zero bytes and is never evicted, since eviction skips zero-byte packs.
//
// Thread safety: every member is safe to call from any thread. Run pins are
// the only data-path cost: one mutex acquisition per *batch*, not per
// sample.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "snn/engine.h"
#include "snn/network.h"
#include "util/thread_annotations.h"

namespace ttfs::snn {

class ModelRegistry;

// Immutable bundle: everything needed to run one model. Handles are only
// created by ModelRegistry::load and live as long as anyone (the registry,
// a queued request, a replica's cached session) holds the shared_ptr.
class ModelHandle {
 public:
  const std::string& id() const { return id_; }
  // Bumped on every swap of the same id; lets a replica detect that its
  // cached session is bound to a superseded handle.
  std::uint64_t version() const { return version_; }
  const SnnNetwork& net() const { return *net_; }
  const InferenceBackend& backend() const { return *backend_; }
  const std::shared_ptr<const InferenceBackend>& backend_ptr() const { return backend_; }
  // Mandatory (C, H, W) of every request image for this model.
  const std::vector<std::int64_t>& input_shape() const { return input_shape_; }
  // True while this model's weight pack is resident (always true, from
  // load on, for backends that keep no pack).
  bool warm() const { return warm_.load(std::memory_order_acquire); }
  // Resident pack bytes this handle is accounted for while warm.
  std::size_t pack_bytes() const { return pack_bytes_.load(std::memory_order_acquire); }

 private:
  friend class ModelRegistry;
  ModelHandle(std::string id, std::uint64_t version, std::shared_ptr<const SnnNetwork> net,
              std::shared_ptr<const InferenceBackend> backend,
              std::vector<std::int64_t> input_shape);

  const std::string id_;
  const std::uint64_t version_;
  const std::shared_ptr<const SnnNetwork> net_;
  const std::shared_ptr<const InferenceBackend> backend_;
  const std::vector<std::int64_t> input_shape_;
  // Pack-cache state, owned by the registry's lock discipline: warm_ and
  // pack_bytes_ flip only under the registry mutex; pins_ counts in-flight
  // batches and blocks eviction while nonzero.
  mutable std::atomic<bool> warm_{false};
  mutable std::atomic<std::size_t> pack_bytes_{0};
  mutable std::atomic<std::int64_t> pins_{0};
};

struct RegistryOptions {
  // Byte budget for resident (warm) weight packs across all models;
  // 0 = unlimited, i.e. nothing is ever evicted. A single model larger than
  // the budget still warms — the budget bounds what the registry keeps, not
  // what a run may touch.
  std::size_t max_pack_bytes = 0;
};

// Point-in-time counters of the registry and its weight-pack cache.
struct RegistryStats {
  std::uint64_t loads = 0;      // load() calls that created a new id
  std::uint64_t swaps = 0;      // load() calls that replaced a live id
  std::uint64_t unloads = 0;    // unload() calls that removed an id
  std::uint64_t hits = 0;       // pinned runs that found the pack warm
  std::uint64_t misses = 0;     // pinned runs that had to (re)build the pack
  std::uint64_t evictions = 0;  // packs released to fit the byte budget
  std::size_t models = 0;       // ids currently registered
  std::size_t warm_models = 0;  // ids whose pack is resident right now
  std::size_t warm_bytes = 0;   // resident pack bytes right now
  std::size_t pack_budget_bytes = 0;  // RegistryOptions::max_pack_bytes

  // One line for logs/demos, e.g.
  // "3 models (2 warm, 1.2 MiB/2.0 MiB), 14 hits 3 misses 2 evictions,
  //  1 swap".
  std::string describe() const;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryOptions opts = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Registers (new id) or live-swaps (existing id) a model and returns its
  // handle, warm: the pack is built here (not counted as a miss) and the
  // budget then evicts colder models. The pack is built before the registry
  // changes and outside its lock, so a load whose build throws leaves every
  // id, counter and byte total as it was, and no other model's acquire or
  // run pin waits out the build. The swap is an atomic flip of the id -> handle mapping:
  // in-flight work holding the old handle drains on the old pack; new
  // acquires see the new handle immediately. The network and backend are
  // shared, never copied — callers that own the network by value can pass
  // std::make_shared, callers with an outliving reference can alias an
  // empty deleter.
  std::shared_ptr<const ModelHandle> load(const std::string& id,
                                          std::shared_ptr<const SnnNetwork> net,
                                          std::shared_ptr<const InferenceBackend> backend,
                                          std::vector<std::int64_t> input_shape);

  // Resolves id -> current handle and touches the LRU order. Throws
  // std::out_of_range for an unknown id (the serving layer turns that into
  // a clean request rejection via try_acquire).
  std::shared_ptr<const ModelHandle> acquire(const std::string& id);
  // acquire() that returns nullptr instead of throwing.
  std::shared_ptr<const ModelHandle> try_acquire(const std::string& id);

  // Removes the id (false when unknown). In-flight holders of the handle
  // drain as after a swap; the pack is released when the last one finishes.
  bool unload(const std::string& id);

  // True while `id` is registered — necessarily a momentary answer under
  // concurrent load()/unload(); data paths use try_acquire and handle the
  // nullptr instead. [thread-safe]
  bool contains(const std::string& id) const;
  // Registered ids, most recently used first. [thread-safe]
  std::vector<std::string> ids() const;
  // Number of registered ids. [thread-safe]
  std::size_t size() const;
  // Immutable after construction. [thread-safe]
  const RegistryOptions& options() const { return opts_; }
  // Consistent point-in-time snapshot of the cache counters. [thread-safe]
  RegistryStats stats() const;

  // RAII pin around one batch: for the pin's lifetime the handle's pack is
  // guaranteed warm and cannot be evicted. Move-only; the moved-from pin is
  // inert. Works for stale (swapped-out / unloaded) handles too — their
  // pack is rebuilt off-budget if needed, and dies with the handle.
  class RunPin {
   public:
    RunPin(RunPin&& other) noexcept : handle_{std::move(other.handle_)} {}
    RunPin& operator=(RunPin&& other) noexcept;
    RunPin(const RunPin&) = delete;
    RunPin& operator=(const RunPin&) = delete;
    ~RunPin();

    const ModelHandle& handle() const { return *handle_; }

   private:
    friend class ModelRegistry;
    explicit RunPin(std::shared_ptr<const ModelHandle> handle) : handle_{std::move(handle)} {}
    std::shared_ptr<const ModelHandle> handle_;
  };

  // Pins `handle` for one batch run: warms its pack if cold (counting a
  // miss, evicting LRU packs over budget), counts a hit otherwise, and
  // touches the LRU order. The returned pin must outlive the run.
  RunPin pin_for_run(const std::shared_ptr<const ModelHandle>& handle);

 private:
  struct Entry {
    std::shared_ptr<const ModelHandle> handle;
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
  };

  // All helpers below require mu_ held (compiler-checked under clang).
  void warm_locked(const ModelHandle& handle, bool count_miss) TTFS_REQUIRES(mu_);
  void cool_locked(const ModelHandle& handle) TTFS_REQUIRES(mu_);
  void evict_over_budget_locked(const ModelHandle* protect) TTFS_REQUIRES(mu_);
  void touch_locked(Entry& entry) TTFS_REQUIRES(mu_);

  const RegistryOptions opts_;
  mutable util::Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ TTFS_GUARDED_BY(mu_);
  // Most recently used at the front.
  std::list<std::string> lru_ TTFS_GUARDED_BY(mu_);
  std::size_t warm_bytes_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t next_version_ TTFS_GUARDED_BY(mu_) = 1;
  std::uint64_t loads_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t swaps_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t unloads_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ TTFS_GUARDED_BY(mu_) = 0;
};

}  // namespace ttfs::snn
