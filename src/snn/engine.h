// Unified inference API: one network, interchangeable execution backends.
//
// The paper's system is a single TTFS network executed by several equivalent
// realizations — the GEMM-equivalent path (phi_TTFS = decode . fire, see
// network.h), the spike-order-accurate event simulator that feeds the
// hardware model (event_sim.h), and the frozen reference simulator kept as
// the correctness oracle (event_sim_reference.h). This header makes "which
// realization" a first-class object instead of a switch statement:
//
//   SnnNetwork net = ...;                       // the converted network
//   Engine engine{net};
//   InferenceSession session =
//       engine.session(BackendKind::kEventSim); // or kGemm / kReference,
//                                               // or any InferenceBackend
//   RunOptions opts;
//   opts.stats = true;                          // what to materialize
//   RunResult r = session.run(BatchView{images}, opts);
//   // r.logits (N, classes), r.stats[i], r.predicted[i], r.traces[i]
//
// Ownership and threading rules
// -----------------------------
//  * The network must outlive every engine/session built over it and must
//    not be mutated concurrently with a run. The event-path weight pack
//    lives on the network (lazy, rebuilt via the double-checked
//    ensure_packed()), so single-threaded callers may mutate layers between
//    runs — the next run repacks. Many sessions can share one network.
//  * A session owns all per-caller reusable state: the thread-pool binding,
//    the chunking policy, and one SimArena per pool chunk (grown on demand,
//    pre-reserved when SessionOptions names the input shape). run() is NOT
//    thread-safe — use one session per concurrent caller; runs themselves
//    fan samples out across the session's pool internally.
//  * Backends are stateless and const: one backend instance may be shared
//    by any number of sessions and threads (the serving layer injects a
//    shared_ptr). All mutable scratch is handed in by the session.
//
// Determinism: every backend is bit-identical to its own pre-engine
// sequential entry point — GemmBackend to SnnNetwork::forward per sample,
// EventSimBackend to run_event_sim, ReferenceBackend to
// reference::run_event_sim — for any batch size, pool size, and RunOptions
// combination (asserted in tests/snn_engine_test.cpp). The GEMM and event
// paths differ from *each other* only in float summation order; integer
// artifacts (spike maps, SnnRunStats, predictions) agree across all three.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snn/event_sim.h"
#include "snn/network.h"
#include "tensor/tensor.h"

namespace ttfs {
class ThreadPool;
}

namespace ttfs::snn {

// The built-in backends. kGemm is the fast layer-sequential path, kEventSim
// the spike-order-accurate simulator, kReference the frozen oracle (slow;
// for validation only), kQuantized the fixed-point integer path over the
// log-quantized weight pack (quant.h).
enum class BackendKind { kGemm, kEventSim, kReference, kQuantized };

// "gemm" / "event" / "reference" / "quantized" — the spelling shared by every
// --backend flag (bench/common.h) and the BENCH_*.json "backend" field.
std::string to_string(BackendKind kind);
// Inverse of to_string; throws std::invalid_argument on an unknown name.
BackendKind backend_kind_from_string(const std::string& name);

// What a run should materialize. Everything not requested is left empty in
// the RunResult, so callers pay only for what they read.
struct RunOptions {
  bool logits = true;       // merged (N, classes) tensor
  bool logit_rows = false;  // unmerged per-sample (1, classes) rows — the
                            // per-request serving shape, handed over with no
                            // merge copy
  bool predictions = false; // per-sample argmax of the logits
  bool stats = false;       // per-sample SnnRunStats (images == 1 each)
  bool traces = false;      // full per-sample EventTraces (hardware model
                            // input); requires InferenceBackend::supports_traces()
};

// Uniform result of InferenceSession::run. Per-sample vectors are indexed by
// sample in input order; everything is bit-identical to running the backend's
// single-sample primitive in a sequential loop.
struct RunResult {
  Tensor logits;                        // (N, classes) iff RunOptions::logits
  std::vector<Tensor> logit_rows;       // size N iff RunOptions::logit_rows;
                                        // entry i is sample i's (1, classes)
  std::vector<std::int64_t> predicted;  // size N iff RunOptions::predictions
  std::vector<SnnRunStats> stats;       // size N iff RunOptions::stats
  std::vector<EventTrace> traces;       // size N iff RunOptions::traces
                                        // (traces[i].logits stays populated
                                        // even when RunOptions::logits is off)

  // Sample-order merge of `stats` into one aggregate record (exact: the
  // counters are integers).
  SnnRunStats merged_stats() const;
};

// Non-owning view of a uniform batch of samples. Two shapes of caller are
// supported with zero assembly copies:
//   * a contiguous (N, C, H, W) or (N, features) tensor;
//   * independently-owned (C, H, W) samples of one shape (the serving
//     layer's natural form).
// The viewed tensors must outlive the view (runs complete within the
// expression for the common inline usage).
class BatchView {
 public:
  explicit BatchView(const Tensor& batch);                      // rank 4 or 2
  explicit BatchView(const std::vector<const Tensor*>& samples);  // each rank 3

  std::int64_t size() const { return n_; }
  // (C, H, W) for image batches, (features) for rank-2 batches.
  const std::vector<std::int64_t>& sample_shape() const { return sample_shape_; }
  std::int64_t sample_numel() const { return sample_numel_; }
  // Raw span of sample i (sample_numel() floats, row-major).
  const float* sample(std::int64_t i) const;

 private:
  std::int64_t n_ = 0;
  std::vector<std::int64_t> sample_shape_;
  std::int64_t sample_numel_ = 0;
  const float* base_ = nullptr;          // contiguous batch layout...
  std::vector<const Tensor*> gathered_;  // ...or per-sample tensors
};

// Output slots for one sample; null entries were not requested. The session
// wires these at the per-sample fan-out so backends never see batch-level
// buffers.
struct SampleSlots {
  Tensor* logits = nullptr;  // receives this sample's (1, classes) row
  SnnRunStats* stats = nullptr;
  EventTrace* trace = nullptr;
};

// One realization of SNN inference. Implementations must be stateless const
// objects: run_sample may be called concurrently from many session workers,
// with all scratch provided through `arena`. Alternative realizations
// (T2FSNN-style decoders, hybrid-conversion pipelines) plug in here as
// one-class additions.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  virtual std::string name() const = 0;
  // True when RunOptions::traces can be materialized (event-style backends).
  virtual bool supports_traces() const = 0;
  // True when run_sample uses the SimArena; sessions skip arena
  // pre-reservation for backends that do not.
  virtual bool uses_arena() const = 0;

  // Weight-pack lifecycle, in backend-agnostic terms: sessions and the model
  // registry manage "whatever this backend runs on" without knowing which
  // pack that is. The defaults mean "no pack" (gemm, reference); a backend
  // that reads a derived weight structure (the float event pack, the
  // quantized pack) overrides all four, so it names its pack in one place.
  //
  // Builds the backend's pack on `net` if missing (called before fan-out;
  // must be safe for concurrent const callers, like ensure_packed).
  virtual void ensure_ready(const SnnNetwork& /*net*/) const {}
  // True when this backend keeps a releasable pack resident on the network
  // (registries only count/evict packs for such backends).
  virtual bool has_resident_pack() const { return false; }
  // Resident bytes of this backend's pack on `net` (0 while unbuilt).
  virtual std::size_t resident_pack_bytes(const SnnNetwork& /*net*/) const { return 0; }
  // Releases this backend's pack (the registry's cold-eviction primitive;
  // same caller contract as SnnNetwork::release_packed).
  virtual void release_pack(const SnnNetwork& /*net*/) const {}

  // Runs sample `i` of `batch` through `net`, filling the requested slots.
  // `arena` is this worker's session-owned scratch (unused scratch for
  // backends with uses_arena() == false).
  virtual void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i,
                          SimArena& arena, const SampleSlots& slots) const = 0;
};

// phi_TTFS = decode . fire: the layer-sequential GEMM path. Per-sample
// results are bit-identical to SnnNetwork::forward on a (1, ...) slice.
// Does not support traces (it never materializes the event stream).
class GemmBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "gemm"; }
  bool supports_traces() const override { return false; }
  bool uses_arena() const override { return false; }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  const SampleSlots& slots) const override;
};

// The timestep- and spike-order-accurate simulator (event_sim.h), running on
// the network's float event pack (SnnNetwork::packed_layers) with
// session-owned arenas. Bit-identical to run_event_sim per sample.
class EventSimBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "event"; }
  bool supports_traces() const override { return true; }
  bool uses_arena() const override { return true; }
  void ensure_ready(const SnnNetwork& net) const override { net.ensure_packed(); }
  bool has_resident_pack() const override { return true; }
  std::size_t resident_pack_bytes(const SnnNetwork& net) const override {
    return net.packed_bytes();
  }
  void release_pack(const SnnNetwork& net) const override { net.release_packed(); }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  const SampleSlots& slots) const override;
};

// The fixed-point integer simulator (quant.h): same event-by-event loop as
// EventSimBackend, but every membrane add is the LogPe shift-add product into
// a saturating int32 accumulator over the int16 quantized weight pack.
// Requires a log-quantized network (ensure_ready throws otherwise). Integer
// artifacts — spike maps, op counts, encoder cycles — match the float event
// sim exactly on converted nets; logits carry the fixed-point rounding bound
// documented in README ("Quantized inference"). Its pack is the quantized
// one and never the float pack, so a registry serving this backend keeps
// only the ~2x-smaller quantized pack resident.
class QuantizedEventSimBackend final : public InferenceBackend {
 public:
  explicit QuantizedEventSimBackend(QuantPackConfig config = {}) : config_{config} {}

  std::string name() const override { return "quantized"; }
  bool supports_traces() const override { return true; }
  bool uses_arena() const override { return true; }
  void ensure_ready(const SnnNetwork& net) const override { net.ensure_quantized(config_); }
  bool has_resident_pack() const override { return true; }
  std::size_t resident_pack_bytes(const SnnNetwork& net) const override {
    return net.quantized_bytes();
  }
  void release_pack(const SnnNetwork& net) const override { net.release_quantized(); }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  const SampleSlots& slots) const override;

  const QuantPackConfig& config() const { return config_; }

 private:
  QuantPackConfig config_;
};

// The frozen pre-overhaul simulator (event_sim_reference.h) behind the same
// interface — deliberately unoptimized; use it to cross-check the other two.
class ReferenceBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "reference"; }
  bool supports_traces() const override { return true; }
  bool uses_arena() const override { return false; }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  const SampleSlots& slots) const override;
};

// Shared instance of a built-in backend (backends are stateless, so one
// instance per kind serves the whole process).
std::shared_ptr<const InferenceBackend> make_backend(BackendKind kind);

struct SessionOptions {
  // Compute pool for batch fan-out: global_pool() when null; a 0-thread pool
  // runs every sample inline on the calling thread.
  ThreadPool* pool = nullptr;
  // Optional arena pre-reservation so not even the first run allocates:
  // when both are set (and the backend uses arenas), min(max_batch_hint,
  // worker share) arenas are reserved for `input_shape` (C, H, W) samples
  // at construction. Arenas still grow on demand past the hint.
  std::int64_t max_batch_hint = 0;
  std::vector<std::int64_t> input_shape;
  // Replica-aware reservation: how many sibling sessions will fan out over
  // the same pool at the same time (a replica-sharded server runs R replica
  // sessions against one compute pool). The pool's workers are assumed to
  // split evenly across concurrent sessions, so each session pre-reserves
  // for ceil(workers / concurrent_sessions) chunks instead of all workers —
  // R sessions no longer reserve R x workers arenas up front. Purely a
  // sizing hint: a session that ends up with more chunks than its share
  // still grows on demand.
  std::int64_t concurrent_sessions = 1;
};

// One caller's handle on (network, backend, pool): owns the per-worker
// arenas and the chunking policy, reused run after run so steady-state
// inference allocates nothing beyond the requested results. Movable, not
// copyable; run() is not thread-safe (one session per concurrent caller).
class InferenceSession {
 public:
  InferenceSession(const SnnNetwork& net, std::shared_ptr<const InferenceBackend> backend,
                   SessionOptions opts = {});

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;
  InferenceSession(InferenceSession&&) = default;
  InferenceSession& operator=(InferenceSession&&) = default;

  // Runs every sample of `batch`, fanning out across the session pool, and
  // materializes exactly what `opts` asks for. Sample order is preserved
  // everywhere; results are bit-identical to a sequential loop over the
  // backend's single-sample primitive regardless of pool size. Throws
  // std::invalid_argument when opts.traces is set but the backend cannot
  // produce traces.
  RunResult run(const BatchView& batch, const RunOptions& opts = {});

  const SnnNetwork& network() const { return *net_; }
  const InferenceBackend& backend() const { return *backend_; }
  ThreadPool& pool() const { return *pool_; }

 private:
  const SnnNetwork* net_;
  std::shared_ptr<const InferenceBackend> backend_;
  ThreadPool* pool_;
  std::vector<SimArena> arenas_;  // one per pool chunk, grown on demand
};

// Facade tying a network to the backend registry: hand an Engine to code
// that should choose its realization at runtime (benches' --backend flag,
// the serving layer's injected backend).
class Engine {
 public:
  // The network must outlive the engine and every session it creates.
  explicit Engine(const SnnNetwork& net) : net_{&net} {}

  InferenceSession session(BackendKind kind, SessionOptions opts = {}) const;
  InferenceSession session(std::shared_ptr<const InferenceBackend> backend,
                           SessionOptions opts = {}) const;

  const SnnNetwork& network() const { return *net_; }

 private:
  const SnnNetwork* net_;
};

// Maps an EventTrace onto forward()-style SnnRunStats: one entry for the
// input encoding plus one per hidden weighted layer. Pool entries exist in
// the trace (they reshuffle spikes) but emit nothing anew, so they are
// skipped to keep the layout identical across backends.
SnnRunStats stats_from_trace(const SnnNetwork& net, const EventTrace& trace);

}  // namespace ttfs::snn
