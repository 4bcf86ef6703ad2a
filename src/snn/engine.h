// Unified inference API: one network, interchangeable execution backends.
//
// The paper's system is a single TTFS network executed by equivalent
// realizations: the spike-order-accurate event simulator that feeds the
// hardware model (event_sim.h), its fixed-point log-PE twin over the
// quantized pack (quant.h), and the frozen reference simulator kept as the
// correctness oracle (event_sim_reference.h). Every one of them turns a
// sample into one EventTrace (spikes, per-layer op counts, logits), and every
// per-sample output is read off that trace. This header makes "which
// realization" a first-class object instead of a switch statement:
//
//   SnnNetwork net = ...;                       // the converted network
//   Engine engine{net};
//   InferenceSession session =
//       engine.session(BackendKind::kEventSim); // or kReference / kQuantized,
//                                               // or any InferenceBackend
//   RunOptions opts;
//   opts.traces = true;                         // what to materialize
//   RunResult r = session.run(BatchView{images}, opts);
//   // r.logits (N, classes), r.traces[i]; stats_from_trace(net, r.traces[i])
//
// Ownership and threading rules
// -----------------------------
//  * The network must outlive every engine/session built over it and must
//    not be mutated concurrently with a run. The weight packs live on the
//    network (lazy, rebuilt by a double-checked ensure; snn/pack.h), so
//    single-threaded callers may mutate layers between runs — the next run
//    repacks. Many sessions can share one network.
//  * A session owns all per-caller reusable state: the thread-pool binding,
//    the chunking policy, and one SimArena per pool chunk (grown on demand,
//    pre-reserved when SessionOptions names the input shape). run() is NOT
//    thread-safe — use one session per concurrent caller; runs themselves
//    fan samples out across the session's pool internally.
//  * Backends are stateless and const: one backend instance may be shared
//    by any number of sessions and threads (the serving layer injects a
//    shared_ptr). All mutable scratch is handed in by the session.
//
// Determinism: every backend is bit-identical to its own sequential entry
// point — EventSimBackend to run_event_sim, QuantizedEventSimBackend to
// run_quantized_event_sim_span, ReferenceBackend to reference::run_event_sim —
// for any batch size, pool size, and RunOptions combination (asserted in
// tests/snn_engine_test.cpp). SnnNetwork::forward (phi_TTFS = decode . fire,
// network.h) is the conversion-math oracle those tests compare against: it
// differs from the float simulators only in float summation order, and
// integer artifacts (spike maps, the SnnRunStats and argmax derived from a
// trace) agree with it.
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

// The built-in backends. kEventSim is the spike-order-accurate simulator and
// the production float path, kReference the frozen oracle (slow; for
// validation only), kQuantized the fixed-point integer path over the
// log-quantized weight pack (quant.h).
enum class BackendKind { kEventSim, kReference, kQuantized };

// "event" / "reference" / "quantized" — the one spelling per backend shared by every
// --backend flag (bench/common.h) and the BENCH_*.json "backend" field.
std::string to_string(BackendKind kind);
// Inverse of to_string; throws std::invalid_argument on an unknown name.
BackendKind backend_kind_from_string(const std::string& name);

// What a run should materialize. A backend turns each sample into one
// EventTrace; everything else a caller wants (per-sample logits, argmax,
// SnnRunStats via stats_from_trace, a hardware price) is read off that trace.
// Whatever is not requested is left empty in the RunResult.
struct RunOptions {
  bool logits = true;   // merged (N, classes) tensor
  bool traces = false;  // the per-sample EventTraces themselves
};

// A RunResult's per-sample traces: a plain vector of EventTrace that hands
// its traces to the process-wide bin described at RunResult when it is
// destroyed or move-assigned over. The recycling lives here, not in
// RunResult, so RunResult keeps its compiler-generated copy and move.
class RecycledTraces : public std::vector<EventTrace> {
 public:
  RecycledTraces() = default;
  RecycledTraces(const RecycledTraces&) = default;
  RecycledTraces(RecycledTraces&&) noexcept = default;
  RecycledTraces& operator=(const RecycledTraces&) = default;
  RecycledTraces& operator=(RecycledTraces&& other) noexcept;  // recycles *this first
  ~RecycledTraces();
};

// Uniform result of InferenceSession::run. Traces are indexed by sample in
// input order; everything is bit-identical to running the backend's
// single-sample primitive in a sequential loop.
//
// Trace storage is recycled. Destroying or move-assigning over a RunResult
// hands its traces back to one process-wide bin, and the next traced run
// (of any session, on any thread) refills them in place, so their spike
// vectors keep their capacity and steady-state traced inference stops
// faulting fresh pages in. The bin is mutex-guarded, so results may be
// dropped on any thread, and it holds at most as many traces as the largest
// traced batch run so far: nothing stays resident that was not once live at
// the same moment. Traces moved out of a result are the caller's and never
// return; whatever state a returned trace is in (spikes moved out, layers
// cleared), the next run overwrites every field. Copies are deep.
struct RunResult {
  Tensor logits;          // (N, classes) iff RunOptions::logits
  RecycledTraces traces;  // size N iff RunOptions::traces; traces[i].logits
                          // always holds sample i's (1, classes) row
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

// One realization of SNN inference. Implementations must be stateless const
// objects: run_sample may be called concurrently from many session workers,
// with all scratch provided through `arena`. Alternative realizations
// (T2FSNN-style decoders, hybrid-conversion pipelines) plug in here as
// one-class additions.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  virtual std::string name() const = 0;

  // Weight-pack lifecycle, in backend-agnostic terms: sessions and the model
  // registry manage "whatever this backend runs on" without knowing which
  // pack that is. The defaults mean "no pack" (reference): nothing to
  // build, zero resident bytes, so a registry never evicts it. A backend
  // that reads a derived weight structure (the float event pack, the
  // quantized pack) overrides all three, so it names its pack in one place.
  //
  // Builds the backend's pack on `net` if missing (called before fan-out;
  // must be safe for concurrent const callers, like ensure_packed).
  virtual void ensure_ready(const SnnNetwork& /*net*/) const {}
  // Resident bytes of this backend's pack on `net` (0 while unbuilt).
  virtual std::size_t resident_pack_bytes(const SnnNetwork& /*net*/) const { return 0; }
  // Releases this backend's pack (the registry's cold-eviction primitive;
  // same caller contract as SnnNetwork::release_packed).
  virtual void release_pack(const SnnNetwork& /*net*/) const {}

  // Simulates sample `i` of `batch` through `net` into `into`. `arena` is
  // this worker's session-owned scratch (a backend may ignore it). `into`
  // may hold a recycled trace in any state; the backend overwrites all of it
  // (the arena backends refill it in place).
  virtual void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i,
                          SimArena& arena, EventTrace& into) const = 0;
};

// The timestep- and spike-order-accurate simulator (event_sim.h), running on
// the network's float event pack (SnnNetwork::packed_layers) with
// session-owned arenas. Bit-identical to run_event_sim per sample.
class EventSimBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "event"; }
  void ensure_ready(const SnnNetwork& net) const override { net.ensure_packed(); }
  std::size_t resident_pack_bytes(const SnnNetwork& net) const override {
    return net.packed_bytes();
  }
  void release_pack(const SnnNetwork& net) const override { net.release_packed(); }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  EventTrace& into) const override;
};

// The fixed-point integer simulator (quant.h): same event-by-event loop as
// EventSimBackend, but every membrane add is the LogPe shift-add product into
// a saturating int32 accumulator over the int16 quantized weight pack, at
// quant.h's compile-time datapath widths (kQuantZ, kQuantLutBits,
// kQuantAccFracBits, kQuantAccIntBits).
// Requires a log-quantized network (ensure_ready throws otherwise). Integer
// artifacts — spike maps, op counts, encoder cycles — match the float event
// sim exactly on converted nets; logits carry the fixed-point rounding bound
// documented in README ("Quantized inference"). Its pack is the quantized
// one and never the float pack, so a registry serving this backend keeps
// only the ~2x-smaller quantized pack resident.
class QuantizedEventSimBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "quantized"; }
  void ensure_ready(const SnnNetwork& net) const override { net.ensure_quantized(); }
  std::size_t resident_pack_bytes(const SnnNetwork& net) const override {
    return net.quantized_bytes();
  }
  void release_pack(const SnnNetwork& net) const override { net.release_quantized(); }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  EventTrace& into) const override;
};

// The frozen pre-overhaul simulator (event_sim_reference.h) behind the same
// interface — deliberately unoptimized; use it to cross-check the other two.
// It ignores the arena and replaces `into` with a fresh trace.
class ReferenceBackend final : public InferenceBackend {
 public:
  std::string name() const override { return "reference"; }
  void run_sample(const SnnNetwork& net, const BatchView& batch, std::int64_t i, SimArena& arena,
                  EventTrace& into) const override;
};

// Shared instance of a built-in backend (backends are stateless, so one
// instance per kind serves the whole process).
std::shared_ptr<const InferenceBackend> make_backend(BackendKind kind);

struct SessionOptions {
  // Compute pool for batch fan-out: global_pool() when null; a 0-thread pool
  // runs every sample inline on the calling thread.
  ThreadPool* pool = nullptr;
  // Optional arena pre-reservation so not even the first run allocates:
  // when both are set, min(max_batch_hint,
  // pool workers) arenas are reserved for `input_shape` (C, H, W) samples
  // at construction. Arenas still grow on demand past the hint.
  std::int64_t max_batch_hint = 0;
  std::vector<std::int64_t> input_shape;
};

// One caller's handle on (network, backend, pool): owns the per-worker
// arenas and the chunking policy, reused run after run so steady-state
// inference allocates nothing beyond the requested results (and traced
// results reuse recycled trace storage, see RunResult). Movable, not
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
  // materializes exactly what `opts` asks for. Sample i is simulated into
  // traces[i], or into its worker arena's scratch trace when traces are off.
  // Sample order is preserved everywhere; results are bit-identical to a
  // sequential loop over the backend's single-sample primitive regardless of
  // pool size.
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
