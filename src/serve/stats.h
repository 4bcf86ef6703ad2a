// Serving-side observability: counters + latency distribution.
//
// StatsCollector is the thread-safe sink the server feeds from every thread
// that touches a request (submitters and the replica schedulers);
// ServerStats is the consistent point-in-time snapshot handed to callers.
// Latencies go through util/latency_histogram.h, so p50/p95 are
// O(1) memory no matter how many requests have been served — one histogram
// server-wide, one per replica (a slow or starved replica is visible on its
// own), and one per model (a model whose traffic is being crowded out, or
// whose batches run long, is visible on its own too).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/latency_histogram.h"
#include "util/thread_annotations.h"

namespace ttfs::serve {

// One replica's share of the work: which scheduler ran how many batches, how
// big they were, and the completion-latency distribution of the requests it
// served.
struct ReplicaStats {
  std::uint64_t batches = 0;     // batches this replica ran
  std::uint64_t completed = 0;   // requests it completed
  double mean_batch_size = 0.0;  // completed / batches
  double latency_p50_ms = 0.0;   // submit -> completion, this replica only
  double latency_p95_ms = 0.0;
  bool busy = false;             // running a batch at snapshot time
};

// One registered model's share of the traffic: how much was submitted,
// served, failed and refused under its id, how its (never cross-model)
// batches formed, and its own latency distribution. Its ledger balances like
// the server's: submitted = completed + failed + rejected + rejected_overload
// + queued + running.
struct ModelStats {
  std::string id;
  std::uint64_t submitted = 0;          // counted submits naming this model
  std::uint64_t completed = 0;          // requests served under this model
  std::uint64_t failed = 0;             // its requests failed by a backend error
  std::uint64_t rejected = 0;           // its requests refused: shutdown began
  std::uint64_t rejected_overload = 0;  // its requests refused: queue full
  std::uint64_t batches = 0;            // batches formed from this model's lane
  double mean_batch_size = 0.0;  // completed / batches
  std::size_t queue_depth = 0;   // pending in this model's lane at snapshot
  double latency_p50_ms = 0.0;   // submit -> completion, this model only
  double latency_p95_ms = 0.0;
};

// Once the queue is empty and no batch runs,
//   submitted = completed + failed + rejected + rejected_overload.
struct ServerStats {
  std::uint64_t submitted = 0;          // accepted submits (refused included; a
                                        // submit that throws is not counted)
  std::uint64_t completed = 0;          // served with logits
  std::uint64_t failed = 0;             // backend error: resolved kFailed
  std::uint64_t rejected = 0;           // refused: shutdown began or unknown model
  std::uint64_t rejected_overload = 0;  // refused: the bounded queue was full
  std::uint64_t batches_formed = 0;     // pop_batch() flushes that ran
  std::size_t queue_depth = 0;          // pending at snapshot time (all models)
  double mean_batch_size = 0.0;         // completed / batches_formed
  double latency_mean_ms = 0.0;         // submit -> completion, served requests
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::vector<ReplicaStats> replicas;   // one entry per serving replica
  std::vector<ModelStats> models;       // one entry per registered model that
                                        // saw traffic, sorted by id (submits
                                        // naming an unknown id count only in
                                        // `submitted` and `rejected` above)

  // One line for logs/demos, e.g.
  // "served 96/96 (0 failed, 0 rejected, 0 overload-rejected) in 12 batches
  //  (mean 8.0) on 2 replicas x 3 models, p50 1.93ms p95 3.1ms".
  std::string describe() const;
};

class StatsCollector {
 public:
  // `replicas` sizes the per-replica slots (>= 1). Model slots appear as
  // traffic names registered models; an unknown id never gets one.
  explicit StatsCollector(std::size_t replicas = 1);

  // Lifecycle event sinks, one per observable transition of a request. Each
  // takes the collector's mutex once and returns; all are safe from any
  // thread concurrently with each other and with snapshot(). [thread-safe]
  void on_submit(const std::string& model);  // a submit naming a registered model
  void on_reject_unknown();                  // a submit naming an unknown id: counted
                                             // and refused, with no model slot
  void on_reject(const std::string& model);  // refused: shutdown began
  void on_reject_overload(const std::string& model);  // refused: full queue
  void on_fail(const std::string& model);    // resolved by a backend failure
  // A batch from `model`'s lane started on `replica`. [thread-safe]
  void on_batch(std::size_t replica, const std::string& model);
  // One request served: feeds the global, per-replica and per-model latency
  // histograms with the enqueue->complete stamp. [thread-safe]
  void on_complete(std::size_t replica, const std::string& model, double latency_seconds);

  // `queue_depth` comes from the batcher (total and per model lane) and
  // `busy` from the server's per-replica flags (each source owns its lock or
  // flags).
  // Takes mu_ exactly once for the whole snapshot, so every counter, replica
  // slot, and model slot is read at the same instant — a request completing
  // concurrently either appears in ALL derived fields (completed, mean batch
  // size, latency quantiles) or in none of them, never torn across a few.
  ServerStats snapshot(std::size_t queue_depth, const std::vector<bool>& busy,
                       const std::map<std::string, std::size_t>& model_depths) const
      TTFS_EXCLUDES(mu_);

 private:
  struct ReplicaSlot {
    std::uint64_t batches = 0;
    std::uint64_t completed = 0;
    LatencyHistogram latency;
  };
  struct ModelSlot {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t batches = 0;
    LatencyHistogram latency;
  };

  mutable util::Mutex mu_;
  std::uint64_t submitted_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_overload_ TTFS_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_ TTFS_GUARDED_BY(mu_) = 0;
  LatencyHistogram latency_ TTFS_GUARDED_BY(mu_);
  std::vector<ReplicaSlot> replicas_ TTFS_GUARDED_BY(mu_);
  std::map<std::string, ModelSlot> models_ TTFS_GUARDED_BY(mu_);
};

}  // namespace ttfs::serve
