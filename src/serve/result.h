// Per-request completion record of the serving layer, plus the tiny
// per-sample helpers shared by the serving scheduler and the
// latency-recording benches (one definition each for "argmax of a logits
// row" and "seconds since an enqueue stamp", instead of a copy per call
// site).
//
// Every request submitted to SnnServer resolves to exactly one ServeResult,
// through its future or its completion callback, whatever happens to it —
// served, failed in the backend, or refused at the door.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "snn/network.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ttfs::serve {

// Argmax of a (1, classes) logits row; -1 for an empty row (the "no result"
// spelling of ServeResult::predicted for every RequestStatus != kOk).
inline std::int64_t predicted_class(const Tensor& logits_row) {
  return logits_row.numel() == 0 ? -1 : argmax_row(logits_row, 0);
}

// Wall-clock seconds from `start` to now — the request-latency stamp used at
// every request resolution.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

enum class RequestStatus {
  kOk,        // served: logits / predicted / stats are populated
  kRejected,  // refused at the door: the bounded submit queue was full,
              // shutdown already began, or the named model is not in the
              // registry
  kFailed,    // the backend threw while serving the request's batch
              // segment; every request in that segment gets this
};

struct ServeResult {
  RequestStatus status = RequestStatus::kRejected;
  std::string model_id;          // which registry model served (or refused) it
  Tensor logits;                 // (1, classes) when kOk, empty otherwise
  std::int64_t predicted = -1;   // argmax of logits, -1 unless kOk
  snn::SnnRunStats stats;        // this request's own activity counters
                                 // (snn::stats_from_trace of its trace)
  double latency_seconds = 0.0;  // submit -> completion (also set on
                                 // refusal and failure)
};

}  // namespace ttfs::serve
