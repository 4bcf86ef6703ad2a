// sim_float: the paper's offline flow. The VGG-style stack runs through one
// InferenceSession on EventSimBackend (batches of 8 on the pinned compute
// pool, traces on) and every trace is priced by hw::price_trace.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace perfbench {

using namespace ttfs;

namespace {

constexpr std::int64_t kPoolImages = 32;
constexpr std::size_t kBatch = 8;

// Seeded visiting order of the pool: a fresh shuffle per epoch, cut into
// batches of kBatch.
class BatchSchedule {
 public:
  explicit BatchSchedule(std::uint64_t seed) : rng_{seed} {}

  std::vector<std::size_t> next() {
    std::vector<std::size_t> batch;
    while (batch.size() < kBatch) {
      if (pos_ == order_.size()) {
        order_.resize(static_cast<std::size_t>(kPoolImages));
        for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
        rng_.shuffle(order_);
        pos_ = 0;
      }
      batch.push_back(order_[pos_++]);
    }
    return batch;
  }

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

// Everything one set-up builds and the timed phase runs on.
struct SimStack {
  Model model;
  std::unique_ptr<snn::InferenceSession> session;
};

}  // namespace

int run_sim(const Args& args, Record& rec, std::vector<Span>& spans_out) {
  const std::vector<std::int64_t> shape{3, 32, 32};
  const std::vector<Tensor> pool = make_pool(kPoolImages, shape);
  const snn::BackendKind kind = snn::BackendKind::kEventSim;
  snn::RunOptions ropts;
  ropts.logits = false;
  ropts.traces = true;

  // Set-up, repeated: net build, session + pack build, warm-up.
  std::vector<double> setup_s, snn_setup_ms;
  SimStack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.session.reset();  // before the network it points at
    stack.model = Model{};
    const std::int64_t t0 = now_ns();
    auto net = std::make_shared<snn::SnnNetwork>(make_vgg_style());
    const std::int64_t ts = now_ns();
    stack.model = Model{"vgg", net, kind, shape};
    snn::SessionOptions sopts;
    sopts.max_batch_hint = static_cast<std::int64_t>(kBatch);
    sopts.input_shape = shape;
    stack.session = std::make_unique<snn::InferenceSession>(*net, snn::make_backend(kind),
                                                            std::move(sopts));
    for (std::size_t b = 0; b < 2 * kBatch; b += kBatch) {
      std::vector<const Tensor*> warm;
      for (std::size_t i = b; i < b + kBatch; ++i) warm.push_back(&pool[i]);
      stack.session->run(snn::BatchView{warm}, ropts);
    }
    const std::int64_t t1 = now_ns();
    setup_s.push_back(ms_between(t0, t1) * 1e-3);
    snn_setup_ms.push_back(ms_between(ts, t1));
  }
  const std::int64_t first_request_ns = now_ns();

  // Expected per-image outcomes, outside the timed phase.
  std::string first_error;
  std::vector<Expected> expected;
  PoolTotals totals;
  exact_pass(stack.model, kind, pool, expected, totals);

  // Timed phase.
  SpanLog log{0};
  BatchSchedule schedule{args.seed};
  std::vector<double> b_start, b_end, b_images, b_traced, b_sops;
  std::int64_t attempted = 0, failed = 0;
  Windows win = make_windows(args);
  win.t0 = now_ns();
  HostSampler host{win};
  for (;;) {
    const std::int64_t t = now_ns();
    if (t >= win.end()) break;
    log.enabled = win.traced(win.index(t));
    const std::vector<std::size_t> idx = schedule.next();
    std::vector<const Tensor*> batch;
    batch.reserve(idx.size());
    for (const std::size_t i : idx) batch.push_back(&pool[i]);

    const std::int64_t root = log.open("sim.request");
    const std::int64_t run_span = log.open("snn.run", root);
    const std::int64_t r0 = now_ns();
    const snn::RunResult r = stack.session->run(snn::BatchView{batch}, ropts);
    log.close(run_span);
    std::vector<hw::ProcessorReport> reports;
    reports.reserve(idx.size());
    for (const snn::EventTrace& trace : r.traces) {
      const std::int64_t price_span = log.open("hw.price", root);
      reports.push_back(price(stack.model, trace));
      log.close(price_span);
    }
    // The request ends once every trace is priced; the checks below are the
    // benchmark's own work.
    const std::int64_t r1 = now_ns();
    log.close(root);
    std::int64_t sops = 0;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const snn::EventTrace& trace = r.traces[k];
      const hw::ProcessorReport& report = reports[k];
      const Expected& want = expected[idx[k]];
      std::string err = compare_trace(trace, want);
      if (err.empty() && (report.total_cycles != want.hw_cycles ||
                          report.energy_per_image_uj() != want.energy_uj)) {
        err = "priced cycles/energy differ";
      }
      if (!err.empty()) {
        ++failed;
        if (first_error.empty()) first_error = err + " on image " + std::to_string(idx[k]);
      }
      sops += trace.total_integration_ops();
    }
    attempted += static_cast<std::int64_t>(idx.size());
    b_start.push_back(ms_between(win.t0, r0) * 1e-3);
    b_end.push_back(ms_between(win.t0, r1) * 1e-3);
    b_images.push_back(static_cast<double>(idx.size()));
    b_traced.push_back(log.enabled ? 1.0 : 0.0);
    b_sops.push_back(static_cast<double>(sops));
  }

  record_windows(rec, win);
  rec.arr("setup_s", setup_s);
  rec.arr("setup.snn_ms", snn_setup_ms);
  rec.num("first_request_s", static_cast<double>(first_request_ns) * 1e-9);
  rec.arr("batch.start_s", b_start);
  rec.arr("batch.end_s", b_end);
  rec.arr("batch.images", b_images);
  rec.arr("batch.traced", b_traced);
  rec.arr("batch.sops", b_sops);
  rec.num("attempted", static_cast<double>(attempted));
  rec.num("failed", static_cast<double>(failed));
  host.record(rec);
  rec.num("replicas", 0);
  rec.num("connections", 0);
  record_totals(rec, totals);
  rec.str("error", first_error);
  spans_out = log.spans();
  return static_cast<int>(failed);
}

}  // namespace perfbench
