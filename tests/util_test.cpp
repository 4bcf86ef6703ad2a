#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/latency_histogram.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(TTFS_CHECK(false), std::invalid_argument);
  try {
    TTFS_CHECK_MSG(1 == 2, "val=" << 42);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("val=42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(TTFS_CHECK(true)); }

TEST(Rng, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng{11};
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ForkIndependence) {
  Rng parent{5};
  Rng child = parent.fork();
  EXPECT_NE(parent.uniform(0, 1), child.uniform(0, 1));
}

TEST(Rng, ShufflePermutes) {
  Rng rng{3};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // 1/8! chance of false failure with this seed: verified stable
  std::multiset<int> a{v.begin(), v.end()}, b{orig.begin(), orig.end()};
  EXPECT_EQ(a, b);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeNoop) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool{0};
  int total = 0;
  pool.parallel_for(0, 10, [&](std::int64_t lo, std::int64_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total, 10);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool{2};
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::int64_t, std::int64_t) {
                                   throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool{2};
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // Nested parallel_for must not deadlock.
      pool.parallel_for(0, 3, [&](std::int64_t l, std::int64_t h) {
        total += static_cast<int>(h - l);
      });
    }
  });
  EXPECT_EQ(total.load(), 12);
}

TEST(ThreadPool, MaxChunksEmptyRangeIsZero) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.max_chunks(5, 5), 0U);
  EXPECT_EQ(pool.max_chunks(5, 3), 0U);
}

TEST(ThreadPool, MaxChunksBoundedByRangeAndWorkers) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.max_chunks(0, 1), 1U);
  EXPECT_EQ(pool.max_chunks(0, 3), 3U);   // range smaller than pool
  EXPECT_EQ(pool.max_chunks(0, 4), 4U);
  EXPECT_EQ(pool.max_chunks(0, 100), 4U);  // capped by workers
  ThreadPool inline_pool{0};
  EXPECT_EQ(inline_pool.max_chunks(0, 100), 1U);  // inline: one chunk
}

TEST(ThreadPool, IndexedEmptyRangeNeverCalls) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for_indexed(7, 7, [&](std::size_t, std::int64_t, std::int64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, IndexedRangeSmallerThanPoolRunsEachIndexOnce) {
  ThreadPool pool{8};
  const std::size_t chunks = pool.max_chunks(0, 3);
  ASSERT_EQ(chunks, 3U);
  std::vector<std::atomic<int>> index_hits(chunks);
  std::vector<std::atomic<int>> element_hits(3);
  std::mutex mu;  // guards the nothing-above-max_chunks assertion path
  pool.parallel_for_indexed(0, 3, [&](std::size_t idx, std::int64_t lo, std::int64_t hi) {
    const std::lock_guard<std::mutex> lock{mu};
    ASSERT_LT(idx, chunks);  // indices stay within what max_chunks promised
    index_hits[idx]++;
    for (std::int64_t i = lo; i < hi; ++i) element_hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : index_hits) EXPECT_EQ(h.load(), 1);    // each index exactly once
  for (const auto& h : element_hits) EXPECT_EQ(h.load(), 1);  // full coverage, no overlap
}

TEST(ThreadPool, IndexedZeroWorkerPoolRunsWholeRangeAsChunkZero) {
  ThreadPool pool{0};
  int calls = 0;
  pool.parallel_for_indexed(2, 9, [&](std::size_t idx, std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(idx, 0U);
    EXPECT_EQ(lo, 2);
    EXPECT_EQ(hi, 9);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, IndexedPropagatesExceptionFromChunk) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for_indexed(0, 8,
                                [](std::size_t idx, std::int64_t, std::int64_t) {
                                  if (idx == 1) throw std::runtime_error{"chunk boom"};
                                }),
      std::runtime_error);
  // The pool survives a throwing chunk and schedules normally afterwards.
  std::atomic<int> total{0};
  pool.parallel_for_indexed(0, 8, [&](std::size_t, std::int64_t lo, std::int64_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, MeanIsExact) {
  LatencyHistogram h;
  h.record(0.001);
  h.record(0.003);
  h.record(0.008);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.mean(), 0.004);
}

TEST(LatencyHistogram, QuantilesApproximateWithinBucketError) {
  LatencyHistogram h;
  // 100 samples at 1ms, 10 at 100ms: p50 ~ 1ms, p95 ~ 1ms, p99 ~ 100ms.
  for (int i = 0; i < 100; ++i) h.record(0.001);
  for (int i = 0; i < 10; ++i) h.record(0.1);
  EXPECT_NEAR(h.quantile(0.50), 0.001, 0.0005);
  EXPECT_NEAR(h.quantile(0.90), 0.001, 0.0005);
  EXPECT_NEAR(h.quantile(0.99), 0.1, 0.05);
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(1e-5, 1.0));
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(LatencyHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  LatencyHistogram h{1e-3, 1.0, 1.25};
  h.record(1e-9);   // below range -> lowest bucket
  h.record(50.0);   // above range -> highest bucket
  EXPECT_EQ(h.count(), 2U);
  EXPECT_LE(h.quantile(0.25), 2e-3);
  EXPECT_GE(h.quantile(0.99), 0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0U);
}

TEST(LatencyHistogram, NonPositiveRecordsClampToZero) {
  // A negative (or NaN) sample must count as a zero latency: it may not drag
  // sum_ below the recorded mass, so the exact mean and the bucket placement
  // tell the same story.
  LatencyHistogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  h.record(0.004);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.mean(), 0.004 / 3.0);
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_GE(h.quantile(1.0), 0.0);
}

TEST(LatencyHistogram, QuantilesStayInsideTheOccupiedBucket) {
  // All mass in one bucket: growth 2.0 puts 0.01 into [0.008, 0.016). Every
  // quantile — p100 included — must interpolate strictly inside that bucket;
  // the pre-fix interpolation reached fraction 1.0 at the bucket's last
  // sample, so p100 returned the bucket *ceiling*, a latency larger than
  // anything recorded.
  LatencyHistogram h{1e-3, 1.0, 2.0};
  for (int i = 0; i < 8; ++i) h.record(0.01);
  const double lo = 0.008;
  const double hi = 0.016;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, lo) << "q=" << q;
    EXPECT_LT(v, hi) << "q=" << q;
  }
}

TEST(Table, PrintAndCsv) {
  Table t{"demo"};
  t.set_header({"a", "b"});
  t.add_row({"1", "x,y"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "a,b\n1,\"x,y\"\n");
}

TEST(Table, RejectsAirityMismatch) {
  Table t{"demo"};
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::signed_num(-1.5, 1), "-1.5");
  EXPECT_EQ(Table::signed_num(2.0, 1), "+2.0");
}

TEST(Table, SaveCsvRoundTrip) {
  Table t{"demo"};
  t.set_header({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = ::testing::TempDir() + "/ttfs_table_test.csv";
  t.save_csv(path);
  std::ifstream is{path};
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "k,v");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--epochs=5", "--name", "abc", "--fast", "--lr", "0.5"};
  CliArgs args{7, argv};
  EXPECT_EQ(args.get_int("epochs", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
  EXPECT_TRUE(args.get_flag("fast"));
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.5);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_FALSE(args.get_flag("missing"));
}

TEST(Env, ScaledPicksQuickByDefault) {
  // TTFS_SCALE unset in the test environment.
  EXPECT_EQ(scaled(3, 100), run_scale() == Scale::kFull ? 100 : 3);
}

}  // namespace
}  // namespace ttfs
