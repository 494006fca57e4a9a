// Self-tests for the benchmark's statistics: quantile selection, samples
// beyond a tail percentile, histogram merging, medians, self-time
// arithmetic for nested spans and failed-op counting. Exits 0 when every
// check passes.
//
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, double tol, const std::string& what) {
  Expect(std::fabs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

using perfbench::LatencyHistogram;

void TestHistogramExactBins() {
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  Expect(h.count() == 1000, "count");
  // Rank 500 of 1000 ends exactly at the top of the bin holding 500, and
  // the grouped-data interpolation spreads a bin over [v, v+1).
  ExpectNear(h.Quantile(0.5), 501.0, 1e-9, "p50 of 1..1000");
  ExpectNear(h.Quantile(0.99), 991.0, 1e-9, "p99 of 1..1000");
  ExpectNear(h.Quantile(0.0), 1.0, 1e-9, "p0 is the minimum's bin");
  ExpectNear(h.Quantile(1.0), 1001.0, 1e-9, "p100 is the top of the max bin");
  h.Clear();
  Expect(h.count() == 0 && h.Quantile(0.5) == 0.0, "clear empties");
  h.Record(7);
  ExpectNear(h.Quantile(0.5), 7.5, 1e-9, "reuse after clear");
}

void TestHistogramInterpolatesInsideABin() {
  LatencyHistogram h;
  for (int i = 0; i < 30; ++i) h.Record(250);
  for (int i = 0; i < 70; ++i) h.Record(260);
  // Rank 50: 20 of the 70 samples at 260 -> 260 + 20/70.
  ExpectNear(h.Quantile(0.5), 260.0 + 20.0 / 70.0, 1e-9,
             "p50 interpolates within the 260 bin");
}

void TestHistogramLogBins() {
  // Above 2^16 bins are 1/1024 of an octave wide; the quantile stays within
  // one bin width of the true order statistic.
  for (const int64_t v : {int64_t{65536}, int64_t{100000}, int64_t{1000000},
                          int64_t{123456789}}) {
    const int bin = LatencyHistogram::BinOf(v);
    const int64_t lo = LatencyHistogram::BinLower(bin);
    const int64_t width = LatencyHistogram::BinWidth(bin);
    Expect(lo <= v && v < lo + width,
           "value " + std::to_string(v) + " lies in its bin");
    Expect(static_cast<double>(width) / static_cast<double>(v) <= 1.0 / 1024,
           "bin width within 0.1%");
  }
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000000 + i * 1000);
  const double p50 = h.Quantile(0.5);
  Expect(p50 >= 1049000 - 1024 && p50 <= 1050000 + 1024,
         "p50 of a log-binned run within one bin");
}

void TestTailSamples() {
  using perfbench::SamplesBeyond;
  // A window of 1000 ops is the smallest whose p99 has 10 samples beyond.
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(SamplesBeyond(100000, 0.99) == 1000, "100000 samples: 1000 beyond");
  Expect(SamplesBeyond(0, 0.99) == 0, "no samples");
  // The histogram agrees: of 1..1000, exactly 10 samples reach its p99.
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  int beyond = 0;
  for (int v = 1; v <= 1000; ++v) beyond += v >= h.Quantile(0.99) ? 1 : 0;
  Expect(beyond == 10, "10 of 1000 samples at or beyond p99");
}

void TestMerge() {
  LatencyHistogram window, run;
  for (int v = 1; v <= 500; ++v) window.Record(v);
  run.Merge(window);
  window.Clear();
  for (int v = 501; v <= 1000; ++v) window.Record(v);
  run.Merge(window);
  LatencyHistogram direct;
  for (int v = 1; v <= 1000; ++v) direct.Record(v);
  Expect(run.count() == 1000, "merged count");
  ExpectNear(run.Quantile(0.5), direct.Quantile(0.5), 0, "merged p50");
  ExpectNear(run.Quantile(0.99), direct.Quantile(0.99), 0, "merged p99");
}

void TestMedian() {
  ExpectNear(perfbench::Median({3, 1, 2}), 2.0, 0, "odd median");
  ExpectNear(perfbench::Median({4, 1, 2, 3}), 2.5, 0, "even median");
}

void TestSelfTime() {
  // op [0,100) holds a [10,40) which holds b [15,25), then c [50,55).
  perfbench::SpanLedger ledger(4, 16);
  ledger.Begin(0, 7, 0);
  ledger.Begin(1, 7, 10);
  ledger.Begin(2, 7, 15);
  ledger.End(25);
  ledger.End(40);
  ledger.Begin(3, 7, 50);
  ledger.End(55);
  ledger.End(100);
  Expect(ledger.depth() == 0, "all spans closed");
  Expect(ledger.self_ns(0) == 100 - 30 - 5, "root self = duration - children");
  Expect(ledger.self_ns(1) == 30 - 10, "a self excludes its child b");
  Expect(ledger.self_ns(2) == 10, "leaf self = duration");
  Expect(ledger.self_ns(3) == 5, "second child");
  Expect(ledger.total_ns(0) == 100, "root total");
  Expect(ledger.all_self_ns() == ledger.total_ns(0),
         "self times add up to the root's duration");
  const auto& spans = ledger.spans();
  Expect(spans.size() == 4 && spans[2].parent == 1 && spans[3].parent == 0 &&
             spans[0].parent == -1 && spans[1].request == 7,
         "exported parents and request ids");
  // A second root adds to the same kinds.
  ledger.Begin(0, 8, 200);
  ledger.Begin(1, 8, 210);
  ledger.End(260);
  ledger.End(300);
  Expect(ledger.count(0) == 2 && ledger.self_ns(0) == 65 + 50,
         "self time accumulates across roots");
  Expect(ledger.unexported() == 0, "capacity not exceeded");
  ledger.Reset();
  Expect(ledger.count(0) == 0 && ledger.spans().empty(), "reset");
}

void TestExportCapacity() {
  perfbench::SpanLedger ledger(1, 2);
  for (int i = 0; i < 5; ++i) {
    ledger.Begin(0, i, i * 10);
    ledger.End(i * 10 + 3);
  }
  Expect(ledger.spans().size() == 2 && ledger.unexported() == 3,
         "export keeps the first spans, aggregates all");
  Expect(ledger.self_ns(0) == 15, "aggregates see unexported spans");
}

void TestFailedOps() {
  perfbench::OpLedger ops;
  for (int i = 0; i < 99; ++i) ops.Record(true, "never");
  // A deliberately failing op: its status is not OK.
  const auto failing_op = [] { return false; };
  ops.Record(failing_op(), "deliberate failure");
  Expect(ops.attempted() == 100, "attempted counts every op");
  Expect(ops.failed() == 1, "one failed op");
  ExpectNear(ops.failed_ratio(), 0.01, 1e-12, "failed ratio");
  Expect(ops.reasons().size() == 1 && ops.reasons()[0] == "deliberate failure",
         "failure reason kept");
  perfbench::OpLedger empty;
  Expect(empty.failed_ratio() == 0.0, "no ops, no failures");

  perfbench::Checker check;
  check.Expect(true, "equal");
  Expect(check.ok(), "a passing check leaves the run correct");
  check.Expect(false, "retransmissions 3/4");
  Expect(!check.ok() && check.mismatches() == 1 &&
             check.reasons()[0] == "retransmissions 3/4",
         "mismatch recorded");
}

}  // namespace

int main() {
  TestHistogramExactBins();
  TestHistogramInterpolatesInsideABin();
  TestHistogramLogBins();
  TestTailSamples();
  TestMerge();
  TestMedian();
  TestSelfTime();
  TestExportCapacity();
  TestFailedOps();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
