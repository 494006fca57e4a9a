#ifndef MOBREP_PERFBENCH_BENCH_STATS_H_
#define MOBREP_PERFBENCH_BENCH_STATS_H_

// Statistics the benchmark reports: a fixed-memory latency histogram with
// interpolated quantiles, tail-sample counting, failed-op accounting
// and the span ledger that turns nested spans into per-layer self times.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic host time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Histogram of non-negative integer samples (nanoseconds). Values below
// 2^16 get one bin each, so quantiles there are exact order statistics;
// above, each power of two is split into 1024 bins (0.1% resolution).
// Memory is fixed (~0.9 MiB) whatever the sample count, so it never shows
// up as run-length-dependent RSS.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(int64_t value);
  // Adds every sample of `other`.
  void Merge(const LatencyHistogram& other);
  void Clear();

  int64_t count() const { return count_; }

  // The q-quantile (0 <= q <= 1) with linear interpolation inside the bin
  // that holds rank q*count: samples in a bin are taken as spread evenly
  // over [lower, lower + width). 0 when empty.
  double Quantile(double q) const;

  // Bin geometry, exposed for tests.
  static int BinOf(int64_t value);
  static int64_t BinLower(int bin);
  static int64_t BinWidth(int bin);

 private:
  std::vector<int64_t> bins_;
  int64_t count_ = 0;
};

// How many of `samples` ranked samples lie beyond the q-quantile's rank
// ceil(q * samples): 10 for p99 of 1000, 9 for p99 of 999.
int64_t SamplesBeyond(int64_t samples, double q);

// The median of a sample (the mean of the middle two for an even count).
double Median(std::vector<double> values);

// FNV-1a digest of a sequence of deterministic outputs, so one short hex
// string pins every per-segment or per-cell value of a seed.
class Digest {
 public:
  void Add(int64_t value);
  void Add(double value);  // by bit pattern
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Attempted and failed ops plus the first few failure reasons. A failed op
// is one whose call returned a non-OK status or whose post-conditions did
// not hold (unclean report, read never completed, ARQ give-up).
class OpLedger {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const char* why);
  // Records one attempted op; counts it failed when `ok` is false. Takes a
  // C string so the per-op path never builds a std::string.
  void Record(bool ok, const char* why_if_failed);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double failed_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;  // first kMaxReasons only
};

// Deterministic-output checks: a mismatch marks the run incorrect.
class Checker {
 public:
  // Records a mismatch when `ok` is false.
  void Expect(bool ok, const std::string& what);
  bool ok() const { return mismatches_ == 0; }
  int64_t mismatches() const { return mismatches_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  int64_t mismatches_ = 0;
  std::vector<std::string> reasons_;
};

// Nested spans -> per-kind self time. A span's self time is its duration
// minus the time its direct children cover; children are always nested
// inside their parent (one thread, stack discipline). The first
// `export_capacity` spans are also kept verbatim for the trace export.
class SpanLedger {
 public:
  struct Span {
    int kind = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanLedger(int num_kinds, size_t export_capacity);

  void Begin(int kind, uint64_t request, int64_t now_ns);
  void End(int64_t now_ns);
  // Zeroes every aggregate and drops the kept spans.
  void Reset();

  int depth() const { return static_cast<int>(stack_.size()); }
  int64_t self_ns(int kind) const { return self_[kind]; }
  int64_t total_ns(int kind) const { return total_[kind]; }
  int64_t count(int kind) const { return count_[kind]; }
  int64_t all_self_ns() const;
  const std::vector<Span>& spans() const { return spans_; }
  int64_t unexported() const { return unexported_; }

 private:
  struct Frame {
    int kind;
    int64_t start_ns;
    int64_t child_ns;
    int32_t exported;  // index in spans_ or -1
  };
  std::vector<Frame> stack_;
  std::vector<int64_t> self_;
  std::vector<int64_t> total_;
  std::vector<int64_t> count_;
  std::vector<Span> spans_;
  size_t export_capacity_;
  int64_t unexported_ = 0;
};

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_BENCH_STATS_H_
