#include "bench_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {
namespace {

constexpr int kLinearBits = 16;                  // exact bins below 2^16
constexpr int64_t kLinearBins = int64_t{1} << kLinearBits;
constexpr int kSubBits = 10;                     // 1024 bins per octave
constexpr int kOctaves = 63 - kLinearBits + 1;  // exponents 16..63
constexpr size_t kMaxReasons = 8;

}  // namespace

LatencyHistogram::LatencyHistogram()
    : bins_(static_cast<size_t>(kLinearBins + kOctaves * (1 << kSubBits)),
            0) {}

int LatencyHistogram::BinOf(int64_t value) {
  if (value < 0) value = 0;
  if (value < kLinearBins) return static_cast<int>(value);
  const int exponent = 63 - std::countl_zero(static_cast<uint64_t>(value));
  const int64_t sub =
      (value >> (exponent - kSubBits)) & ((int64_t{1} << kSubBits) - 1);
  return static_cast<int>(kLinearBins +
                          (exponent - kLinearBits) * (1 << kSubBits) + sub);
}

int64_t LatencyHistogram::BinLower(int bin) {
  if (bin < kLinearBins) return bin;
  const int offset = bin - static_cast<int>(kLinearBins);
  const int exponent = kLinearBits + offset / (1 << kSubBits);
  const int64_t sub = offset % (1 << kSubBits);
  return ((int64_t{1} << kSubBits) + sub) << (exponent - kSubBits);
}

int64_t LatencyHistogram::BinWidth(int bin) {
  if (bin < kLinearBins) return 1;
  const int offset = bin - static_cast<int>(kLinearBins);
  const int exponent = kLinearBits + offset / (1 << kSubBits);
  return int64_t{1} << (exponent - kSubBits);
}

void LatencyHistogram::Record(int64_t value) {
  ++bins_[static_cast<size_t>(BinOf(value))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t bin = 0; bin < bins_.size(); ++bin) {
    bins_[bin] += other.bins_[bin];
  }
  count_ += other.count_;
}

void LatencyHistogram::Clear() {
  std::fill(bins_.begin(), bins_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  int64_t before = 0;
  for (size_t bin = 0; bin < bins_.size(); ++bin) {
    const int64_t n = bins_[bin];
    if (n == 0) continue;
    if (static_cast<double>(before + n) >= rank) {
      const double into = (rank - static_cast<double>(before)) /
                          static_cast<double>(n);
      const int b = static_cast<int>(bin);
      return static_cast<double>(BinLower(b)) +
             into * static_cast<double>(BinWidth(b));
    }
    before += n;
  }
  return 0.0;  // unreachable: the last non-empty bin always satisfies rank
}

int64_t SamplesBeyond(int64_t samples, double q) {
  return samples - static_cast<int64_t>(
                       std::ceil(q * static_cast<double>(samples) - 1e-9));
}

void Digest::Add(int64_t value) {
  auto bits = static_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash_ = (hash_ ^ (bits & 0xff)) * 1099511628211ULL;
    bits >>= 8;
  }
}

void Digest::Add(double value) {
  Add(static_cast<int64_t>(std::bit_cast<uint64_t>(value)));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void OpLedger::Fail(const char* why) {
  ++failed_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(why);
}

void OpLedger::Record(bool ok, const char* why_if_failed) {
  Attempt();
  if (!ok) Fail(why_if_failed);
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++mismatches_;
  if (reasons_.size() < kMaxReasons) reasons_.push_back(what);
}

SpanLedger::SpanLedger(int num_kinds, size_t export_capacity)
    : self_(static_cast<size_t>(num_kinds), 0),
      total_(static_cast<size_t>(num_kinds), 0),
      count_(static_cast<size_t>(num_kinds), 0),
      export_capacity_(export_capacity) {
  stack_.reserve(64);
  spans_.reserve(export_capacity);
}

void SpanLedger::Begin(int kind, uint64_t request, int64_t now_ns) {
  int32_t exported = -1;
  if (spans_.size() < export_capacity_) {
    exported = static_cast<int32_t>(spans_.size());
    Span span;
    span.kind = kind;
    span.parent = stack_.empty() ? -1 : stack_.back().exported;
    span.request = request;
    span.start_ns = now_ns;
    spans_.push_back(span);
  } else {
    ++unexported_;
  }
  stack_.push_back(Frame{kind, now_ns, 0, exported});
}

void SpanLedger::End(int64_t now_ns) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - frame.start_ns;
  const auto k = static_cast<size_t>(frame.kind);
  self_[k] += duration - frame.child_ns;
  total_[k] += duration;
  ++count_[k];
  if (frame.exported >= 0) {
    spans_[static_cast<size_t>(frame.exported)].end_ns = now_ns;
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void SpanLedger::Reset() {
  stack_.clear();
  std::fill(self_.begin(), self_.end(), 0);
  std::fill(total_.begin(), total_.end(), 0);
  std::fill(count_.begin(), count_.end(), 0);
  spans_.clear();
  unexported_ = 0;
}

int64_t SpanLedger::all_self_ns() const {
  int64_t sum = 0;
  for (const int64_t v : self_) sum += v;
  return sum;
}

}  // namespace perfbench
