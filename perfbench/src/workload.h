#ifndef MOBREP_PERFBENCH_WORKLOAD_H_
#define MOBREP_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "spans.h"

namespace perfbench {

struct BenchConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  // Scratch directory inside the checkout: WAL files and the span export.
  std::string out_dir = ".bench_out";
  // Table of pinned deterministic outputs by (workload, seed); empty: none.
  std::string expected_table;
};

// Everything one timed phase records: per-op host times, attempted and
// failed ops, deterministic-output mismatches, and the host time spent on
// the benchmark's own checks, which is not the program's.
struct TimedContext {
  LatencyHistogram window_ns;  // ops since the timed loop last closed a window
  OpLedger ops;
  Checker check;
  int64_t unmeasured_ns = 0;  // total host time inside Unmeasured()

  // Times one op. `fn` returns true when the op succeeded.
  template <typename Fn>
  void TimeOp(Fn&& fn, const char* what) {
    const int64_t start = NowNs();
    const bool ok = fn();
    window_ns.Record(NowNs() - start);
    ops.Record(ok, what);
  }

  // Runs a check of the program's outputs (an oracle, a log replay) and
  // books its host time as unmeasured, so rates leave it out.
  template <typename Fn>
  void Unmeasured(Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    unmeasured_ns += NowNs() - start;
  }
};

// Per-layer figures of a traced run, by metric name.
struct LayerReport {
  std::map<std::string, double> values;
  // Human-readable lines printed above the JSON result.
  std::vector<std::string> notes;
  void Set(const std::string& name, double value) { values[name] = value; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from the seed, builds the stack and runs the
  // warm-up that records the expected deterministic outputs. Each call
  // starts from scratch, so set-up can be timed several times.
  virtual void Setup() = 0;

  // Runs one round of timed ops (a fixed slice of the seeded input).
  virtual void RunRound(TimedContext* ctx) = 0;

  // One line of the seed's deterministic outputs (identical on every run).
  virtual std::string Deterministic() const = 0;

  // The traced run: fills `report` with per-layer metrics, spending about
  // `seconds` of host time. Ops and mismatches go to `ctx`.
  virtual void RunTraced(double seconds, TimedContext* ctx,
                         LayerReport* report) = 0;
};

std::unique_ptr<Workload> MakePaperSerial(const BenchConfig& config);
std::unique_ptr<Workload> MakeLossyTimed(const BenchConfig& config);
std::unique_ptr<Workload> MakeFanoutMulti(const BenchConfig& config);
std::unique_ptr<Workload> MakeCostSweep(const BenchConfig& config);
std::unique_ptr<Workload> MakeChaosMatrix(const BenchConfig& config);

// Stable per-purpose seed derivation: the same (seed, salt) always gives
// the same stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// Stratified draw: the i-th of n equal strata of [lo, hi), at a seeded
// point inside it. Each seed covers the whole range evenly, so the mix of
// inputs (and with it the run's cost) barely moves from seed to seed.
double Stratified(int i, int n, double lo, double hi, double unit_draw);

// Spans on for the lifetime of the object, ledger cleared on entry.
class TracingOn {
 public:
  TracingOn() {
    Tracer::Get().ledger().Reset();
    Tracer::Get().set_enabled(true);
  }
  ~TracingOn() { Tracer::Get().set_enabled(false); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// Self time of `kind` per call, and per `per` units, from the ledger.
double SelfNsPerCall(int kind);
double SelfNsPer(int kind, double per);

// Fills the shared "where did the op time go" lines and metrics from the
// ledger: every kind's self-time share plus the unattributed remainder
// (the root span's own self time), which add up to the traced op time.
void ReportSelfTimeBreakdown(LayerReport* report);

// What the two passes of a traced run measured.
struct PassResult {
  int64_t ops[2] = {0, 0};  // [0] spans off, [1] spans on
  double ops_per_ns[2] = {0.0, 0.0};
  // Heap allocations and message-pool acquisitions of the untraced pass.
  int64_t untraced_heap = 0;
  int64_t untraced_pool_fresh = 0;
  int64_t untraced_pool_reuses = 0;
};

// The traced run's two passes over the same inputs, spans off and spans
// on, interleaved so that drift in host speed hits both alike. For
// i = 0, 1, ... until `seconds` have passed and at least `min_units` were
// run, it calls `unit(false, i)` then `unit(true, i)`; a call runs one unit
// of the workload (a segment, a round, a cell) and returns the ops it ran.
// Host time inside ctx->Unmeasured() is left out of the rates. Sets
// bench.span_overhead_pct from the two rates.
PassResult RunTracedPasses(
    double seconds, size_t min_units, TimedContext* ctx, LayerReport* report,
    const std::function<int64_t(bool traced, size_t unit)>& unit);

// alloc.heap_per_request and message_pool.fresh_allocs_per_msg over the
// untraced pass.
void ReportAllocs(const PassResult& passes, LayerReport* report);

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_WORKLOAD_H_
