#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "heap_counter.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/net/event_queue.h"
#include "mobrep/obs/alloc_stats.h"
#include "mobrep/store/replica_cache.h"
#include "mobrep/store/versioned_store.h"
#include "mobrep/store/write_ahead_log.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  mobrep::SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  mix.Next();
  return mix.Next();
}

double Stratified(int i, int n, double lo, double hi, double unit_draw) {
  return lo + (hi - lo) * (static_cast<double>(i) + unit_draw) /
                  static_cast<double>(n);
}

double SelfNsPerCall(int kind) {
  const SpanLedger& ledger = Tracer::Get().ledger();
  const int64_t n = ledger.count(kind);
  return n == 0 ? 0.0
                : static_cast<double>(ledger.self_ns(kind)) /
                      static_cast<double>(n);
}

double SelfNsPer(int kind, double per) {
  return per <= 0.0 ? 0.0
                    : static_cast<double>(
                          Tracer::Get().ledger().self_ns(kind)) /
                          per;
}

void ReportSelfTimeBreakdown(LayerReport* report) {
  const SpanLedger& ledger = Tracer::Get().ledger();
  const int64_t op_total = ledger.total_ns(kSpanOp);
  const int64_t ops = ledger.count(kSpanOp);
  if (op_total <= 0 || ops == 0) return;
  report->Set("bench.traced_op_ns",
              static_cast<double>(op_total) / static_cast<double>(ops));
  report->Set("bench.unattributed_pct",
              100.0 * static_cast<double>(ledger.self_ns(kSpanOp)) /
                  static_cast<double>(op_total));
  report->notes.push_back(mobrep::StrFormat(
      "traced op time %.1f ns/op over %lld ops; self time by span:",
      static_cast<double>(op_total) / static_cast<double>(ops),
      static_cast<long long>(ops)));
  for (int kind = 0; kind < kNumSpanKinds; ++kind) {
    if (ledger.count(kind) == 0) continue;
    const int64_t self = ledger.self_ns(kind);
    report->notes.push_back(mobrep::StrFormat(
        "  %-40s %-18s calls %10lld  self %8.1f ns/call  %5.1f%% of op time%s",
        SpanName(kind), SpanLayer(kind),
        static_cast<long long>(ledger.count(kind)),
        static_cast<double>(self) / static_cast<double>(ledger.count(kind)),
        100.0 * static_cast<double>(self) / static_cast<double>(op_total),
        kind == kSpanOp ? "  (unattributed remainder)" : ""));
  }
  report->notes.push_back(mobrep::StrFormat(
      "  self times sum to %.3f%% of traced op time",
      100.0 * static_cast<double>(ledger.all_self_ns()) /
          static_cast<double>(op_total)));
}

namespace {

// Heap allocations (interposed operator new) and message-pool counters at
// one instant.
struct AllocSnapshot {
  int64_t heap = 0;
  int64_t pool_fresh = 0;  // slab + legacy allocations
  int64_t pool_reuses = 0;

  static AllocSnapshot Take() {
    const mobrep::obs::AllocCounters pool =
        mobrep::obs::AggregateAllocCounters();
    AllocSnapshot snap;
    snap.heap = HeapAllocations();
    snap.pool_fresh = pool.msg_slab_allocs + pool.msg_legacy_allocs;
    snap.pool_reuses = pool.msg_reuses;
    return snap;
  }
};

}  // namespace

PassResult RunTracedPasses(
    double seconds, size_t min_units, TimedContext* ctx, LayerReport* report,
    const std::function<int64_t(bool traced, size_t unit)>& unit) {
  PassResult result;
  int64_t ns[2] = {0, 0};
  TracingOn tracing;
  Deadline deadline(seconds);
  for (size_t i = 0; i < min_units || !deadline.passed(); ++i) {
    for (const bool traced : {false, true}) {
      Tracer::Get().set_enabled(traced);
      const AllocSnapshot before = AllocSnapshot::Take();
      const int64_t unmeasured_before = ctx->unmeasured_ns;
      const int64_t start = NowNs();
      result.ops[traced] += unit(traced, i);
      ns[traced] += NowNs() - start - (ctx->unmeasured_ns - unmeasured_before);
      if (!traced) {
        const AllocSnapshot after = AllocSnapshot::Take();
        result.untraced_heap += after.heap - before.heap;
        result.untraced_pool_fresh += after.pool_fresh - before.pool_fresh;
        result.untraced_pool_reuses += after.pool_reuses - before.pool_reuses;
      }
    }
  }
  for (int traced = 0; traced < 2; ++traced) {
    result.ops_per_ns[traced] = Ratio(static_cast<double>(result.ops[traced]),
                                      static_cast<double>(ns[traced]));
  }
  report->Set("bench.span_overhead_pct",
              100.0 * (Ratio(result.ops_per_ns[0], result.ops_per_ns[1]) -
                       1.0));
  report->notes.push_back(mobrep::StrFormat(
      "own stack: untraced %.1f k ops/s, traced %.1f k ops/s over %lld/%lld "
      "ops",
      result.ops_per_ns[0] * 1e6, result.ops_per_ns[1] * 1e6,
      static_cast<long long>(result.ops[0]),
      static_cast<long long>(result.ops[1])));
  return result;
}

void ReportAllocs(const PassResult& passes, LayerReport* report) {
  const auto fresh = static_cast<double>(passes.untraced_pool_fresh);
  report->Set("message_pool.fresh_allocs_per_msg",
              Ratio(fresh,
                    fresh + static_cast<double>(passes.untraced_pool_reuses)));
  report->Set("alloc.heap_per_request",
              Ratio(static_cast<double>(passes.untraced_heap),
                    static_cast<double>(passes.ops[0])));
}

void ReportSpanLayerTimes(LayerReport* report) {
  const struct {
    const char* metric;
    int kind;
  } kTimes[] = {
      {"event_queue.dispatch_ns", kSpanRunNext},
      {"channel.send_ns", kSpanChannelSend},
      {"fault_model.transmit_ns", kSpanFaultTransmit},
      {"reliable_link.send_ns", kSpanArqSend},
      {"reliable_link.handle_frame_ns", kSpanArqHandleFrame},
      {"protocol.mc_handle_ns", kSpanMcHandle},
      {"protocol.sc_handle_ns", kSpanScHandle},
      {"protocol.issue_read_ns", kSpanIssueRead},
      {"protocol.issue_write_ns", kSpanIssueWrite},
  };
  for (const auto& t : kTimes) report->Set(t.metric, SelfNsPerCall(t.kind));
}

void MeasureStoreCalls(int64_t puts, int64_t gets, int64_t installs,
                       LayerReport* report) {
  // Direct calls on the run's own record stream: one Put per committed
  // write, one Get per read, one Install per allocation.
  const std::string key = "x";
  std::vector<std::string> values;
  values.reserve(static_cast<size_t>(puts));
  for (int64_t i = 0; i < puts; ++i) {
    values.push_back(mobrep::StrFormat("v%lld", static_cast<long long>(i)));
  }
  mobrep::VersionedStore store;
  store.Put(key, "v0");
  int64_t start = NowNs();
  for (std::string& v : values) store.Put(key, std::move(v));
  const int64_t put_ns = NowNs() - start;

  uint64_t sink = 0;
  start = NowNs();
  for (int64_t i = 0; i < gets; ++i) sink += store.Get(key)->version;
  const int64_t get_ns = NowNs() - start;

  mobrep::ReplicaCache cache;
  const mobrep::VersionedValue latest = *store.Get(key);
  start = NowNs();
  for (int64_t i = 0; i < installs; ++i) {
    cache.Install(key, latest);
    sink += cache.size();
  }
  const int64_t install_ns = NowNs() - start;
  DoNotOptimize(sink);

  const auto per = [](int64_t ns, int64_t n) {
    return Ratio(static_cast<double>(ns), static_cast<double>(n));
  };
  report->Set("store.put_ns", per(put_ns, puts));
  report->Set("store.get_ns", per(get_ns, gets));
  report->Set("replica_cache.install_ns", per(install_ns, installs));
}

void MeasureWalCalls(int64_t records, const std::string& path,
                     LayerReport* report, Checker* check) {
  std::remove(path.c_str());
  auto wal = mobrep::WriteAheadLog::Open(path);
  if (!wal.ok()) {
    check->Expect(false, "cannot open " + path);
    return;
  }
  std::vector<mobrep::VersionedValue> values;
  values.reserve(static_cast<size_t>(records));
  for (int64_t i = 0; i < records; ++i) {
    values.push_back({mobrep::StrFormat("v%lld", static_cast<long long>(i)),
                      static_cast<uint64_t>(i + 1)});
  }
  bool ok = true;
  int64_t start = NowNs();
  for (const mobrep::VersionedValue& v : values) {
    ok = wal->AppendPut("x", v).ok() && ok;
  }
  const int64_t append_ns = NowNs() - start;
  wal->Close();
  start = NowNs();
  const auto recovered = mobrep::WriteAheadLog::Recover(path);
  const int64_t recover_ns = NowNs() - start;
  std::remove(path.c_str());
  check->Expect(ok && recovered.ok() && recovered->puts_replayed == records,
                "direct WAL replay lost records");
  if (records == 0) return;
  report->Set("wal.append_ns", static_cast<double>(append_ns) /
                                   static_cast<double>(records));
  report->Set("wal.recover_ns_per_record",
              static_cast<double>(recover_ns) / static_cast<double>(records));
}

}  // namespace perfbench
