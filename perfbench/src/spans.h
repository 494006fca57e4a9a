#ifndef MOBREP_PERFBENCH_SPANS_H_
#define MOBREP_PERFBENCH_SPANS_H_

// The benchmark's own spans. They are opened by benchmark code around calls
// into each layer's public functions (never inside the program), kept in
// memory, and written at exit as a Chrome trace-event file.

#include <cstdint>
#include <string>

#include "bench_stats.h"

namespace perfbench {

enum SpanKind : int {
  kSpanOp = 0,            // one timed op of the workload (the root)
  kSpanRunNext,           // EventQueue::RunNext
  kSpanChannelSend,       // Channel::Send / FaultyChannel::Send
  kSpanFaultTransmit,     // FaultyChannel::Transmit (fault decision)
  kSpanArqSend,           // ReliableLink::Send
  kSpanArqHandleFrame,    // ReliableLink::HandleFrame
  kSpanMcHandle,          // MobileClient::HandleMessage
  kSpanScHandle,          // StationaryServer::HandleMessage
  kSpanIssueRead,         // MobileClient::IssueRead
  kSpanIssueWrite,        // StationaryServer::IssueWrite
  kSpanCommittedWrite,    // StationaryServer::OnCommittedWrite
  kSpanStorePut,          // VersionedStore::Put (multi-client commit)
  kSpanGenerate,          // trace/ generators
  kSpanBatchPrice,        // SimulateScheduleBatch
  kSpanOfflineDp,         // OfflineOptimalCost
  kSpanClosedForm,        // analysis/ closed forms
  kSpanCrashRun,          // CrashableSimulation::Run (one armed run)
  kSpanPartitionRun,      // PartitionedSimulation::Run
  kNumSpanKinds,
};

const char* SpanName(int kind);
const char* SpanLayer(int kind);

// Process-wide span recorder. Disabled, a span costs one branch.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_request(uint64_t request) { request_ = request; }
  uint64_t request() const { return request_; }
  SpanLedger& ledger() { return ledger_; }

 private:
  Tracer();
  bool enabled_ = false;
  uint64_t request_ = 0;
  SpanLedger ledger_;
};

class SpanGuard {
 public:
  explicit SpanGuard(int kind) : active_(Tracer::Get().enabled()) {
    if (active_) {
      Tracer& t = Tracer::Get();
      t.ledger().Begin(kind, t.request(), NowNs());
    }
  }
  ~SpanGuard() {
    if (active_) Tracer::Get().ledger().End(NowNs());
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  bool active_;
};

// Writes the kept spans as Chrome trace-event JSON ("X" complete events,
// one process and thread, timestamps in microseconds from the first span).
// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const SpanLedger& ledger);

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_SPANS_H_
