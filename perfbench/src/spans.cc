#include "spans.h"

#include <cstdio>

namespace perfbench {
namespace {

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr KindInfo kKinds[kNumSpanKinds] = {
    {"op", "bench"},
    {"event_queue.run_next", "net.event_queue"},
    {"channel.send", "net.channel"},
    {"fault_model.transmit", "net.fault_model"},
    {"reliable_link.send", "net.reliable_link"},
    {"reliable_link.handle_frame", "net.reliable_link"},
    {"mobile_client.handle_message", "protocol"},
    {"stationary_server.handle_message", "protocol"},
    {"mobile_client.issue_read", "protocol"},
    {"stationary_server.issue_write", "protocol"},
    {"stationary_server.on_committed_write", "protocol"},
    {"versioned_store.put", "store"},
    {"trace.generate", "trace"},
    {"core.simulate_schedule_batch", "core"},
    {"core.offline_optimal_cost", "core"},
    {"analysis.closed_form", "analysis"},
    {"chaos.crashable_run", "chaos"},
    {"chaos.partitioned_run", "chaos"},
};

// Spans kept verbatim for the export; the aggregates see every span.
constexpr size_t kExportCapacity = 20000;

}  // namespace

const char* SpanName(int kind) { return kKinds[kind].name; }
const char* SpanLayer(int kind) { return kKinds[kind].layer; }

Tracer::Tracer() : ledger_(kNumSpanKinds, kExportCapacity) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

bool WriteChromeTrace(const std::string& path, const SpanLedger& ledger) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto& spans = ledger.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"mobrep perfbench\"}},\n"
               "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"main\"}}");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanLedger::Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // still open when exported
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                 "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"span\":%zu,\"parent\":%d,\"request\":%llu}}",
                 SpanName(s.kind), SpanLayer(s.kind),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
