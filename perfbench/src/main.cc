// mobrep_perfbench: runs one benchmark workload and prints its metrics.
//
//   mobrep_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--expected <table>] [--setup-only 1]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics. The last line
// of stdout is one JSON object: correct, attempted, failed, metrics. The
// exit code is 1 when any deterministic output is wrong or any op failed.
// With --expected, the seed's deterministic outputs must also equal the
// row the table pins for (workload, seed), when it has one. --setup-only 1
// prints that row for the seed and exits.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "mobrep/common/strings.h"
#include "mobrep/obs/trace.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the two agree).
const MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},    {"op_p50_us", "us"},
    {"op_p99_us", "us"},       {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"event_queue.dispatch_ns", "ns"},
    {"event_queue.events_per_request", "count"},
    {"event_queue.peak_pending", "count"},
    {"channel.send_ns", "ns"},
    {"channel.msgs_per_request", "count"},
    {"message_pool.fresh_allocs_per_msg", "ratio"},
    {"alloc.heap_per_request", "count"},
    {"fault_model.transmit_ns", "ns"},
    {"fault_model.drops_per_msg", "ratio"},
    {"reliable_link.send_ns", "ns"},
    {"reliable_link.handle_frame_ns", "ns"},
    {"reliable_link.retransmits_per_delivered", "ratio"},
    {"reliable_link.useful_ratio", "ratio"},
    {"reliable_link.timer_events_per_request", "count"},
    {"protocol.mc_handle_ns", "ns"},
    {"protocol.sc_handle_ns", "ns"},
    {"protocol.issue_read_ns", "ns"},
    {"protocol.issue_write_ns", "ns"},
    {"protocol.committed_write_ns_per_client", "ns"},
    {"protocol.fanout_per_write", "count"},
    {"core.policy_decision_ns", "ns"},
    {"core.batch_price_ns_per_request", "ns"},
    {"core.offline_dp_ns_per_request", "ns"},
    {"trace.gen_ns_per_request", "ns"},
    {"analysis.closed_form_ns", "ns"},
    {"store.put_ns", "ns"},
    {"store.get_ns", "ns"},
    {"replica_cache.install_ns", "ns"},
    {"wal.append_ns", "ns"},
    {"wal.appends_per_request", "count"},
    {"wal.recover_ns_per_record", "ns"},
    {"chaos.armed_runs_per_cell", "count"},
    {"chaos.ns_per_armed_run", "ns"},
    {"chaos.snapshot_codec_ns", "ns"},
    {"chaos.partition_run_ns", "ns"},
    {"lease.msgs_per_partition_run", "count"},
    {"failure_detector.heartbeats_per_run", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_events_per_request", "count"},
    {"obs.analyze_ns_per_event", "ns"},
    {"bench.span_overhead_pct", "%"},
    {"bench.traced_op_ns", "ns"},
    {"bench.unattributed_pct", "%"},
    {"ladder.queue_ns_per_msg", "ns"},
    {"ladder.channel_ns_per_msg", "ns"},
    {"ladder.faulty_ns_per_msg", "ns"},
    {"ladder.reliable_ns_per_msg", "ns"},
    {"ladder.channel_delta_ns", "ns"},
    {"ladder.faulty_delta_ns", "ns"},
    {"ladder.reliable_delta_ns", "ns"},
};

constexpr int kSetupRepeats = 5;
constexpr int64_t kMinWindowOps = 1000;

const std::map<std::string, std::function<std::unique_ptr<Workload>(
                                const BenchConfig&)>>&
Factories() {
  static const auto* factories =
      new std::map<std::string, std::function<std::unique_ptr<Workload>(
                                    const BenchConfig&)>>{
          {"paper_serial", MakePaperSerial},
          {"lossy_timed", MakeLossyTimed},
          {"fanout_multi", MakeFanoutMulti},
          {"cost_sweep", MakeCostSweep},
          {"chaos_matrix", MakeChaosMatrix},
      };
  return *factories;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return mobrep::StrFormat("%.17g", v);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string json = mobrep::StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += mobrep::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                              i == 0 ? "" : ", ", metrics[i].first.name,
                              JsonNumber(metrics[i].second).c_str(),
                              metrics[i].first.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintProblems(const TimedContext& ctx) {
  for (const std::string& why : ctx.ops.reasons()) {
    std::printf("FAILED OP: %s\n", why.c_str());
  }
  for (const std::string& why : ctx.check.reasons()) {
    std::printf("MISMATCH: %s\n", why.c_str());
  }
}

// Prints the seed's deterministic outputs and checks them against the
// pinned table of "<workload> <seed> <line>" rows, when it has the seed;
// other seeds are checked only against the warm-up and the oracles.
void CheckPinned(const std::string& deterministic, const BenchConfig& config,
                 const std::string& name, Checker* check) {
  std::printf("deterministic: %s\n", deterministic.c_str());
  if (config.expected_table.empty()) return;
  std::ifstream table(config.expected_table);
  if (!table) {
    check->Expect(false, "cannot read " + config.expected_table);
    return;
  }
  const std::string prefix = name + " " + std::to_string(config.seed) + " ";
  std::string line;
  while (std::getline(table, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string want = line.substr(prefix.size());
    check->Expect(deterministic == want,
                  "deterministic outputs differ from the pinned values: " +
                      want);
    std::printf("deterministic outputs: %s the pinned values\n",
                deterministic == want ? "equal" : "DIFFER FROM");
    return;
  }
  std::printf("deterministic outputs: seed %llu not pinned in %s\n",
              static_cast<unsigned long long>(config.seed),
              config.expected_table.c_str());
}

int RunEndToEnd(Workload* workload, const BenchConfig& config,
                const std::string& name) {
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    workload->Setup();
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  TimedContext ctx;
  CheckPinned(workload->Deterministic(), config, name, &ctx.check);

  // The timed phase is cut into windows: whole rounds, closed once they
  // hold at least kMinWindowOps ops, so each window's p99 has at least 10
  // samples beyond it. Every metric is a median over windows, which keeps
  // bursts of interference on a shared host (a round running at half
  // speed) out of the figures. Host time the benchmark spends checking
  // outputs is taken out of each window's duration.
  LatencyHistogram run_ns;  // every op of the timed phase, for diagnosis
  std::vector<double> rates, p50s, p99s;
  int64_t min_window_ops = 0;
  const int64_t phase_start = NowNs();
  const auto budget = static_cast<int64_t>(config.seconds * 1e9);
  int64_t window_start = phase_start;
  int64_t window_unmeasured = 0;
  for (;;) {
    workload->RunRound(&ctx);
    const int64_t n = ctx.window_ns.count();
    if (n < kMinWindowOps) continue;
    const int64_t now = NowNs();
    rates.push_back(static_cast<double>(n) * 1e9 /
                    static_cast<double>(now - window_start -
                                        (ctx.unmeasured_ns -
                                         window_unmeasured)));
    p50s.push_back(ctx.window_ns.Quantile(0.5));
    p99s.push_back(ctx.window_ns.Quantile(0.99));
    min_window_ops = min_window_ops == 0 ? n : std::min(min_window_ops, n);
    run_ns.Merge(ctx.window_ns);
    ctx.window_ns.Clear();
    if (now - phase_start >= budget) break;
    window_start = NowNs();
    window_unmeasured = ctx.unmeasured_ns;
  }
  const double phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;

  const int64_t samples = run_ns.count();
  const std::vector<std::pair<MetricDef, double>> metrics = {
      {kEndToEnd[0], Median(rates)},
      {kEndToEnd[1], Median(p50s) / 1e3},
      {kEndToEnd[2], Median(p99s) / 1e3},
      {kEndToEnd[3], Median(setups)},
      {kEndToEnd[4], PeakRssMiB()},
  };
  std::printf("timed phase: %.3f s, %zu windows of >= %lld ops, %lld ops "
              "(%.1f ops/s over the whole phase)\n",
              phase_s, rates.size(), static_cast<long long>(min_window_ops),
              static_cast<long long>(samples),
              static_cast<double>(samples) / phase_s);
  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  std::printf("window rates (ops/s): min %.1f, p10 %.1f, p50 %.1f, p90 %.1f, "
              "max %.1f\n",
              sorted.front(), sorted[sorted.size() / 10],
              sorted[sorted.size() / 2], sorted[sorted.size() * 9 / 10],
              sorted.back());
  for (const auto& [def, value] : metrics) {
    std::printf("%-22s %16.6f %s\n", def.name, value, def.unit);
  }
  std::printf("%-22s %16lld ops per window at least, %lld beyond p99 there\n",
              "  op_p99_us n", static_cast<long long>(min_window_ops),
              static_cast<long long>(SamplesBeyond(min_window_ops, 0.99)));
  std::printf("whole-run op times (us): p50 %.3f, p90 %.3f, p99 %.3f, "
              "p99.5 %.3f, max-bin %.3f over %lld ops\n",
              run_ns.Quantile(0.5) / 1e3, run_ns.Quantile(0.9) / 1e3,
              run_ns.Quantile(0.99) / 1e3, run_ns.Quantile(0.995) / 1e3,
              run_ns.Quantile(1.0) / 1e3, static_cast<long long>(samples));
  std::printf("benchmark-side checks: %.3f s, left out of ops_per_s\n",
              static_cast<double>(ctx.unmeasured_ns) / 1e9);
  std::printf("%-22s %16.6f ratio (%lld of %lld ops)\n", "failed_op_ratio",
              ctx.ops.failed_ratio(), static_cast<long long>(ctx.ops.failed()),
              static_cast<long long>(ctx.ops.attempted()));
  PrintProblems(ctx);
  const bool correct = ctx.check.ok() && ctx.ops.failed() == 0;
  PrintResult(correct, ctx.ops.attempted(), ctx.ops.failed(), metrics);
  return correct ? 0 : 1;
}

int RunTracedMode(Workload* workload, const BenchConfig& config,
                  const std::string& name) {
  workload->Setup();
  TimedContext ctx;
  CheckPinned(workload->Deterministic(), config, name, &ctx.check);
  LayerReport report;
  workload->RunTraced(config.seconds, &ctx, &report);

  std::set<std::string> known;
  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& def : kPerLayer) {
    known.insert(def.name);
    const auto it = report.values.find(def.name);
    metrics.push_back({def, it == report.values.end() ? 0.0 : it->second});
  }
  for (const auto& [metric, value] : report.values) {
    ctx.check.Expect(known.count(metric) == 1,
                     "workload reported an undeclared metric " + metric);
  }
  std::printf("traced run: spans slow the own stack by %.1f%% "
              "(bench.span_overhead_pct); these are per-layer figures, "
              "use --trace 0 for end-to-end numbers\n",
              report.values.count("bench.span_overhead_pct") == 1
                  ? report.values.at("bench.span_overhead_pct")
                  : 0.0);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const auto& [def, value] : metrics) {
    std::printf("%-42s %16.4f %s\n", def.name, value, def.unit);
  }
  const std::string spans = config.out_dir + "/spans_" + name + ".json";
  if (WriteChromeTrace(spans, Tracer::Get().ledger())) {
    std::printf("spans written to %s (%zu kept, %lld aggregated only)\n",
                spans.c_str(), Tracer::Get().ledger().spans().size(),
                static_cast<long long>(Tracer::Get().ledger().unexported()));
  } else {
    ctx.check.Expect(false, "cannot write " + spans);
  }
  PrintProblems(ctx);
  if (ctx.ops.attempted() == 0) ctx.ops.Attempt();
  const bool correct = ctx.check.ok() && ctx.ops.failed() == 0;
  PrintResult(correct, ctx.ops.attempted(), ctx.ops.failed(), metrics);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mobrep_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--expected <table>] [--setup-only 1]\n");
  return 2;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  std::string workload_name;
  int trace = 0;
  bool setup_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--expected") {
      config.expected_table = value;
    } else if (flag == "--setup-only") {
      setup_only = std::atoi(value) == 1;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const auto it = Factories().find(workload_name);
  if (it == Factories().end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return Usage();
  }
  ::mkdir(config.out_dir.c_str(), 0755);
  // End-to-end numbers are always taken with program tracing off, whatever
  // MOBREP_TRACE says.
  mobrep::obs::TraceRecorder::SetRuntimeEnabled(false);
  std::unique_ptr<Workload> workload = it->second(config);
  if (setup_only) {
    // One set-up, then the line a pinned table holds for this seed.
    workload->Setup();
    std::printf("%s %llu %s\n", workload_name.c_str(),
                static_cast<unsigned long long>(config.seed),
                workload->Deterministic().c_str());
    return 0;
  }
  return trace == 0
             ? RunEndToEnd(workload.get(), config, workload_name)
             : RunTracedMode(workload.get(), config, workload_name);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
