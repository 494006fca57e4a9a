// paper_serial: ProtocolSimulation::Step on the paper's perfect links.
// Segments cycle ST1, ST2, SW1, SW9, SW101 and T1(3), each with its own
// write share theta, stratified over [0.05, 0.95) per policy. One op is one
// request run to quiescence.

#include <algorithm>
#include <cmath>
#include <vector>

#include "mobrep/analysis/expected_cost.h"
#include "mobrep/common/check.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/obs/analysis/analyzer.h"
#include "mobrep/obs/trace.h"
#include "mobrep/protocol/protocol_sim.h"
#include "mobrep/trace/generators.h"
#include "stacks.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using mobrep::Op;
using mobrep::PolicyKind;
using mobrep::PolicySpec;

constexpr double kOmega = 0.5;
constexpr int64_t kSegmentLength = 8192;
constexpr int kSegmentsPerPolicy = 8;
// Batch-means standard error of the per-request cost: 32 batches of 256.
constexpr int kBatches = 32;
// Allowed |measured - EXP| per request: an absolute floor covering the
// policy's start-up transient plus six batch-means standard errors.
constexpr double kExpFloor = 0.05;
constexpr double kExpSigmas = 6.0;

const PolicySpec kRoster[] = {
    {PolicyKind::kSt1, 0}, {PolicyKind::kSt2, 0}, {PolicyKind::kSw1, 1},
    {PolicyKind::kSw, 9},  {PolicyKind::kSw, 101}, {PolicyKind::kT1, 3},
};

struct Segment {
  PolicySpec spec;
  double theta = 0.0;
  mobrep::Schedule schedule;
  // Expected outputs, from the core cost model on the same schedule.
  int64_t data_messages = 0;
  int64_t control_messages = 0;
  int64_t connections = 0;
  double exp_cost = 0.0;   // analysis/ closed form per request
  double tolerance = 0.0;  // allowed |measured - exp_cost|
};

class PaperSerial : public Workload {
 public:
  explicit PaperSerial(const BenchConfig& config) : config_(config) {}

  void Setup() override {
    segments_.clear();
    mobrep::Rng rng(DeriveSeed(config_.seed, 0x5e41a1));
    const mobrep::CostModel model = mobrep::CostModel::Message(kOmega);
    const int n = kSegmentsPerPolicy * static_cast<int>(std::size(kRoster));
    segments_.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      Segment& seg = segments_[static_cast<size_t>(s)];
      seg.spec = kRoster[s % std::size(kRoster)];
      seg.theta = Stratified(s / static_cast<int>(std::size(kRoster)),
                             kSegmentsPerPolicy, 0.05, 0.95,
                             rng.NextDouble());
      seg.schedule =
          mobrep::GenerateBernoulliSchedule(kSegmentLength, seg.theta, &rng);
      Oracle(&seg, model);
    }
    // Warm-up: one segment per policy through the real harness.
    for (size_t s = 0; s < std::size(kRoster); ++s) {
      mobrep::ProtocolSimulation sim(ConfigFor(segments_[s]));
      sim.Run(segments_[s].schedule);
      MOBREP_CHECK_MSG(Matches(segments_[s], sim.metrics()).empty(),
                       "paper_serial warm-up disagrees with the cost model");
    }
  }

  void RunRound(TimedContext* ctx) override {
    for (const Segment& seg : segments_) {
      mobrep::ProtocolSimulation sim(ConfigFor(seg));
      for (const Op op : seg.schedule) {
        ctx->TimeOp(
            [&] {
              sim.Step(op);
              return true;
            },
            "paper_serial step");
      }
      ctx->Unmeasured([&] { Verify(seg, sim.metrics(), &ctx->check); });
    }
  }

  // Sums over the segments, plus a digest of every segment's counters.
  std::string Deterministic() const override {
    int64_t requests = 0, data = 0, control = 0, connections = 0;
    Digest digest;
    for (const Segment& seg : segments_) {
      requests += static_cast<int64_t>(seg.schedule.size());
      data += seg.data_messages;
      control += seg.control_messages;
      connections += seg.connections;
      for (const int64_t v : {static_cast<int64_t>(seg.schedule.size()),
                              seg.data_messages, seg.control_messages,
                              seg.connections}) {
        digest.Add(v);
      }
    }
    return mobrep::StrFormat(
        "segments=%zu requests=%lld data=%lld control=%lld connections=%lld "
        "digest=%016llx",
        segments_.size(), static_cast<long long>(requests),
        static_cast<long long>(data), static_cast<long long>(control),
        static_cast<long long>(connections),
        static_cast<unsigned long long>(digest.value()));
  }

  void RunTraced(double seconds, TimedContext* ctx,
                 LayerReport* report) override;

 private:
  static mobrep::ProtocolConfig ConfigFor(const Segment& seg) {
    mobrep::ProtocolConfig config;
    config.spec = seg.spec;
    return config;
  }

  static void Oracle(Segment* seg, const mobrep::CostModel& model) {
    auto policy = mobrep::CreatePolicy(seg->spec);
    mobrep::CostMeter meter(policy.get(), &model);
    const int64_t per_batch = kSegmentLength / kBatches;
    std::vector<double> batch_means;
    double batch = 0.0;
    for (int64_t i = 0; i < kSegmentLength; ++i) {
      batch += meter.OnRequest(seg->schedule[static_cast<size_t>(i)]);
      if ((i + 1) % per_batch == 0) {
        batch_means.push_back(batch / static_cast<double>(per_batch));
        batch = 0.0;
      }
    }
    const mobrep::CostBreakdown& b = meter.breakdown();
    seg->data_messages = b.data_messages;
    seg->control_messages = b.control_messages;
    seg->connections = b.connections;
    double mean = 0.0;
    for (const double m : batch_means) mean += m;
    mean /= static_cast<double>(batch_means.size());
    double var = 0.0;
    for (const double m : batch_means) var += (m - mean) * (m - mean);
    var /= static_cast<double>(batch_means.size() - 1);
    const double se = std::sqrt(var / static_cast<double>(batch_means.size()));
    seg->exp_cost = *mobrep::ExpectedCost(seg->spec, model, seg->theta);
    seg->tolerance = kExpFloor + kExpSigmas * se;
  }

  static std::string Matches(const Segment& seg,
                             const mobrep::ProtocolMetrics& m) {
    std::string diff;
    const auto cmp = [&](const char* what, int64_t got, int64_t want) {
      if (got != want) {
        diff += mobrep::StrFormat(" %s %lld/%lld", what,
                                  static_cast<long long>(got),
                                  static_cast<long long>(want));
      }
    };
    cmp("requests", m.requests, static_cast<int64_t>(seg.schedule.size()));
    cmp("data", m.data_messages, seg.data_messages);
    cmp("control", m.control_messages, seg.control_messages);
    cmp("connections", m.connections, seg.connections);
    return diff;
  }

  static void Verify(const Segment& seg, const mobrep::ProtocolMetrics& m,
                     Checker* check) {
    const std::string diff = Matches(seg, m);
    if (!diff.empty()) {
      check->Expect(false, seg.spec.ToString() +
                               " protocol counters vs cost model:" + diff);
    }
    const double measured =
        m.PriceUnder(mobrep::CostModel::Message(kOmega)) /
        static_cast<double>(m.requests);
    if (std::fabs(measured - seg.exp_cost) > seg.tolerance) {
      check->Expect(false, mobrep::StrFormat(
                               "%s theta=%.3f cost/request %.4f vs EXP %.4f "
                               "(tolerance %.4f)",
                               seg.spec.ToString().c_str(), seg.theta,
                               measured, seg.exp_cost, seg.tolerance));
    }
  }

  BenchConfig config_;
  std::vector<Segment> segments_;
};

void PaperSerial::RunTraced(double seconds, TimedContext* ctx,
                            LayerReport* report) {
  // 1 + 2. The benchmark's own stack with spans off, then with a span
  // around every hop. Both must reproduce the cost model's counters, and
  // the traced pass must execute as many events as the untraced one.
  std::vector<int64_t> segment_events(segments_.size(), -1);
  int64_t messages = 0, events = 0;
  size_t peak_pending = 0;
  uint64_t request = 0;
  const PassResult passes = RunTracedPasses(
      seconds * 0.6, 1, ctx, report, [&](bool traced, size_t unit) {
        const Segment& seg = segments_[unit % segments_.size()];
        PairStack stack(ConfigFor(seg));
        for (const Op op : seg.schedule) {
          if (traced) {
            Tracer::Get().set_request(++request);
            SpanGuard span(kSpanOp);
            stack.Step(op);
          } else {
            stack.Step(op);
          }
          ctx->ops.Record(true, "");
        }
        ctx->Unmeasured([&] {
          const WireCounters c = stack.counters();
          ctx->check.Expect(c.data_messages == seg.data_messages &&
                                c.control_messages == seg.control_messages &&
                                c.connections == seg.connections,
                            "own stack disagrees with the cost model: " +
                                c.ToString());
          int64_t& seen = segment_events[unit % segments_.size()];
          if (!traced) {
            seen = stack.queue().executed();
            messages += c.data_messages + c.control_messages;
          } else {
            ctx->check.Expect(seen < 0 || seen == stack.queue().executed(),
                              "traced stack executed a different event "
                              "count");
            events += stack.queue().executed();
            peak_pending =
                std::max(peak_pending, stack.queue().peak_pending());
          }
        });
        return static_cast<int64_t>(seg.schedule.size());
      });
  ReportAllocs(passes, report);
  ReportSpanLayerTimes(report);
  ReportSelfTimeBreakdown(report);
  report->Set("channel.msgs_per_request",
              Ratio(static_cast<double>(messages),
                    static_cast<double>(passes.ops[0])));
  report->Set("event_queue.events_per_request",
              Ratio(static_cast<double>(events),
                    static_cast<double>(passes.ops[1])));
  report->Set("event_queue.peak_pending", static_cast<double>(peak_pending));

  // 3. Direct calls on the run's own streams: policy decisions and the
  // store/cache calls the protocol makes.
  {
    const mobrep::CostModel model = mobrep::CostModel::Message(kOmega);
    int64_t decisions = 0;
    int64_t writes = 0, reads = 0, allocations = 0;
    double sink = 0.0;
    const int64_t start = NowNs();
    for (const Segment& seg : segments_) {
      auto policy = mobrep::CreatePolicy(seg.spec);
      mobrep::CostMeter meter(policy.get(), &model);
      for (const Op op : seg.schedule) sink += meter.OnRequest(op);
      decisions += static_cast<int64_t>(seg.schedule.size());
      writes += meter.breakdown().writes;
      reads += meter.breakdown().reads;
      allocations += meter.breakdown().allocations;
    }
    DoNotOptimize(sink);
    report->Set("core.policy_decision_ns",
                Ratio(static_cast<double>(NowNs() - start),
                      static_cast<double>(decisions)));
    MeasureStoreCalls(writes, reads, allocations, report);
  }

  // 4. Program tracing (MOBREP_TRACE) on vs off through ProtocolSimulation,
  // alternating so drift hits both sides alike.
  {
    namespace obs = mobrep::obs;
    std::vector<double> off_rates, on_rates;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool on : {false, true}) {
        obs::TraceRecorder::Global()->Clear();
        obs::TraceRecorder::SetRuntimeEnabled(on);
        int64_t ops = 0;
        const int64_t start = NowNs();
        for (size_t s = 0; s < std::size(kRoster); ++s) {
          mobrep::ProtocolSimulation sim(ConfigFor(segments_[s]));
          sim.Run(segments_[s].schedule);
          ops += static_cast<int64_t>(segments_[s].schedule.size());
        }
        const double rate =
            static_cast<double>(ops) / static_cast<double>(NowNs() - start);
        (on ? on_rates : off_rates).push_back(rate);
      }
    }
    report->Set("obs.trace_overhead_pct",
                100.0 * (Median(off_rates) / Median(on_rates) - 1.0));

    // Events per request and analyzer cost on one segment's trace.
    obs::TraceRecorder::Global()->Clear();
    obs::TraceRecorder::SetRuntimeEnabled(true);
    const Segment& seg = segments_[3];  // SW9: transfers in both directions
    {
      mobrep::ProtocolSimulation sim(ConfigFor(seg));
      sim.Run(seg.schedule);
    }
    obs::TraceRecorder::SetRuntimeEnabled(false);
    const std::vector<obs::TraceEvent> trace =
        obs::TraceRecorder::Global()->MergedEvents();
    obs::TraceRecorder::Global()->Clear();
    report->Set("obs.trace_events_per_request",
                static_cast<double>(trace.size()) /
                    static_cast<double>(seg.schedule.size()));
    const int64_t start = NowNs();
    const obs::analysis::AnalysisReport analysis =
        obs::analysis::AnalyzeTrace(trace);
    report->Set("obs.analyze_ns_per_event",
                Ratio(static_cast<double>(NowNs() - start),
                      static_cast<double>(trace.size())));
    ctx->check.Expect(analysis.clean(),
                      "analyzer found errors in a fault-free trace");
  }
}

}  // namespace

std::unique_ptr<Workload> MakePaperSerial(const BenchConfig& config) {
  return std::make_unique<PaperSerial>(config);
}

}  // namespace perfbench
