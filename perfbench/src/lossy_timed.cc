// lossy_timed: ProtocolSimulation::RunTimed on fixed-size bursts of Poisson
// arrivals over lossy links (~5% drop, ~2% duplication, jitter below the
// link latency) with the SC's write-ahead log on a scratch file. The write
// share varies by segment. One op is one burst run to quiescence.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "ladder.h"
#include "mobrep/common/check.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/protocol/protocol_sim.h"
#include "mobrep/store/write_ahead_log.h"
#include "mobrep/trace/generators.h"
#include "stacks.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using mobrep::PolicyKind;
using mobrep::PolicySpec;
using mobrep::TimedSchedule;

constexpr int kBurstSize = 64;
constexpr int kBurstsPerSegment = 32;
constexpr int kSegmentsPerPolicy = 4;
constexpr double kArrivalRate = 500.0;  // requests per simulated second
constexpr double kBurstGap = 0.005;     // simulated idle time between bursts
constexpr double kLinkLatency = 0.001;

const PolicySpec kRoster[] = {
    {PolicyKind::kSt1, 0}, {PolicyKind::kSt2, 0}, {PolicyKind::kSw1, 1},
    {PolicyKind::kSw, 9},  {PolicyKind::kT1, 3},  {PolicyKind::kT2, 3},
};

mobrep::FaultConfig LossyFaults(uint64_t seed) {
  mobrep::FaultConfig fault;
  fault.drop_probability = 0.05;
  fault.duplicate_probability = 0.02;
  fault.max_jitter = 0.5 * kLinkLatency;
  fault.seed = seed;
  return fault;
}

struct Segment {
  PolicySpec spec;
  double write_share = 0.0;
  uint64_t fault_seed = 0;
  // Arrival times relative to the burst's start.
  std::vector<TimedSchedule> bursts;
  // Expected outputs, recorded by the warm-up run.
  WireCounters counters;
  int64_t wal_records = 0;
};

class LossyTimed : public Workload {
 public:
  explicit LossyTimed(const BenchConfig& config)
      : config_(config), wal_path_(config.out_dir + "/lossy_timed.wal") {}

  ~LossyTimed() override { std::remove(wal_path_.c_str()); }

  void Setup() override {
    segments_.clear();
    mobrep::Rng rng(DeriveSeed(config_.seed, 0x1055));
    const int n = kSegmentsPerPolicy * static_cast<int>(std::size(kRoster));
    segments_.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      Segment& seg = segments_[static_cast<size_t>(s)];
      seg.spec = kRoster[s % std::size(kRoster)];
      seg.write_share =
          Stratified(s / static_cast<int>(std::size(kRoster)),
                     kSegmentsPerPolicy, 0.1, 0.6, rng.NextDouble());
      seg.fault_seed = rng.NextUint64();
      for (int b = 0; b < kBurstsPerSegment; ++b) {
        seg.bursts.push_back(mobrep::GenerateTimedPoisson(
            kBurstSize, kArrivalRate * (1.0 - seg.write_share),
            kArrivalRate * seg.write_share, &rng));
      }
    }
    // Warm-up: every segment once through the real harness; its outputs
    // become the expected values every later run must reproduce.
    for (Segment& seg : segments_) {
      TimedContext scratch;
      const WireCounters c = RunSegment(seg, &scratch, /*timed=*/false);
      MOBREP_CHECK_MSG(scratch.ops.failed() == 0 && scratch.check.ok(),
                       "lossy_timed warm-up failed");
      seg.counters = c;
      seg.wal_records = c.writes + 1;  // + the initial value
    }
  }

  void RunRound(TimedContext* ctx) override {
    for (const Segment& seg : segments_) {
      const WireCounters c = RunSegment(seg, ctx, /*timed=*/true);
      if (!(c == seg.counters)) {
        ctx->check.Expect(false, seg.spec.ToString() + " lossy counters: " +
                                     c.Diff(seg.counters));
      }
    }
  }

  // Sums of the wire counters, plus a digest of all 17 counters and the
  // WAL record count of every segment.
  std::string Deterministic() const override {
    WireCounters sum;
    int64_t wal = 0;
    Digest digest;
    for (const Segment& seg : segments_) {
      sum.requests += seg.counters.requests;
      sum.data_messages += seg.counters.data_messages;
      sum.control_messages += seg.counters.control_messages;
      sum.connections += seg.counters.connections;
      sum.retransmissions += seg.counters.retransmissions;
      sum.acks += seg.counters.acks;
      sum.injected_drops += seg.counters.injected_drops;
      sum.injected_duplicates += seg.counters.injected_duplicates;
      wal += seg.wal_records;
      for (const int64_t v : seg.counters.Values()) digest.Add(v);
      digest.Add(seg.wal_records);
    }
    return mobrep::StrFormat("segments=%zu %s wal_appends=%lld digest=%016llx",
                             segments_.size(), sum.ToString().c_str(),
                             static_cast<long long>(wal),
                             static_cast<unsigned long long>(digest.value()));
  }

  void RunTraced(double seconds, TimedContext* ctx,
                 LayerReport* report) override;

 private:
  mobrep::ProtocolConfig ConfigFor(const Segment& seg) const {
    mobrep::ProtocolConfig config;
    config.spec = seg.spec;
    config.link_latency = kLinkLatency;
    config.fault = LossyFaults(seg.fault_seed);
    config.wal_path = wal_path_;
    return config;
  }

  static TimedSchedule Shifted(const TimedSchedule& burst, double start) {
    TimedSchedule out = burst;
    for (mobrep::TimedRequest& r : out) r.time += start;
    return out;
  }

  // Runs one segment on a fresh ProtocolSimulation and returns its
  // counters. Each burst is one op; a non-OK status or an ARQ give-up
  // fails it. The log must then replay every committed write.
  WireCounters RunSegment(const Segment& seg, TimedContext* ctx,
                          bool timed) const {
    std::remove(wal_path_.c_str());
    WireCounters counters;
    {
      mobrep::ProtocolSimulation sim(ConfigFor(seg));
      for (const TimedSchedule& burst : seg.bursts) {
        const TimedSchedule shifted = Shifted(burst, sim.now() + kBurstGap);
        const auto op = [&] {
          return sim.RunTimed(shifted).ok() &&
                 sim.mc_link()->give_ups() + sim.sc_link()->give_ups() == 0;
        };
        if (timed) {
          ctx->TimeOp(op, "lossy_timed burst");
        } else {
          ctx->ops.Record(op(), "lossy_timed burst");
        }
      }
      counters = CountersOf(sim.metrics());
      ctx->Unmeasured([&] {
        const auto recovered = mobrep::WriteAheadLog::Recover(wal_path_);
        ctx->check.Expect(
            recovered.ok() && recovered->clean() &&
                recovered->puts_replayed == counters.writes + 1 &&
                *recovered->store.Get("x") == *sim.store().Get("x"),
            "the WAL does not replay every committed write");
      });
    }
    return counters;
  }

  BenchConfig config_;
  std::string wal_path_;
  std::vector<Segment> segments_;
};

void LossyTimed::RunTraced(double seconds, TimedContext* ctx,
                           LayerReport* report) {
  // 1 + 2. The benchmark's own stack, spans off then on. Both must give
  // exactly the counters of the untraced ProtocolSimulation run, and the
  // traced pass as many events as the untraced one.
  int64_t requests = 0, events = 0, frames = 0, drops = 0, delivered = 0,
          attempts = 0, retransmissions = 0, wal_appends = 0, writes = 0,
          reads = 0, allocations = 0, paper_messages = 0;
  size_t peak_pending = 0;
  std::vector<int64_t> segment_events(segments_.size(), -1);
  uint64_t burst_id = 0;
  const PassResult passes = RunTracedPasses(
      seconds * 0.6, 1, ctx, report, [&](bool traced, size_t unit) {
        const Segment& seg = segments_[unit % segments_.size()];
        std::remove(wal_path_.c_str());
        PairStack stack(ConfigFor(seg));
        for (const TimedSchedule& burst : seg.bursts) {
          const TimedSchedule shifted =
              Shifted(burst, stack.now() + kBurstGap);
          Tracer::Get().set_request(++burst_id);
          SpanGuard span(kSpanOp);
          ctx->ops.Record(
              stack.RunTimed(shifted).ok() && stack.arq_give_ups() == 0,
              "own-stack burst");
        }
        const WireCounters c = stack.counters();
        ctx->Unmeasured([&] {
          const std::string diff = c.Diff(seg.counters);
          ctx->check.Expect(diff.empty(),
                            std::string(traced ? "traced" : "untraced") +
                                " own stack vs ProtocolSimulation: " + diff);
          int64_t& seen = segment_events[unit % segments_.size()];
          if (!traced) {
            seen = stack.queue().executed();
            return;
          }
          ctx->check.Expect(seen < 0 || seen == stack.queue().executed(),
                            "traced stack executed a different event count");
          requests += c.requests;
          paper_messages += c.data_messages + c.control_messages;
          events += stack.queue().executed();
          peak_pending = std::max(peak_pending, stack.queue().peak_pending());
          frames += stack.frames_transmitted();
          drops += c.injected_drops;
          delivered += stack.arq_delivered();
          attempts += stack.arq_attempts();
          retransmissions += c.retransmissions;
          wal_appends += stack.wal_appends();
          writes += c.writes;
          reads += c.requests - c.writes;
          allocations += c.allocations;
        });
        return c.requests;
      });
  std::remove(wal_path_.c_str());
  ReportAllocs(passes, report);
  ReportSpanLayerTimes(report);
  ReportSelfTimeBreakdown(report);
  const auto per = [](int64_t a, int64_t b) {
    return Ratio(static_cast<double>(a), static_cast<double>(b));
  };
  const SpanLedger& ledger = Tracer::Get().ledger();
  // Every event is a frame delivery (one HandleFrame span), a request
  // arrival, or an ARQ timer.
  const int64_t timer_events =
      events - ledger.count(kSpanArqHandleFrame) - requests;
  report->Set("event_queue.events_per_request", per(events, requests));
  report->Set("channel.msgs_per_request", per(paper_messages, requests));
  report->Set("event_queue.peak_pending", static_cast<double>(peak_pending));
  report->Set("fault_model.drops_per_msg", per(drops, frames));
  report->Set("reliable_link.retransmits_per_delivered",
              per(retransmissions, delivered));
  report->Set("reliable_link.useful_ratio", per(delivered, attempts));
  report->Set("reliable_link.timer_events_per_request",
              per(timer_events, requests));
  report->Set("wal.appends_per_request", per(wal_appends, requests));

  // 3. WAL append and recovery, by direct calls on the run's own record
  // stream (one put per committed write of one pass over the segments).
  {
    int64_t records = 0;
    for (const Segment& seg : segments_) records += seg.counters.writes;
    MeasureWalCalls(records, config_.out_dir + "/lossy_timed_direct.wal",
                    report, &ctx->check);
  }

  // 4. Store/cache calls and policy decisions on the run's streams.
  MeasureStoreCalls(writes, reads, allocations, report);
  {
    const mobrep::CostModel model = mobrep::CostModel::Message(0.5);
    int64_t decisions = 0;
    double sink = 0.0;
    const int64_t start = NowNs();
    for (const Segment& seg : segments_) {
      auto policy = mobrep::CreatePolicy(seg.spec);
      mobrep::CostMeter meter(policy.get(), &model);
      for (const TimedSchedule& burst : seg.bursts) {
        for (const mobrep::TimedRequest& r : burst) {
          sink += meter.OnRequest(r.op);
        }
        decisions += static_cast<int64_t>(burst.size());
      }
    }
    DoNotOptimize(sink);
    report->Set("core.policy_decision_ns", per(NowNs() - start, decisions));
  }

  // 5. The layer ladder on this workload's fault model.
  const LadderResult ladder = RunLadder(DeriveSeed(config_.seed, 0x1adde7),
                                        20000, LossyFaults(config_.seed), 5);
  report->Set("ladder.queue_ns_per_msg", ladder.queue_ns);
  report->Set("ladder.channel_ns_per_msg", ladder.channel_ns);
  report->Set("ladder.faulty_ns_per_msg", ladder.faulty_ns);
  report->Set("ladder.reliable_ns_per_msg", ladder.reliable_ns);
  report->Set("ladder.channel_delta_ns", ladder.channel_ns - ladder.queue_ns);
  report->Set("ladder.faulty_delta_ns", ladder.faulty_ns - ladder.channel_ns);
  report->Set("ladder.reliable_delta_ns",
              ladder.reliable_ns - ladder.faulty_ns);
  report->notes.push_back(mobrep::StrFormat(
      "layer ladder (ns/message; delta = this rung minus the one below; "
      "traced self time of the same layer alongside):"));
  report->notes.push_back(mobrep::StrFormat(
      "  queue only        %8.1f                    event_queue.run_next "
      "self %8.1f",
      ladder.queue_ns, SelfNsPerCall(kSpanRunNext)));
  report->notes.push_back(mobrep::StrFormat(
      "  + Channel         %8.1f  delta %8.1f     channel.send self %8.1f",
      ladder.channel_ns, ladder.channel_ns - ladder.queue_ns,
      SelfNsPerCall(kSpanChannelSend)));
  report->notes.push_back(mobrep::StrFormat(
      "  + FaultyChannel   %8.1f  delta %8.1f     fault_model.transmit self "
      "%8.1f",
      ladder.faulty_ns, ladder.faulty_ns - ladder.channel_ns,
      SelfNsPerCall(kSpanFaultTransmit)));
  report->notes.push_back(mobrep::StrFormat(
      "  + ReliableLink    %8.1f  delta %8.1f     reliable_link send+frame "
      "self %8.1f",
      ladder.reliable_ns, ladder.reliable_ns - ladder.faulty_ns,
      SelfNsPerCall(kSpanArqSend) + SelfNsPerCall(kSpanArqHandleFrame)));
}

}  // namespace

std::unique_ptr<Workload> MakeLossyTimed(const BenchConfig& config) {
  return std::make_unique<LossyTimed>(config);
}

}  // namespace perfbench
