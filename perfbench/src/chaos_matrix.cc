// chaos_matrix: crash-point exploration and partitions. Set-up runs
// ExploreCrashPoints on 12 crash cells (every policy, clean and over a
// lossy link, each on a seeded ordering of 6 reads and 6 writes). The timed
// phase unrolls the explorer's loop: one op is one armed CrashableSimulation
// run at one crash point, and each cell's totals must equal the explorer's
// report. After each crash cell come 9 PartitionedSimulation::Run ops from
// the full policy x shape x duration x onset grid (never-heal included).
// This is the only workload that reaches chaos/, WAL recovery, snapshots,
// leases and the failure detector.
//
// Why armed runs and not whole cells: a cell takes 5-35 ms depending on its
// schedule, so with cells as ops the median and p99 moved 20% from seed to
// seed. Armed runs and partition runs both take ~0.2-0.3 ms, and a round
// holds ~1000 of them.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "mobrep/chaos/crash_explorer.h"
#include "mobrep/chaos/crash_scheduler.h"
#include "mobrep/chaos/crashable_sim.h"
#include "mobrep/chaos/node_snapshot.h"
#include "mobrep/chaos/partitioned_sim.h"
#include "mobrep/common/check.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/core/policy_factory.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using mobrep::PolicyKind;
using mobrep::PolicySpec;

constexpr int kCrashRequests = 12;  // half reads, half writes

const PolicySpec kRoster[] = {
    {PolicyKind::kSt1, 0}, {PolicyKind::kSt2, 0}, {PolicyKind::kSw1, 1},
    {PolicyKind::kSw, 5},  {PolicyKind::kT1, 3},  {PolicyKind::kT2, 3},
};
const mobrep::PartitionShape kShapes[] = {
    mobrep::PartitionShape::kSymmetric, mobrep::PartitionShape::kUplinkOnly,
    mobrep::PartitionShape::kDownlinkOnly};
const double kDurations[] = {0.05, 0.4, -1.0};  // -1: never heals
const double kOnsets[] = {0.2, 0.45};

// What a crash cell's armed runs add up to; ExploreCrashPoints reports the
// same totals.
struct CrashTotals {
  int64_t runs = 0;
  int64_t crashes = 0;
  int64_t recoveries = 0;
  int64_t resyncs = 0;
  int64_t regrants = 0;
  int64_t reissued_reads = 0;
  bool operator==(const CrashTotals&) const = default;
};

// A partition run's deterministic outputs.
struct PartitionOutputs {
  int64_t reads_issued = 0;
  int64_t reads_completed = 0;
  int64_t reclaims = 0;
  int64_t regrants = 0;
  int64_t degraded_probes = 0;
  int64_t abandoned_frames = 0;
  int64_t lease_messages = 0;  // renewals, renew acks, revocations, regrants
  int64_t heartbeats = 0;
  bool operator==(const PartitionOutputs&) const = default;
};

struct CrashCell {
  mobrep::CrashMatrixOptions options;
  int crash_points = 0;
  CrashTotals expected;
};

struct PartitionCell {
  mobrep::PartitionSimConfig config;
  PartitionOutputs expected;
};

class ChaosMatrix : public Workload {
 public:
  explicit ChaosMatrix(const BenchConfig& config)
      : config_(config),
        mc_wal_(config.out_dir + "/chaos_mc.wal"),
        sc_wal_(config.out_dir + "/chaos_sc.wal") {}

  ~ChaosMatrix() override {
    std::remove(mc_wal_.c_str());
    std::remove(sc_wal_.c_str());
  }

  void Setup() override {
    crash_cells_.clear();
    partition_cells_.clear();
    mobrep::Rng rng(DeriveSeed(config_.seed, 0xc4a05));
    for (size_t j = 0; j < 2 * std::size(kRoster); ++j) {
      CrashCell cell;
      mobrep::CrashMatrixOptions& o = cell.options;
      o.sim.spec = kRoster[j % std::size(kRoster)];
      o.sim.mc_wal_path = mc_wal_;
      o.sim.sc_wal_path = sc_wal_;
      if (j >= std::size(kRoster)) {
        o.sim.fault.drop_probability = 0.05;
        o.sim.fault.seed = rng.NextUint64();
      }
      o.schedule.assign(kCrashRequests, mobrep::Op::kRead);
      std::fill(o.schedule.begin() + kCrashRequests / 2, o.schedule.end(),
                mobrep::Op::kWrite);
      Shuffle(&o.schedule, &rng);
      // The program's own explorer gives the expected totals.
      const auto report = mobrep::ExploreCrashPoints(o);
      MOBREP_CHECK_MSG(report.ok() && report->clean(),
                       "chaos_matrix warm-up: crash cell not clean");
      cell.crash_points = static_cast<int>(report->crash_points);
      cell.expected = {report->runs,     report->crashes,
                       report->recoveries, report->resyncs,
                       report->regrants, report->reissued_reads};
      crash_cells_.push_back(std::move(cell));
    }
    for (const PolicySpec& spec : kRoster) {
      for (const mobrep::PartitionShape shape : kShapes) {
        for (const double duration : kDurations) {
          for (const double onset : kOnsets) {
            PartitionCell cell;
            cell.config.spec = spec;
            cell.config.fault.seed = rng.NextUint64();
            cell.config.plan.shape = shape;
            cell.config.plan.start = onset;
            cell.config.plan.duration = duration;
            partition_cells_.push_back(std::move(cell));
          }
        }
      }
    }
    Shuffle(&partition_cells_, &rng);
    for (PartitionCell& cell : partition_cells_) {
      MOBREP_CHECK_MSG(RunPartition(cell.config, &cell.expected),
                       "chaos_matrix warm-up: partition run failed");
    }
  }

  void RunRound(TimedContext* ctx) override {
    const size_t per_crash = partition_cells_.size() / crash_cells_.size();
    for (size_t c = 0; c < crash_cells_.size(); ++c) {
      const CrashCell& cell = crash_cells_[c];
      CrashTotals totals;
      for (int point = 0; point < cell.crash_points; ++point) {
        ctx->TimeOp([&] { return RunArmed(cell.options, point, &totals); },
                    "armed crash run");
      }
      if (!(totals == cell.expected)) {
        ctx->check.Expect(false, mobrep::StrFormat(
                                     "crash cell %zu (%s): armed-run totals "
                                     "differ from ExploreCrashPoints",
                                     c,
                                     cell.options.sim.spec.ToString().c_str()));
      }
      for (size_t k = c * per_crash; k < (c + 1) * per_crash; ++k) {
        const PartitionCell& part = partition_cells_[k];
        PartitionOutputs out;
        ctx->TimeOp([&] { return RunPartition(part.config, &out); },
                    "partition run");
        if (!(out == part.expected)) {
          ctx->check.Expect(
              false, mobrep::StrFormat("partition cell %zu outputs changed",
                                       k));
        }
      }
    }
  }

  // Sums over the cells, plus a digest of every crash cell's totals and
  // every partition run's outputs.
  std::string Deterministic() const override {
    int64_t points = 0, recoveries = 0, resyncs = 0, reads = 0,
            reclaims = 0, heartbeats = 0;
    Digest digest;
    for (const CrashCell& cell : crash_cells_) {
      points += cell.crash_points;
      recoveries += cell.expected.recoveries;
      resyncs += cell.expected.resyncs;
      const CrashTotals& t = cell.expected;
      for (const int64_t v : {int64_t{cell.crash_points}, t.runs, t.crashes,
                              t.recoveries, t.resyncs, t.regrants,
                              t.reissued_reads}) {
        digest.Add(v);
      }
    }
    for (const PartitionCell& cell : partition_cells_) {
      reads += cell.expected.reads_completed;
      reclaims += cell.expected.reclaims;
      heartbeats += cell.expected.heartbeats;
      const PartitionOutputs& o = cell.expected;
      for (const int64_t v :
           {o.reads_issued, o.reads_completed, o.reclaims, o.regrants,
            o.degraded_probes, o.abandoned_frames, o.lease_messages,
            o.heartbeats}) {
        digest.Add(v);
      }
    }
    return mobrep::StrFormat(
        "crash_cells=%zu crash_points=%lld recoveries=%lld resyncs=%lld "
        "violations=0 partition_runs=%zu reads=%lld reclaims=%lld "
        "heartbeats=%lld digest=%016llx",
        crash_cells_.size(), static_cast<long long>(points),
        static_cast<long long>(recoveries), static_cast<long long>(resyncs),
        partition_cells_.size(), static_cast<long long>(reads),
        static_cast<long long>(reclaims), static_cast<long long>(heartbeats),
        static_cast<unsigned long long>(digest.value()));
  }

  void RunTraced(double seconds, TimedContext* ctx,
                 LayerReport* report) override;

 private:
  // One armed run at `point`, as ExploreCrashPoints makes it. False when
  // the run reports a violation or the armed point is never reached.
  static bool RunArmed(const mobrep::CrashMatrixOptions& options, int point,
                       CrashTotals* totals) {
    mobrep::CrashScheduler scheduler;
    scheduler.Arm(point);
    mobrep::CrashableSimulation sim(options.sim, &scheduler);
    mobrep::Status run;
    {
      SpanGuard span(kSpanCrashRun);
      run = sim.Run(options.schedule);
    }
    ++totals->runs;
    if (!run.ok() || !scheduler.fired()) return false;
    totals->crashes += sim.crashes();
    totals->recoveries += sim.recoveries();
    totals->resyncs += sim.server().resyncs_served();
    totals->regrants += sim.server().regrants();
    totals->reissued_reads += sim.reissued_reads();
    return true;
  }

  static bool RunPartition(const mobrep::PartitionSimConfig& config,
                           PartitionOutputs* out) {
    mobrep::PartitionedSimulation sim(config);
    mobrep::Status status;
    {
      SpanGuard span(kSpanPartitionRun);
      status = sim.Run();
    }
    out->reads_issued = sim.reads_issued();
    out->reads_completed = sim.reads_completed();
    out->reclaims = sim.server().lease_reclaims();
    out->regrants = sim.server().lease_regrants();
    out->degraded_probes = sim.degraded_probes();
    out->abandoned_frames = sim.abandoned_frames();
    out->lease_messages =
        sim.client().lease_renewals_sent() + sim.server().lease_renewals() +
        sim.client().lease_revocations() + sim.server().lease_regrants();
    out->heartbeats = sim.mc_link().heartbeats_received() +
                      sim.sc_link().heartbeats_received();
    return status.ok();
  }

  BenchConfig config_;
  std::string mc_wal_;
  std::string sc_wal_;
  std::vector<CrashCell> crash_cells_;
  std::vector<PartitionCell> partition_cells_;
};

void ChaosMatrix::RunTraced(double seconds, TimedContext* ctx,
                            LayerReport* report) {
  // Untraced then traced passes; one unit is a crash cell's armed runs and
  // the partition runs that follow it.
  int64_t partition_runs = 0, lease_messages = 0, heartbeats = 0;
  uint64_t request = 0;
  const size_t per_crash = partition_cells_.size() / crash_cells_.size();
  RunTracedPasses(
      seconds * 0.8, crash_cells_.size(), ctx, report,
      [&](bool traced, size_t unit) {
        const CrashCell& cell = crash_cells_[unit % crash_cells_.size()];
        CrashTotals totals;
        for (int point = 0; point < cell.crash_points; ++point) {
          Tracer::Get().set_request(++request);
          SpanGuard span(kSpanOp);
          ctx->ops.Record(RunArmed(cell.options, point, &totals),
                          "armed crash run");
        }
        ctx->check.Expect(totals == cell.expected,
                          "own armed runs differ from ExploreCrashPoints");
        const size_t first = (unit % crash_cells_.size()) * per_crash;
        for (size_t k = first; k < first + per_crash; ++k) {
          PartitionOutputs out;
          Tracer::Get().set_request(++request);
          {
            SpanGuard span(kSpanOp);
            ctx->ops.Record(RunPartition(partition_cells_[k].config, &out),
                            "partition run");
          }
          ctx->check.Expect(out == partition_cells_[k].expected,
                            "partition outputs changed");
          if (traced) {
            ++partition_runs;
            lease_messages += out.lease_messages;
            heartbeats += out.heartbeats;
          }
        }
        return cell.crash_points + static_cast<int64_t>(per_crash);
      });
  ReportSelfTimeBreakdown(report);
  int64_t points = 0, writes = 0;
  for (const CrashCell& cell : crash_cells_) {
    points += cell.crash_points;
    writes += cell.crash_points * mobrep::CountWrites(cell.options.schedule);
  }
  report->Set("chaos.armed_runs_per_cell",
              Ratio(static_cast<double>(points),
                      static_cast<double>(crash_cells_.size())));
  report->Set("chaos.ns_per_armed_run", SelfNsPerCall(kSpanCrashRun));
  report->Set("chaos.partition_run_ns", SelfNsPerCall(kSpanPartitionRun));
  report->Set("lease.msgs_per_partition_run",
              Ratio(static_cast<double>(lease_messages),
                      static_cast<double>(partition_runs)));
  report->Set("failure_detector.heartbeats_per_run",
              Ratio(static_cast<double>(heartbeats),
                      static_cast<double>(partition_runs)));

  // WAL appends/recovery and the snapshot codec by direct calls on the
  // run's own streams: one put per write of every armed run, one snapshot
  // of each node's state after every request of every crash schedule.
  MeasureWalCalls(writes, config_.out_dir + "/chaos_direct.wal", report,
                  &ctx->check);
  std::vector<mobrep::NodeSnapshot> snapshots;
  for (const CrashCell& cell : crash_cells_) {
    const mobrep::Schedule& s = cell.options.schedule;
    for (size_t i = 0; i < s.size(); ++i) {
      for (const bool is_mc : {true, false}) {
        mobrep::NodeSnapshot snap;
        snap.is_mc = is_mc;
        snap.in_charge = (i % 2 == 0) == is_mc;
        snap.has_copy = snap.in_charge;
        snap.replica_version = i + 1;
        snap.replica_value = mobrep::StrFormat("v%zu", i);
        snap.window.assign(s.begin(), s.begin() + static_cast<long>(i));
        snap.counter = static_cast<int>(i);
        snapshots.push_back(std::move(snap));
      }
    }
  }
  constexpr int kCodecRepeats = 200;
  bool codec_ok = true;
  const int64_t start = NowNs();
  for (int rep = 0; rep < kCodecRepeats; ++rep) {
    for (const mobrep::NodeSnapshot& snap : snapshots) {
      const auto decoded = mobrep::NodeSnapshot::Decode(snap.Encode());
      codec_ok = codec_ok && decoded.ok() && *decoded == snap;
    }
  }
  report->Set("chaos.snapshot_codec_ns",
              Ratio(static_cast<double>(NowNs() - start),
                    static_cast<double>(snapshots.size() * kCodecRepeats)));
  ctx->check.Expect(codec_ok, "snapshot codec round trip changed a snapshot");
}

}  // namespace

std::unique_ptr<Workload> MakeChaosMatrix(const BenchConfig& config) {
  return std::make_unique<ChaosMatrix>(config);
}

}  // namespace perfbench
