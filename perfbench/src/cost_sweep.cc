// cost_sweep: the analytic plane of the seed tables. Each grid cell runs
// the path the tables' SimulatedExpectedCost / SimulatedAverageCost take:
// a BernoulliRequestStream (after a discarded warm-up) or a
// PeriodRequestStream with the tables' period length, drained in chunks
// through CostMeter::OnRequestBatch. On the first kPrefix requests of the
// cell it then prices the prefix with SimulateScheduleBatch, solves the
// offline optimum and evaluates the matching closed form. One op is one
// cell. net/, protocol/ and store/ do no work here.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "mobrep/analysis/average_cost.h"
#include "mobrep/analysis/expected_cost.h"
#include "mobrep/common/check.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/offline_optimal.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/trace/generators.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {
namespace {

constexpr double kOmega = 0.5;
constexpr int kCells = 540;  // 60 per policy of the standard roster
// The tables' stream parameters: chunk size, Bernoulli warm-up and period
// length. Cells are shorter than a table row (200000 requests, 400
// periods) so that one op stays well under a millisecond.
constexpr int64_t kChunk = 8192;
constexpr int64_t kWarmup = 2000;
constexpr int64_t kBernoulliLength = 16384;
constexpr int64_t kPeriodLength = 2500;
constexpr int64_t kPeriods = 8;
constexpr int64_t kPrefix = 512;  // SimulateScheduleBatch and offline DP input
// Allowed |mean simulated cost - closed form| per request, averaged over a
// policy's cells of one kind (Bernoulli: ~500k requests; period: 240
// periods of uniform theta). Over seeds 0-40 the largest gaps were 0.003
// and 0.056.
constexpr double kBernoulliTolerance = 0.01;
constexpr double kPeriodTolerance = 0.1;

struct Cell {
  int policy = 0;  // index into the roster
  bool period = false;
  double theta = 0.0;  // Bernoulli cells only
  uint64_t seed = 0;
};

struct CellResult {
  double total_cost = 0.0;
  int64_t data_messages = 0;
  int64_t control_messages = 0;
  double offline_cost = 0.0;
  double online_prefix_cost = 0.0;
  double closed_form = 0.0;
  int64_t requests = 0;
  bool operator==(const CellResult&) const = default;
};

class CostSweep : public Workload {
 public:
  explicit CostSweep(const BenchConfig& config)
      : config_(config), model_(mobrep::CostModel::Message(kOmega)) {}

  void Setup() override {
    roster_ = mobrep::StandardPolicyRoster();
    policies_.clear();
    for (const mobrep::PolicySpec& spec : roster_) {
      policies_.push_back(mobrep::CreatePolicy(spec));
    }
    mobrep::Rng rng(DeriveSeed(config_.seed, 0xc057));
    cells_.assign(kCells, Cell());
    for (int i = 0; i < kCells; ++i) {
      Cell& cell = cells_[static_cast<size_t>(i)];
      cell.policy = i % static_cast<int>(roster_.size());
      cell.period = (i / static_cast<int>(roster_.size())) % 2 == 1;
      // Bernoulli cells of one policy cover theta's range in strata.
      const int per_policy = kCells / static_cast<int>(roster_.size()) / 2;
      cell.theta = Stratified(i / static_cast<int>(roster_.size()) / 2,
                              per_policy, 0.05, 0.95, rng.NextDouble());
      cell.seed = rng.NextUint64();
    }
    // Warm-up pass: its results are the expected values, checked once
    // against the closed forms and the offline lower bound.
    expected_.clear();
    for (const Cell& cell : cells_) expected_.push_back(RunCell(cell));
    Checker check;
    CheckAnalytic(&check);
    MOBREP_CHECK_MSG(check.ok(), check.reasons().empty()
                                     ? "cost_sweep warm-up mismatch"
                                     : check.reasons()[0].c_str());
  }

  void RunRound(TimedContext* ctx) override {
    for (size_t i = 0; i < cells_.size(); ++i) {
      CellResult result;
      ctx->TimeOp(
          [&] {
            result = RunCell(cells_[i]);
            return true;
          },
          "cost cell");
      if (!(result == expected_[i])) {
        ctx->check.Expect(false, mobrep::StrFormat(
                                     "cell %zu: cost %.17g vs %.17g", i,
                                     result.total_cost,
                                     expected_[i].total_cost));
      }
    }
  }

  // Sums over the cells, plus a digest of every cell's results.
  std::string Deterministic() const override {
    double cost = 0.0, offline = 0.0;
    int64_t data = 0, control = 0, requests = 0;
    Digest digest;
    for (const CellResult& r : expected_) {
      cost += r.total_cost;
      offline += r.offline_cost;
      data += r.data_messages;
      control += r.control_messages;
      requests += r.requests;
      for (const double v : {r.total_cost, r.offline_cost,
                             r.online_prefix_cost, r.closed_form}) {
        digest.Add(v);
      }
      for (const int64_t v : {r.data_messages, r.control_messages,
                              r.requests}) {
        digest.Add(v);
      }
    }
    return mobrep::StrFormat(
        "cells=%zu requests=%lld data=%lld control=%lld cost=%.17g "
        "offline_prefix_cost=%.17g digest=%016llx",
        expected_.size(), static_cast<long long>(requests),
        static_cast<long long>(data), static_cast<long long>(control), cost,
        offline, static_cast<unsigned long long>(digest.value()));
  }

  void RunTraced(double seconds, TimedContext* ctx,
                 LayerReport* report) override;

 private:
  // Drains `n` requests of `stream` through `meter` in the tables' chunks,
  // copying the first kPrefix of them into `prefix` when it is given.
  template <typename Stream>
  void Drain(Stream* stream, mobrep::CostMeter* meter, int64_t n,
             double* total, mobrep::Schedule* prefix) {
    for (int64_t done = 0; done < n;) {
      const int64_t m = std::min(kChunk, n - done);
      {
        SpanGuard span(kSpanGenerate);
        stream->NextBatch(buf_.data(), m);
      }
      if (prefix != nullptr && done < kPrefix) {
        prefix->insert(prefix->end(), buf_.begin(),
                       buf_.begin() + std::min(m, kPrefix - done));
      }
      {
        SpanGuard span(kSpanBatchPrice);
        *total = meter->OnRequestBatch(buf_.data(), m, *total);
      }
      done += m;
    }
  }

  CellResult RunCell(const Cell& cell) {
    mobrep::AllocationPolicy* policy =
        policies_[static_cast<size_t>(cell.policy)].get();
    policy->Reset();
    mobrep::CostMeter meter(policy, &model_);
    mobrep::Schedule prefix;
    prefix.reserve(static_cast<size_t>(kPrefix));
    double total = 0.0;
    if (cell.period) {
      mobrep::PeriodRequestStream stream(kPeriodLength,
                                         mobrep::Rng(cell.seed));
      Drain(&stream, &meter, kPeriods * kPeriodLength, &total, &prefix);
    } else {
      mobrep::BernoulliRequestStream stream(cell.theta,
                                            mobrep::Rng(cell.seed));
      double discarded = 0.0;
      Drain(&stream, &meter, kWarmup, &discarded, nullptr);
      Drain(&stream, &meter, kBernoulliLength, &total, &prefix);
    }
    CellResult r;
    r.requests = cell.period ? kPeriods * kPeriodLength : kBernoulliLength;
    r.total_cost = total;
    r.data_messages = meter.breakdown().data_messages;
    r.control_messages = meter.breakdown().control_messages;
    {
      SpanGuard span(kSpanBatchPrice);
      policy->Reset();
      r.online_prefix_cost =
          mobrep::SimulateScheduleBatch(policy, prefix, model_).total_cost;
    }
    {
      SpanGuard span(kSpanOfflineDp);
      policy->Reset();
      r.offline_cost =
          mobrep::OfflineOptimalCost(prefix, model_, policy->has_copy());
    }
    {
      SpanGuard span(kSpanClosedForm);
      const mobrep::PolicySpec& spec =
          roster_[static_cast<size_t>(cell.policy)];
      r.closed_form =
          cell.period ? *mobrep::AverageExpectedCost(spec, model_)
                      : *mobrep::ExpectedCost(spec, model_, cell.theta);
    }
    return r;
  }

  void CheckAnalytic(Checker* check) const {
    std::vector<double> sum[2], n[2];
    for (int k = 0; k < 2; ++k) {
      sum[k].assign(roster_.size(), 0.0);
      n[k].assign(roster_.size(), 0.0);
    }
    for (size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const CellResult& r = expected_[i];
      check->Expect(r.offline_cost <= r.online_prefix_cost + 1e-9,
                    mobrep::StrFormat("cell %zu: offline optimum %.6g above "
                                      "the online cost %.6g",
                                      i, r.offline_cost,
                                      r.online_prefix_cost));
      const int k = cell.period ? 1 : 0;
      sum[k][static_cast<size_t>(cell.policy)] +=
          r.total_cost / static_cast<double>(r.requests) - r.closed_form;
      n[k][static_cast<size_t>(cell.policy)] += 1.0;
    }
    for (int k = 0; k < 2; ++k) {
      for (size_t p = 0; p < roster_.size(); ++p) {
        if (n[k][p] == 0.0) continue;
        const double gap = sum[k][p] / n[k][p];
        const double tolerance =
            k == 1 ? kPeriodTolerance : kBernoulliTolerance;
        check->Expect(std::fabs(gap) <= tolerance,
                      mobrep::StrFormat("%s %s cells: simulated minus closed "
                                        "form %.4f per request (tolerance "
                                        "%.2f)",
                                        roster_[p].ToString().c_str(),
                                        k == 1 ? "period" : "bernoulli", gap,
                                        tolerance));
      }
    }
  }

  BenchConfig config_;
  mobrep::CostModel model_;
  std::vector<mobrep::PolicySpec> roster_;
  std::vector<std::unique_ptr<mobrep::AllocationPolicy>> policies_;
  std::vector<Cell> cells_;
  std::vector<CellResult> expected_;
  std::vector<mobrep::Op> buf_ = std::vector<mobrep::Op>(kChunk);
};

void CostSweep::RunTraced(double seconds, TimedContext* ctx,
                          LayerReport* report) {
  int64_t generated = 0, priced = 0, cells = 0;
  RunTracedPasses(
      seconds * 0.9, cells_.size(), ctx, report,
      [&](bool traced, size_t unit) {
        const size_t c = unit % cells_.size();
        Tracer::Get().set_request(unit + 1);
        CellResult result;
        {
          SpanGuard span(kSpanOp);
          result = RunCell(cells_[c]);
        }
        ctx->ops.Record(true, "");
        ctx->check.Expect(result == expected_[c],
                          "traced cell result differs from the untraced run");
        if (traced) {
          // Bernoulli cells also generate and price the discarded warm-up;
          // the batch span prices the DP prefix once more.
          const int64_t n =
              result.requests + (cells_[c].period ? 0 : kWarmup);
          generated += n;
          priced += n + kPrefix;
          ++cells;
        }
        return int64_t{1};
      });
  ReportSelfTimeBreakdown(report);
  report->Set("trace.gen_ns_per_request",
              SelfNsPer(kSpanGenerate, static_cast<double>(generated)));
  report->Set("core.batch_price_ns_per_request",
              SelfNsPer(kSpanBatchPrice, static_cast<double>(priced)));
  report->Set("core.offline_dp_ns_per_request",
              SelfNsPer(kSpanOfflineDp, static_cast<double>(cells * kPrefix)));
  report->Set("analysis.closed_form_ns", SelfNsPerCall(kSpanClosedForm));
}

}  // namespace

std::unique_ptr<Workload> MakeCostSweep(const BenchConfig& config) {
  return std::make_unique<CostSweep>(config);
}

}  // namespace perfbench
