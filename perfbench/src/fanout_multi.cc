// fanout_multi: MultiClientSimulation with thousands of clients in two
// populations: ST2 (every write propagates to every client) and SW9 with a
// small hot set of readers that stays subscribed. One op is one StepRead or
// StepWrite; reads set the median, ST2 writes the tail.

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "mobrep/common/check.h"
#include "mobrep/common/random.h"
#include "mobrep/common/strings.h"
#include "mobrep/core/cost_simulator.h"
#include "mobrep/core/policy_factory.h"
#include "mobrep/protocol/multi_client_sim.h"
#include "stacks.h"
#include "workload.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using mobrep::Op;
using mobrep::PolicyKind;
using mobrep::PolicySpec;

constexpr int kClients = 2000;
constexpr int kHotClients = 6;
constexpr double kHotShare = 0.9;
constexpr int kOpsPerRound = 2000;
constexpr int kWritesPerPopulation = 100;  // per round
constexpr int kRounds = 8;                 // distinct rounds in the pool

const PolicySpec kPopulations[2] = {{PolicyKind::kSt2, 0},
                                    {PolicyKind::kSw, 9}};

struct FanOp {
  uint8_t population = 0;
  int32_t client = -1;  // -1: a write to the population's item
};
using Round = std::vector<FanOp>;

// The core cost model of every MC/SC pair: client i's schedule is its own
// reads plus every write of its population.
class Oracle {
 public:
  Oracle() : model_(mobrep::CostModel::Message(0.5)) {
    for (int p = 0; p < 2; ++p) {
      auto& pop = meters_[static_cast<size_t>(p)];
      for (int c = 0; c < kClients; ++c) {
        policies_.push_back(mobrep::CreatePolicy(kPopulations[p]));
        pop.emplace_back(policies_.back().get(), &model_);
      }
    }
  }

  void Apply(const FanOp& op) {
    auto& pop = meters_[op.population];
    if (op.client >= 0) {
      pop[static_cast<size_t>(op.client)].OnRequest(Op::kRead);
    } else {
      for (mobrep::CostMeter& m : pop) m.OnRequest(Op::kWrite);
    }
  }

  // Compares every client's wire counters with the model.
  template <typename Sim>
  void Verify(int population, const Sim& sim, Checker* check) const {
    const auto& pop = meters_[static_cast<size_t>(population)];
    for (int c = 0; c < kClients; ++c) {
      const mobrep::CostBreakdown& b = pop[static_cast<size_t>(c)].breakdown();
      if (sim.client_data_messages(c) != b.data_messages ||
          sim.client_control_messages(c) != b.control_messages) {
        check->Expect(false, mobrep::StrFormat(
                                 "%s client %d: data %lld/%lld control "
                                 "%lld/%lld",
                                 kPopulations[population].ToString().c_str(),
                                 c,
                                 static_cast<long long>(
                                     sim.client_data_messages(c)),
                                 static_cast<long long>(b.data_messages),
                                 static_cast<long long>(
                                     sim.client_control_messages(c)),
                                 static_cast<long long>(b.control_messages)));
        return;
      }
    }
  }

  int64_t Total(int population, bool data) const {
    int64_t sum = 0;
    for (const mobrep::CostMeter& m :
         meters_[static_cast<size_t>(population)]) {
      const mobrep::CostBreakdown& b = m.breakdown();
      sum += data ? b.data_messages : b.control_messages;
    }
    return sum;
  }

 private:
  mobrep::CostModel model_;
  std::vector<std::unique_ptr<mobrep::AllocationPolicy>> policies_;
  std::array<std::vector<mobrep::CostMeter>, 2> meters_;
};

mobrep::MultiClientSimulation::Options OptionsFor(int population) {
  mobrep::MultiClientSimulation::Options options;
  options.num_clients = kClients;
  options.spec = kPopulations[population];
  return options;
}

class FanoutMulti : public Workload {
 public:
  explicit FanoutMulti(const BenchConfig& config) : config_(config) {}

  void Setup() override {
    mobrep::Rng rng(DeriveSeed(config_.seed, 0xfa7));
    std::array<std::vector<int>, 2> hot;
    for (auto& h : hot) {
      for (int i = 0; i < kHotClients; ++i) {
        h.push_back(static_cast<int>(rng.UniformInt(kClients)));
      }
    }
    rounds_.assign(kRounds, Round());
    for (Round& round : rounds_) {
      for (int p = 0; p < 2; ++p) {
        for (int w = 0; w < kWritesPerPopulation; ++w) {
          round.push_back({static_cast<uint8_t>(p), -1});
        }
      }
      while (static_cast<int>(round.size()) < kOpsPerRound) {
        const auto p = static_cast<uint8_t>(rng.UniformInt(2));
        const int client =
            rng.Bernoulli(kHotShare)
                ? hot[p][rng.UniformInt(kHotClients)]
                : static_cast<int>(rng.UniformInt(kClients));
        round.push_back({p, client});
      }
      Shuffle(&round, &rng);
    }
    sims_[0].reset();
    sims_[1].reset();
    for (int p = 0; p < 2; ++p) {
      sims_[p] = std::make_unique<mobrep::MultiClientSimulation>(OptionsFor(p));
    }
    oracle_ = std::make_unique<Oracle>();
    next_round_ = 0;
    // Warm-up: the first round, checked against the cost model.
    TimedContext scratch;
    PlayRound(&scratch, /*timed=*/false);
    MOBREP_CHECK_MSG(scratch.check.ok(), "fanout_multi warm-up mismatch");
    warmup_data_ = oracle_->Total(0, true) + oracle_->Total(1, true);
    warmup_control_ = oracle_->Total(0, false) + oracle_->Total(1, false);
  }

  void RunRound(TimedContext* ctx) override { PlayRound(ctx, true); }

  std::string Deterministic() const override {
    return mobrep::StrFormat(
        "populations=st2,sw:9 clients=%d ops/round=%d rounds=%d warm-up "
        "round data=%lld control=%lld",
        kClients, kOpsPerRound, kRounds,
        static_cast<long long>(warmup_data_),
        static_cast<long long>(warmup_control_));
  }

  void RunTraced(double seconds, TimedContext* ctx,
                 LayerReport* report) override;

 private:
  void PlayRound(TimedContext* ctx, bool timed) {
    const Round& round = rounds_[next_round_ % rounds_.size()];
    ++next_round_;
    for (const FanOp& op : round) {
      mobrep::MultiClientSimulation& sim = *sims_[op.population];
      const auto step = [&] {
        if (op.client >= 0) {
          sim.StepRead(op.client);
        } else {
          sim.StepWrite();
        }
        return true;
      };
      if (timed) {
        ctx->TimeOp(step, "fanout step");
      } else {
        ctx->ops.Record(step(), "fanout step");
      }
    }
    ctx->Unmeasured([&] {
      for (const FanOp& op : round) oracle_->Apply(op);
      for (int p = 0; p < 2; ++p) oracle_->Verify(p, *sims_[p], &ctx->check);
    });
  }

  BenchConfig config_;
  std::vector<Round> rounds_;
  std::unique_ptr<mobrep::MultiClientSimulation> sims_[2];
  std::unique_ptr<Oracle> oracle_;
  size_t next_round_ = 0;
  int64_t warmup_data_ = 0;
  int64_t warmup_control_ = 0;
};

void FanoutMulti::RunTraced(double seconds, TimedContext* ctx,
                            LayerReport* report) {
  // One pair of stacks and one oracle per pass, built before the passes so
  // construction stays out of the allocation counts.
  std::unique_ptr<MultiStack> stacks[2][2];
  std::unique_ptr<Oracle> oracles[2];
  for (int pass = 0; pass < 2; ++pass) {
    for (int p = 0; p < 2; ++p) {
      stacks[pass][p] = std::make_unique<MultiStack>(OptionsFor(p));
    }
    oracles[pass] = std::make_unique<Oracle>();
  }
  int64_t writes = 0, fanout = 0;
  uint64_t request = 0;
  const PassResult passes = RunTracedPasses(
      seconds * 0.8, 1, ctx, report, [&](bool traced, size_t unit) {
        const Round& round = rounds_[unit % rounds_.size()];
        for (const FanOp& op : round) {
          MultiStack& stack = *stacks[traced][op.population];
          Tracer::Get().set_request(++request);
          // Counting the fan-out walks every channel, so it stays outside
          // the op's span.
          const int64_t before =
              traced && op.client < 0 ? stack.downlink_messages() : 0;
          {
            SpanGuard span(kSpanOp);
            if (op.client >= 0) {
              stack.StepRead(op.client);
            } else {
              stack.StepWrite();
            }
          }
          if (traced && op.client < 0) {
            fanout += stack.downlink_messages() - before;
            ++writes;
          }
          ctx->ops.Record(true, "");
        }
        ctx->Unmeasured([&] {
          Oracle& oracle = *oracles[traced];
          for (const FanOp& op : round) oracle.Apply(op);
          for (int p = 0; p < 2; ++p) {
            oracle.Verify(p, *stacks[traced][p], &ctx->check);
          }
        });
        return static_cast<int64_t>(round.size());
      });
  int64_t messages = 0, events = 0;
  size_t peak_pending = 0;
  for (int p = 0; p < 2; ++p) {
    messages += oracles[1]->Total(p, true) + oracles[1]->Total(p, false);
    events += stacks[1][p]->queue().executed();
    peak_pending = std::max(peak_pending, stacks[1][p]->queue().peak_pending());
  }
  const double traced_ops = static_cast<double>(passes.ops[1]);
  ReportAllocs(passes, report);
  ReportSpanLayerTimes(report);
  ReportSelfTimeBreakdown(report);
  report->Set("channel.msgs_per_request",
              Ratio(static_cast<double>(messages), traced_ops));
  report->Set("event_queue.events_per_request",
              Ratio(static_cast<double>(events), traced_ops));
  report->Set("event_queue.peak_pending", static_cast<double>(peak_pending));
  report->Set("protocol.committed_write_ns_per_client",
              SelfNsPerCall(kSpanCommittedWrite));
  report->Set("protocol.fanout_per_write",
              Ratio(static_cast<double>(fanout), static_cast<double>(writes)));
  report->Set("store.put_ns", SelfNsPerCall(kSpanStorePut));
}

}  // namespace

std::unique_ptr<Workload> MakeFanoutMulti(const BenchConfig& config) {
  return std::make_unique<FanoutMulti>(config);
}

}  // namespace perfbench
