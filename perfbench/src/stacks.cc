#include "stacks.h"

#include <algorithm>
#include <utility>

#include "mobrep/common/check.h"
#include "mobrep/common/strings.h"
#include "spans.h"

namespace perfbench {

using mobrep::Message;
using mobrep::Op;
using mobrep::Status;
using mobrep::StrFormat;
using mobrep::VersionedValue;

namespace {

// ProtocolSimulation's per-direction fault-stream salts ("MC->SC",
// "SC->MC"); the same values give the same fault decisions.
constexpr uint64_t kUplinkFaultSalt = 0x4d432d3e5343ULL;
constexpr uint64_t kDownlinkFaultSalt = 0x53432d3e4d43ULL;

void AppendDiff(std::string* out, const char* field, int64_t got,
                int64_t want) {
  if (got == want) return;
  *out += StrFormat("%s%s %lld/%lld", out->empty() ? "" : ", ", field,
                    static_cast<long long>(got), static_cast<long long>(want));
}

}  // namespace

std::string WireCounters::Diff(const WireCounters& want) const {
  std::string out;
#define PERFBENCH_DIFF(f) AppendDiff(&out, #f, f, want.f)
  PERFBENCH_DIFF(requests);
  PERFBENCH_DIFF(local_reads);
  PERFBENCH_DIFF(remote_reads);
  PERFBENCH_DIFF(writes);
  PERFBENCH_DIFF(propagations);
  PERFBENCH_DIFF(invalidations);
  PERFBENCH_DIFF(allocations);
  PERFBENCH_DIFF(deallocations);
  PERFBENCH_DIFF(data_messages);
  PERFBENCH_DIFF(control_messages);
  PERFBENCH_DIFF(connections);
  PERFBENCH_DIFF(retransmissions);
  PERFBENCH_DIFF(timeouts);
  PERFBENCH_DIFF(duplicates_dropped);
  PERFBENCH_DIFF(acks);
  PERFBENCH_DIFF(injected_drops);
  PERFBENCH_DIFF(injected_duplicates);
#undef PERFBENCH_DIFF
  return out;
}

std::string WireCounters::ToString() const {
  return StrFormat(
      "requests=%lld data=%lld control=%lld connections=%lld "
      "retransmissions=%lld acks=%lld drops=%lld duplicates=%lld",
      static_cast<long long>(requests), static_cast<long long>(data_messages),
      static_cast<long long>(control_messages),
      static_cast<long long>(connections),
      static_cast<long long>(retransmissions), static_cast<long long>(acks),
      static_cast<long long>(injected_drops),
      static_cast<long long>(injected_duplicates));
}

std::vector<int64_t> WireCounters::Values() const {
  return {requests,         local_reads,        remote_reads,
          writes,           propagations,       invalidations,
          allocations,      deallocations,      data_messages,
          control_messages, connections,        retransmissions,
          timeouts,         duplicates_dropped, acks,
          injected_drops,   injected_duplicates};
}

WireCounters CountersOf(const mobrep::ProtocolMetrics& m) {
  WireCounters c;
  c.requests = m.requests;
  c.local_reads = m.local_reads;
  c.remote_reads = m.remote_reads;
  c.writes = m.writes;
  c.propagations = m.propagations;
  c.invalidations = m.invalidations;
  c.allocations = m.allocations;
  c.deallocations = m.deallocations;
  c.data_messages = m.data_messages;
  c.control_messages = m.control_messages;
  c.connections = m.connections;
  c.retransmissions = m.retransmissions;
  c.timeouts = m.timeouts;
  c.duplicates_dropped = m.duplicates_dropped;
  c.acks = m.acks;
  c.injected_drops = m.injected_drops;
  c.injected_duplicates = m.injected_duplicates;
  return c;
}

// ---------------------------------------------------------------------------
// Instrumented hops.

class PairStack::SpanChannel : public mobrep::Channel {
 public:
  using Channel::Channel;
  void Send(Message message) override {
    SpanGuard span(kSpanChannelSend);
    Channel::Send(std::move(message));
  }
};

class PairStack::SpanFaultyChannel : public mobrep::FaultyChannel {
 public:
  using FaultyChannel::FaultyChannel;
  void Send(Message message) override {
    SpanGuard span(kSpanChannelSend);
    FaultyChannel::Send(std::move(message));
  }
  int64_t transmits() const { return transmits_; }

 protected:
  void Transmit(mobrep::PooledMessage slot) override {
    ++transmits_;
    SpanGuard span(kSpanFaultTransmit);
    FaultyChannel::Transmit(std::move(slot));
  }

 private:
  int64_t transmits_ = 0;
};

// The protocol endpoints' view of a ReliableLink.
class PairStack::SpanLink : public mobrep::Link {
 public:
  explicit SpanLink(mobrep::ReliableLink* inner) : inner_(inner) {}
  void Send(Message message) override {
    SpanGuard span(kSpanArqSend);
    inner_->Send(std::move(message));
  }
  bool busy() const override { return inner_->busy(); }
  const std::string& name() const override { return inner_->name(); }

 private:
  mobrep::ReliableLink* inner_;
};

// ---------------------------------------------------------------------------
// PairStack: ProtocolSimulation's constructor, Step and RunTimed.

PairStack::PairStack(const mobrep::ProtocolConfig& config) : config_(config) {
  store_.Put(config_.key, config_.initial_value);

  const bool reliable = config_.fault.UseReliableLink();
  if (reliable) {
    auto uplink = std::make_unique<SpanFaultyChannel>(
        &queue_, config_.link_latency, "MC->SC", config_.fault,
        kUplinkFaultSalt);
    auto downlink = std::make_unique<SpanFaultyChannel>(
        &queue_, config_.link_latency, "SC->MC", config_.fault,
        kDownlinkFaultSalt);
    mc_to_sc_faulty_ = uplink.get();
    sc_to_mc_faulty_ = downlink.get();
    mc_to_sc_ = std::move(uplink);
    sc_to_mc_ = std::move(downlink);

    mobrep::ArqConfig arq = config_.fault.arq;
    if (arq.initial_rto <= 0.0) {
      arq.initial_rto = 4.0 * config_.link_latency +
                        2.0 * config_.fault.max_jitter + 1e-6;
    }
    mc_link_ = std::make_unique<mobrep::ReliableLink>(&queue_, mc_to_sc_.get(),
                                                      arq, "MC-arq");
    sc_link_ = std::make_unique<mobrep::ReliableLink>(&queue_, sc_to_mc_.get(),
                                                      arq, "SC-arq");
    mc_link_span_ = std::make_unique<SpanLink>(mc_link_.get());
    sc_link_span_ = std::make_unique<SpanLink>(sc_link_.get());
  } else {
    mc_to_sc_ = std::make_unique<SpanChannel>(&queue_, config_.link_latency,
                                              "MC->SC");
    sc_to_mc_ = std::make_unique<SpanChannel>(&queue_, config_.link_latency,
                                              "SC->MC");
  }

  mobrep::Link* client_uplink =
      reliable ? static_cast<mobrep::Link*>(mc_link_span_.get())
               : mc_to_sc_.get();
  mobrep::Link* server_downlink =
      reliable ? static_cast<mobrep::Link*>(sc_link_span_.get())
               : sc_to_mc_.get();
  client_ = std::make_unique<mobrep::MobileClient>(config_.key, config_.spec,
                                                   client_uplink, &cache_);
  server_ = std::make_unique<mobrep::StationaryServer>(
      config_.key, config_.spec, server_downlink, &store_);
  if (!config_.wal_path.empty()) {
    auto wal = mobrep::WriteAheadLog::Open(config_.wal_path,
                                           config_.wal_options);
    MOBREP_CHECK_MSG(wal.ok(), wal.status().message().c_str());
    wal_ = std::make_unique<mobrep::WriteAheadLog>(std::move(*wal));
    const Status logged =
        wal_->AppendPut(config_.key, *store_.Get(config_.key));
    MOBREP_CHECK_MSG(logged.ok(), logged.message().c_str());
    server_->set_write_log(wal_.get());
  }

  if (reliable) {
    mc_to_sc_->set_receiver([this](const Message& frame) {
      SpanGuard span(kSpanArqHandleFrame);
      sc_link_->HandleFrame(frame);
    });
    sc_to_mc_->set_receiver([this](const Message& frame) {
      SpanGuard span(kSpanArqHandleFrame);
      mc_link_->HandleFrame(frame);
    });
    mc_link_->set_receiver([this](const Message& m) {
      SpanGuard span(kSpanMcHandle);
      client_->HandleMessage(m);
    });
    sc_link_->set_receiver([this](const Message& m) {
      SpanGuard span(kSpanScHandle);
      server_->HandleMessage(m);
    });
    sc_link_->set_on_idle([this] { server_->FlushPending(); });
    client_->set_tolerates_link_faults(true);
  } else {
    mc_to_sc_->set_receiver([this](const Message& m) {
      SpanGuard span(kSpanScHandle);
      server_->HandleMessage(m);
    });
    sc_to_mc_->set_receiver([this](const Message& m) {
      SpanGuard span(kSpanMcHandle);
      client_->HandleMessage(m);
    });
  }

  if (client_->in_charge()) {
    cache_.Install(config_.key, *store_.Get(config_.key));
  }
  MOBREP_CHECK(client_->in_charge() != server_->in_charge());
}

PairStack::~PairStack() = default;

bool PairStack::Drain(int64_t cap) {
  int64_t ran = 0;
  while (!queue_.empty()) {
    if (ran >= cap) return false;
    SpanGuard span(kSpanRunNext);
    queue_.RunNext();
    ++ran;
  }
  return true;
}

void PairStack::Step(Op op) {
  if (op == Op::kRead) {
    ++reads_issued_;
    bool completed = false;
    VersionedValue seen;
    {
      SpanGuard span(kSpanIssueRead);
      client_->IssueRead([&](const VersionedValue& value) {
        completed = true;
        seen = value;
      });
    }
    MOBREP_CHECK_MSG(Drain(config_.max_events_per_exchange),
                     "read exchange did not quiesce");
    MOBREP_CHECK_MSG(completed, "read did not complete");
    MOBREP_CHECK_MSG(seen == *store_.Get(config_.key),
                     "MC read observed a stale or divergent value");
  } else {
    ++writes_issued_;
    ++write_sequence_;
    {
      SpanGuard span(kSpanIssueWrite);
      server_->IssueWrite(
          StrFormat("v%lld", static_cast<long long>(write_sequence_)));
    }
    MOBREP_CHECK_MSG(Drain(config_.max_events_per_exchange),
                     "write exchange did not quiesce");
  }
  MOBREP_CHECK_MSG(client_->in_charge() != server_->in_charge(),
                   "both or neither node in charge after a request");
  MOBREP_CHECK(client_->in_charge() == client_->has_copy());
}

void PairStack::MaybeIssueQueuedRead() {
  if (read_outstanding_ || queued_reads_ == 0) return;
  --queued_reads_;
  read_outstanding_ = true;
  ++reads_issued_;
  SpanGuard span(kSpanIssueRead);
  client_->IssueRead([this](const VersionedValue& value) {
    read_outstanding_ = false;
    CheckTimedRead(value);
    MaybeIssueQueuedRead();
  });
}

void PairStack::CheckTimedRead(const VersionedValue& value) {
  if (!timed_error_.ok()) return;
  if (value.version < last_read_version_) {
    timed_error_ = mobrep::InternalError("reads went backwards");
    return;
  }
  last_read_version_ = value.version;
  const std::string expected =
      value.version <= 1
          ? config_.initial_value
          : StrFormat("v%llu",
                      static_cast<unsigned long long>(value.version - 1));
  if (value.value != expected) {
    timed_error_ = mobrep::DataLossError("read observed a torn write");
  }
}

Status PairStack::RunTimed(const mobrep::TimedSchedule& schedule) {
  for (const mobrep::TimedRequest& request : schedule) {
    if (request.time < queue_.now()) {
      return mobrep::InvalidArgumentError("request predates the clock");
    }
    queue_.ScheduleAt(request.time, [this, op = request.op] {
      if (op == Op::kWrite) {
        ++writes_issued_;
        ++write_sequence_;
        SpanGuard span(kSpanIssueWrite);
        server_->IssueWrite(
            StrFormat("v%lld", static_cast<long long>(write_sequence_)));
      } else {
        ++queued_reads_;
        MaybeIssueQueuedRead();
      }
    });
  }
  if (!Drain(config_.max_events_per_exchange)) {
    return mobrep::InternalError("timed run did not quiesce");
  }
  if (!timed_error_.ok()) return timed_error_;
  if (read_outstanding_ || queued_reads_ > 0) {
    return mobrep::InternalError("reads never completed");
  }
  if (client_->in_charge() == server_->in_charge()) {
    return mobrep::InternalError("both or neither node in charge");
  }
  if (client_->in_charge() != client_->has_copy() ||
      server_->mc_has_copy() != client_->has_copy()) {
    return mobrep::InternalError("subscription views diverged");
  }
  if (client_->has_copy() &&
      !(*cache_.Get(config_.key) == *store_.Get(config_.key))) {
    return mobrep::DataLossError("surviving MC replica diverged");
  }
  if (server_->has_pending_propagation()) {
    return mobrep::InternalError("collapsed propagation left unflushed");
  }
  return mobrep::OkStatus();
}

WireCounters PairStack::counters() const {
  WireCounters c;
  c.requests = reads_issued_ + writes_issued_;
  c.local_reads = client_->local_reads();
  c.remote_reads = client_->remote_reads();
  c.writes = writes_issued_;
  c.propagations = server_->propagations();
  c.invalidations = server_->invalidations();
  c.allocations = client_->allocations();
  c.deallocations = client_->deallocations();
  c.data_messages =
      mc_to_sc_->data_messages_sent() + sc_to_mc_->data_messages_sent();
  c.control_messages =
      mc_to_sc_->control_messages_sent() + sc_to_mc_->control_messages_sent();
  c.connections = sc_to_mc_->messages_sent();
  c.acks = mc_to_sc_->acks_sent() + sc_to_mc_->acks_sent();
  if (mc_link_ != nullptr) {
    c.retransmissions =
        mc_link_->retransmissions() + sc_link_->retransmissions();
    c.timeouts = mc_link_->timeouts() + sc_link_->timeouts();
    c.duplicates_dropped =
        mc_link_->duplicates_dropped() + sc_link_->duplicates_dropped();
  }
  if (mc_to_sc_faulty_ != nullptr) {
    c.injected_drops =
        mc_to_sc_faulty_->injected_drops() + sc_to_mc_faulty_->injected_drops();
    c.injected_duplicates = mc_to_sc_faulty_->injected_duplicates() +
                            sc_to_mc_faulty_->injected_duplicates();
  }
  return c;
}

int64_t PairStack::arq_delivered() const {
  return mc_link_ == nullptr ? 0
                             : mc_link_->delivered() + sc_link_->delivered();
}

int64_t PairStack::arq_give_ups() const {
  return mc_link_ == nullptr ? 0 : mc_link_->give_ups() + sc_link_->give_ups();
}

int64_t PairStack::arq_attempts() const {
  return mc_to_sc_->messages_sent() + sc_to_mc_->messages_sent() +
         mc_to_sc_->retransmissions_sent() + sc_to_mc_->retransmissions_sent();
}

int64_t PairStack::frames_transmitted() const {
  if (mc_to_sc_faulty_ == nullptr) return 0;
  return mc_to_sc_faulty_->transmits() + sc_to_mc_faulty_->transmits();
}

// ---------------------------------------------------------------------------
// MultiStack: MultiClientSimulation's constructor, StepRead and StepWrite.

class MultiStack::SpanChannel : public mobrep::Channel {
 public:
  using Channel::Channel;
  void Send(Message message) override {
    SpanGuard span(kSpanChannelSend);
    Channel::Send(std::move(message));
  }
};

MultiStack::MultiStack(const mobrep::MultiClientSimulation::Options& options)
    : options_(options) {
  MOBREP_CHECK(options.num_clients >= 1);
  store_.Put(options_.key, options_.initial_value);
  const size_t n = static_cast<size_t>(options.num_clients);
  up_.Reserve(n);
  down_.Reserve(n);
  caches_.Reserve(n);
  clients_.Reserve(n);
  servers_.Reserve(n);
  for (int i = 0; i < options.num_clients; ++i) {
    SpanChannel& up =
        up_.Emplace(&queue_, options.link_latency, StrFormat("MC%d->SC", i));
    SpanChannel& down =
        down_.Emplace(&queue_, options.link_latency, StrFormat("SC->MC%d", i));
    mobrep::ReplicaCache& cache = caches_.Emplace();
    mobrep::MobileClient& client =
        clients_.Emplace(options_.key, options_.spec, &up, &cache);
    mobrep::StationaryServer& server =
        servers_.Emplace(options_.key, options_.spec, &down, &store_);
    up.set_receiver([server = &server](const Message& m) {
      SpanGuard span(kSpanScHandle);
      server->HandleMessage(m);
    });
    down.set_receiver([client = &client](const Message& m) {
      SpanGuard span(kSpanMcHandle);
      client->HandleMessage(m);
    });
    if (client.in_charge()) {
      cache.Install(options_.key, *store_.Get(options_.key));
    }
  }
}

MultiStack::~MultiStack() = default;

void MultiStack::Drain() {
  const int64_t budget = mobrep::EventQueue::AutoEventBudget(
      static_cast<int64_t>(queue_.pending()));
  int64_t ran = 0;
  while (!queue_.empty()) {
    MOBREP_CHECK_MSG(ran < budget, "multi-client cascade exceeded its budget");
    SpanGuard span(kSpanRunNext);
    queue_.RunNext();
    ++ran;
  }
}

void MultiStack::StepRead(int client) {
  MOBREP_CHECK(client >= 0 && client < num_clients());
  const size_t i = static_cast<size_t>(client);
  bool completed = false;
  VersionedValue seen;
  {
    SpanGuard span(kSpanIssueRead);
    clients_[i].IssueRead([&](const VersionedValue& value) {
      completed = true;
      seen = value;
    });
  }
  Drain();
  MOBREP_CHECK_MSG(completed, "read did not complete");
  MOBREP_CHECK_MSG(seen == *store_.Get(options_.key),
                   "a mobile computer observed a stale value");
  MOBREP_CHECK(clients_[i].in_charge() != servers_[i].in_charge());
}

void MultiStack::StepWrite() {
  ++write_sequence_;
  {
    SpanGuard span(kSpanStorePut);
    store_.Put(options_.key,
               StrFormat("v%lld", static_cast<long long>(write_sequence_)));
  }
  for (mobrep::StationaryServer& server : servers_) {
    SpanGuard span(kSpanCommittedWrite);
    server.OnCommittedWrite();
  }
  Drain();
  for (size_t i = 0; i < clients_.size(); ++i) {
    MOBREP_CHECK(clients_[i].in_charge() != servers_[i].in_charge());
    if (clients_[i].has_copy()) {
      MOBREP_CHECK(*caches_[i].Get(options_.key) == *store_.Get(options_.key));
    }
  }
}

int64_t MultiStack::client_data_messages(int client) const {
  const size_t i = static_cast<size_t>(client);
  return up_[i].data_messages_sent() + down_[i].data_messages_sent();
}

int64_t MultiStack::client_control_messages(int client) const {
  const size_t i = static_cast<size_t>(client);
  return up_[i].control_messages_sent() + down_[i].control_messages_sent();
}

int64_t MultiStack::downlink_messages() const {
  int64_t total = 0;
  for (size_t i = 0; i < down_.size(); ++i) total += down_[i].messages_sent();
  return total;
}

}  // namespace perfbench
