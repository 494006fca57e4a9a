#ifndef MOBREP_PERFBENCH_STACKS_H_
#define MOBREP_PERFBENCH_STACKS_H_

// The benchmark's own MC/SC stacks, built from the program's public classes
// and wired exactly as ProtocolSimulation and MultiClientSimulation wire
// them. The only difference is instrumentation: every hop between layers
// passes through a benchmark-side span (a Channel subclass that forwards
// Send/Transmit, a Link wrapper around ReliableLink, receiver lambdas, and
// the benchmark's own RunNext loop). With spans disabled they cost one
// branch per hop, so the same code also gives the untraced reference.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mobrep/common/object_array.h"
#include "mobrep/common/status.h"
#include "mobrep/net/channel.h"
#include "mobrep/net/event_queue.h"
#include "mobrep/net/fault_model.h"
#include "mobrep/net/reliable_link.h"
#include "mobrep/protocol/mobile_client.h"
#include "mobrep/protocol/multi_client_sim.h"
#include "mobrep/protocol/protocol_sim.h"
#include "mobrep/protocol/stationary_server.h"
#include "mobrep/store/replica_cache.h"
#include "mobrep/store/versioned_store.h"
#include "mobrep/store/write_ahead_log.h"

namespace perfbench {

// The deterministic outputs of one MC/SC pair, comparable between
// ProtocolSimulation and PairStack.
struct WireCounters {
  int64_t requests = 0;
  int64_t local_reads = 0;
  int64_t remote_reads = 0;
  int64_t writes = 0;
  int64_t propagations = 0;
  int64_t invalidations = 0;
  int64_t allocations = 0;
  int64_t deallocations = 0;
  int64_t data_messages = 0;
  int64_t control_messages = 0;
  int64_t connections = 0;
  int64_t retransmissions = 0;
  int64_t timeouts = 0;
  int64_t duplicates_dropped = 0;
  int64_t acks = 0;
  int64_t injected_drops = 0;
  int64_t injected_duplicates = 0;

  bool operator==(const WireCounters&) const = default;
  // "field got/want" for every field that differs; empty when equal.
  std::string Diff(const WireCounters& want) const;
  std::string ToString() const;
  // Every field, in declaration order.
  std::vector<int64_t> Values() const;
};

WireCounters CountersOf(const mobrep::ProtocolMetrics& m);

class PairStack {
 public:
  explicit PairStack(const mobrep::ProtocolConfig& config);
  ~PairStack();
  PairStack(const PairStack&) = delete;
  PairStack& operator=(const PairStack&) = delete;

  // ProtocolSimulation::Step and ::RunTimed, with the same checks.
  void Step(mobrep::Op op);
  mobrep::Status RunTimed(const mobrep::TimedSchedule& schedule);

  WireCounters counters() const;
  const mobrep::EventQueue& queue() const { return queue_; }
  double now() const { return queue_.now(); }
  // Frames handed up exactly once / abandoned by the two ARQ endpoints.
  int64_t arq_delivered() const;
  int64_t arq_give_ups() const;
  // Frames offered to the faulty channels, first sends + retransmissions.
  int64_t arq_attempts() const;
  int64_t wal_appends() const { return wal_ == nullptr ? 0 : wal_->appends(); }
  // Frames handed to the fault model, retransmissions and acks included.
  int64_t frames_transmitted() const;

 private:
  class SpanChannel;
  class SpanFaultyChannel;
  class SpanLink;

  bool Drain(int64_t cap);
  void MaybeIssueQueuedRead();
  void CheckTimedRead(const mobrep::VersionedValue& value);

  mobrep::ProtocolConfig config_;
  mobrep::EventQueue queue_;
  mobrep::VersionedStore store_;
  mobrep::ReplicaCache cache_;
  std::unique_ptr<mobrep::Channel> mc_to_sc_;
  std::unique_ptr<mobrep::Channel> sc_to_mc_;
  SpanFaultyChannel* mc_to_sc_faulty_ = nullptr;  // aliases mc_to_sc_
  SpanFaultyChannel* sc_to_mc_faulty_ = nullptr;  // aliases sc_to_mc_
  std::unique_ptr<mobrep::ReliableLink> mc_link_;
  std::unique_ptr<mobrep::ReliableLink> sc_link_;
  std::unique_ptr<SpanLink> mc_link_span_;
  std::unique_ptr<SpanLink> sc_link_span_;
  std::unique_ptr<mobrep::MobileClient> client_;
  std::unique_ptr<mobrep::StationaryServer> server_;
  std::unique_ptr<mobrep::WriteAheadLog> wal_;
  int64_t write_sequence_ = 0;
  int64_t reads_issued_ = 0;
  int64_t writes_issued_ = 0;
  int64_t queued_reads_ = 0;
  bool read_outstanding_ = false;
  uint64_t last_read_version_ = 0;
  mobrep::Status timed_error_;
};

// MultiClientSimulation's wiring: one SC serving N MCs, each pair over its
// own two perfect channels.
class MultiStack {
 public:
  explicit MultiStack(const mobrep::MultiClientSimulation::Options& options);
  ~MultiStack();
  MultiStack(const MultiStack&) = delete;
  MultiStack& operator=(const MultiStack&) = delete;

  void StepRead(int client);
  void StepWrite();

  int num_clients() const { return options_.num_clients; }
  int64_t client_data_messages(int client) const;
  int64_t client_control_messages(int client) const;
  // SC->MC transmissions summed over all clients.
  int64_t downlink_messages() const;
  const mobrep::EventQueue& queue() const { return queue_; }

 private:
  class SpanChannel;

  void Drain();

  mobrep::MultiClientSimulation::Options options_;
  mobrep::EventQueue queue_;
  mobrep::VersionedStore store_;
  mobrep::ObjectArray<SpanChannel> up_;
  mobrep::ObjectArray<SpanChannel> down_;
  mobrep::ObjectArray<mobrep::ReplicaCache> caches_;
  mobrep::ObjectArray<mobrep::MobileClient> clients_;
  mobrep::ObjectArray<mobrep::StationaryServer> servers_;
  int64_t write_sequence_ = 0;
};

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_STACKS_H_
