// Layer ladder: one seeded message stream through progressively deeper
// stacks built from the public net/ classes. Each rung's ns/message minus
// the rung below is that layer's measured cost.

#include "ladder.h"

#include <string>
#include <vector>

#include "mobrep/common/random.h"
#include "mobrep/net/channel.h"
#include "mobrep/net/event_queue.h"
#include "mobrep/net/fault_model.h"
#include "mobrep/net/message.h"
#include "mobrep/net/message_pool.h"
#include "mobrep/net/reliable_link.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using mobrep::Message;
using mobrep::MessageType;

constexpr double kLatency = 0.001;

// The stream: a seeded mix of paper message types carrying one item.
std::vector<Message> MakeStream(uint64_t seed, int64_t n) {
  static const MessageType kTypes[] = {
      MessageType::kReadRequest, MessageType::kDataResponse,
      MessageType::kWritePropagate, MessageType::kInvalidate,
      MessageType::kDeleteRequest};
  mobrep::Rng rng(seed);
  std::vector<Message> stream(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    Message& m = stream[static_cast<size_t>(i)];
    m.type = kTypes[rng.UniformInt(std::size(kTypes))];
    m.key = "x";
    m.item = {"v" + std::to_string(i), static_cast<uint64_t>(i + 1)};
  }
  return stream;
}

void Drain(mobrep::EventQueue* queue) {
  while (queue->RunNext()) {
  }
}

// Runs `send` for every message of the stream (each followed by a drain)
// and returns ns per message.
template <typename Send>
double TimeRung(const std::vector<Message>& stream, mobrep::EventQueue* queue,
                Send&& send) {
  const int64_t start = NowNs();
  for (const Message& m : stream) {
    send(m);
    Drain(queue);
  }
  return static_cast<double>(NowNs() - start) /
         static_cast<double>(stream.size());
}

}  // namespace

LadderResult RunLadder(uint64_t seed, int64_t messages,
                       const mobrep::FaultConfig& faults, int repeats) {
  const std::vector<Message> stream = MakeStream(seed, messages);
  std::vector<double> queue_ns, channel_ns, faulty_ns, reliable_ns;
  int64_t delivered = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    {  // Rung 0: the event queue alone, carrying a pooled copy of the
       // message the way Channel does.
      mobrep::EventQueue queue;
      queue_ns.push_back(TimeRung(stream, &queue, [&](const Message& m) {
        queue.ScheduleAfter(
            kLatency, [&delivered, slot = mobrep::MessagePool::ThreadLocal()
                                              ->Acquire(Message(m))] {
              delivered += static_cast<int64_t>(slot->item.version & 1);
            });
      }));
    }
    {  // Rung 1: + Channel (pooled message, metering, delivery event).
      mobrep::EventQueue queue;
      mobrep::Channel channel(&queue, kLatency, "ladder");
      channel.set_receiver([&](const Message& m) {
        delivered += static_cast<int64_t>(m.item.version & 1);
      });
      channel_ns.push_back(TimeRung(
          stream, &queue, [&](const Message& m) { channel.Send(m); }));
    }
    {  // Rung 2: + FaultyChannel (per-frame fault decision).
      mobrep::EventQueue queue;
      mobrep::FaultyChannel channel(&queue, kLatency, "ladder", faults,
                                    seed ^ 0x1add);
      channel.set_receiver([&](const Message& m) {
        delivered += static_cast<int64_t>(m.item.version & 1);
      });
      faulty_ns.push_back(TimeRung(
          stream, &queue, [&](const Message& m) { channel.Send(m); }));
    }
    {  // Rung 3: + ReliableLink ARQ on both ends (acks on the way back).
      mobrep::EventQueue queue;
      mobrep::FaultyChannel up(&queue, kLatency, "ladder-up", faults,
                               seed ^ 0x1add);
      mobrep::FaultyChannel down(&queue, kLatency, "ladder-down", faults,
                                 seed ^ 0xd0e);
      mobrep::ArqConfig arq;
      arq.initial_rto = 4.0 * kLatency + 2.0 * faults.max_jitter + 1e-6;
      mobrep::ReliableLink sender(&queue, &up, arq, "ladder-tx");
      mobrep::ReliableLink receiver(&queue, &down, arq, "ladder-rx");
      up.set_receiver([&](const Message& f) { receiver.HandleFrame(f); });
      down.set_receiver([&](const Message& f) { sender.HandleFrame(f); });
      receiver.set_receiver([&](const Message& m) {
        delivered += static_cast<int64_t>(m.item.version & 1);
      });
      reliable_ns.push_back(TimeRung(
          stream, &queue, [&](const Message& m) { sender.Send(m); }));
    }
  }
  DoNotOptimize(delivered);
  LadderResult r;
  r.queue_ns = Median(queue_ns);
  r.channel_ns = Median(channel_ns);
  r.faulty_ns = Median(faulty_ns);
  r.reliable_ns = Median(reliable_ns);
  return r;
}

}  // namespace perfbench
