#ifndef MOBREP_PERFBENCH_LADDER_H_
#define MOBREP_PERFBENCH_LADDER_H_

#include <cstdint>

#include "mobrep/net/fault_model.h"

namespace perfbench {

// Median ns per message of each rung over `repeats` passes.
struct LadderResult {
  double queue_ns = 0.0;     // EventQueue schedule + RunNext
  double channel_ns = 0.0;   // + Channel
  double faulty_ns = 0.0;    // + FaultyChannel under `faults`
  double reliable_ns = 0.0;  // + ReliableLink at both ends
};

LadderResult RunLadder(uint64_t seed, int64_t messages,
                       const mobrep::FaultConfig& faults, int repeats);

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_LADDER_H_
