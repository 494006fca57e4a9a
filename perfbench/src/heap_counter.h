#ifndef MOBREP_PERFBENCH_HEAP_COUNTER_H_
#define MOBREP_PERFBENCH_HEAP_COUNTER_H_

#include <cstdint>

namespace perfbench {

// Calls to the global operator new since process start, counted by the
// replacement operator new in heap_counter.cc. The benchmark is
// single-threaded, so a plain counter is exact.
int64_t HeapAllocations();

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_HEAP_COUNTER_H_
