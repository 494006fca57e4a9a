#ifndef MOBREP_PERFBENCH_WORKLOAD_UTIL_H_
#define MOBREP_PERFBENCH_WORKLOAD_UTIL_H_

// Helpers shared by the workload files.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mobrep/common/random.h"
#include "workload.h"

namespace perfbench {

// Keeps a computed value alive so the optimizer cannot drop the work.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// Sets every span-timed layer metric (dispatch, channel, fault model, ARQ,
// MC/SC handlers) from the current ledger.
void ReportSpanLayerTimes(LayerReport* report);

// store.put_ns / store.get_ns / replica_cache.install_ns from direct calls
// replaying the given numbers of puts, gets and installs.
void MeasureStoreCalls(int64_t puts, int64_t gets, int64_t installs,
                       LayerReport* report);

// wal.append_ns / wal.recover_ns_per_record from direct calls: `records`
// AppendPut calls on a fresh log at `path`, then one Recover of it. A log
// that does not replay every record is a mismatch in `check`.
void MeasureWalCalls(int64_t records, const std::string& path,
                     LayerReport* report, Checker* check);

// Fisher-Yates shuffle driven by the seeded stream.
template <typename T>
void Shuffle(std::vector<T>* v, mobrep::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->UniformInt(i)]);
  }
}

// Wall-clock deadline helper.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(NowNs() + static_cast<int64_t>(seconds * 1e9)) {}
  bool passed() const { return NowNs() >= end_ns_; }

 private:
  int64_t end_ns_;
};

}  // namespace perfbench

#endif  // MOBREP_PERFBENCH_WORKLOAD_UTIL_H_
