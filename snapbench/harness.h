// Shared plumbing for the snapbench workloads: host timers, named model checks, and
// the per-repetition record each workload returns.

#ifndef SNAPBENCH_HARNESS_H_
#define SNAPBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace snapbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsBetween(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Host time spent in one kind of library call, and the units of work it covered
// (calls, or pages for vectored calls).
struct Acc {
  double ns = 0;
  uint64_t units = 0;

  double NsPerUnit() const { return units == 0 ? 0.0 : ns / static_cast<double>(units); }
};

// Times one library call into `acc`.
template <typename F>
auto Timed(Acc& acc, uint64_t units, F&& call) {
  const HostClock::time_point t0 = HostClock::now();
  auto result = call();
  acc.ns += std::chrono::duration<double, std::nano>(HostClock::now() - t0).count();
  acc.units += units;
  return result;
}

// An operation the program refused: the run cannot continue from a state the model no
// longer describes.
struct OpFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Must(iosnap::StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    throw OpFailed(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(*result);
}

inline void Must(const iosnap::Status& status, const char* what) {
  if (!status.ok()) {
    throw OpFailed(std::string(what) + ": " + status.ToString());
  }
}

// Named model checks. For the self-test one check can be perturbed: the first
// expectation it computes is skewed by one (Skew), which must make it fail.
class Checker {
 public:
  explicit Checker(std::string perturb = "") : perturb_(std::move(perturb)) {}

  // 1 the first time `check` is the perturbed check, else 0. Callers add it to the
  // expected value before comparing.
  uint64_t Skew(const std::string& check) {
    if (check != perturb_ || skewed_) {
      return 0;
    }
    skewed_ = true;
    return 1;
  }

  void Expect(const std::string& check, bool ok, const std::string& detail = "") {
    ++evaluated_[check];
    if (!ok && failed_.insert(check).second) {
      std::fprintf(stderr, "check %s failed%s%s\n", check.c_str(),
                   detail.empty() ? "" : ": ", detail.c_str());
    }
  }

  bool ok() const { return failed_.empty(); }
  const std::set<std::string>& failed() const { return failed_; }
  const std::map<std::string, uint64_t>& evaluated() const { return evaluated_; }

 private:
  std::string perturb_;
  bool skewed_ = false;
  std::map<std::string, uint64_t> evaluated_;
  std::set<std::string> failed_;
};

// One repetition of set-up plus measured phase.
struct Rep {
  double setup_s = 0;        // Host time of the set-up (from process start on the first).
  double phase_wall_s = 0;   // Host time of the whole phase, model and checks included.
  std::map<std::string, Acc> host;  // Library calls made in the phase, by kind.

  // Virtual-clock results and counters: a function of the seed alone, so every
  // repetition must reproduce them exactly.
  uint64_t virt_ns = 0;
  std::vector<uint64_t> write_ns;  // Per user page written.
  std::vector<uint64_t> read_ns;   // Per user page read.
  std::vector<uint64_t> snap_ns;   // Per snapshot operation (create or activation).
  uint64_t user_pages_written = 0;
  uint64_t pages_programmed = 0;
  uint64_t ops = 0;
  bool payloads = true;            // Pages carry 4 KiB payloads (CRC covers them).
  std::map<std::string, double> exact;  // Per-layer counters and virtual times.

  std::vector<uint64_t> write_lbas;  // The phase's LBA streams, for the B+tree replay.
  std::vector<uint64_t> read_lbas;
  std::map<std::string, double> spans;  // Traced repetition only (virtual ms totals).

  void DropSamples() {
    write_ns = {};
    read_ns = {};
    snap_ns = {};
    write_lbas = {};
    read_lbas = {};
  }

  double HostS() const {
    double ns = 0;
    for (const auto& [name, acc] : host) {
      ns += acc.ns;
    }
    return ns * 1e-9;
  }
};

// Exact order statistic (nearest rank) of a sample, in the sample's unit.
inline double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

}  // namespace snapbench

#endif  // SNAPBENCH_HARNESS_H_
