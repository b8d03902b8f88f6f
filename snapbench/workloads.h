// The three snapbench workloads. Each call runs one repetition: set-up plus measured
// phase, from the seed alone, on a fresh device.

#ifndef SNAPBENCH_WORKLOADS_H_
#define SNAPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "snapbench/harness.h"
#include "src/obs/latency.h"
#include "src/obs/trace.h"

namespace snapbench {

// The program's own recorder and attributor, attached for the traced repetition only.
struct Tracing {
  iosnap::TraceRecorder* trace = nullptr;
  iosnap::LatencyAttributor* attributor = nullptr;
};

const std::vector<std::string>& WorkloadNames();

// The model checks a workload evaluates (the self-test perturbs each in turn).
std::vector<std::string> WorkloadChecks(const std::string& workload);

// `small` shrinks the device and the phase for the self-test. `setup_start` is when the
// set-up clock starts: process start for the first repetition.
Rep RunWorkload(const std::string& workload, uint64_t seed, bool small, Checker& checker,
                const Tracing* tracing, HostClock::time_point setup_start);

}  // namespace snapbench

#endif  // SNAPBENCH_WORKLOADS_H_
