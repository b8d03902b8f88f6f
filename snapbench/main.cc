// snapbench: the repository benchmark. Runs one workload, repeats set-up plus phase
// until --seconds have passed, checks every output against the reference model, and
// prints the metrics, the last line being one JSON object.
//
//   snapbench --workload snap_churn|snap_restore|cow_churn --seed N --seconds S
//             --trace 0|1
//   snapbench --self_test
//
// Host-time metrics are the least repetition; virtual-clock metrics and counters must
// agree exactly across repetitions (and with the traced repetition), else the run is
// reported incorrect.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "snapbench/harness.h"
#include "snapbench/model.h"
#include "snapbench/workloads.h"
#include "src/common/crc32.h"
#include "src/ftl/btree.h"
#include "src/obs/latency.h"
#include "src/obs/trace.h"

namespace snapbench {
namespace {

constexpr size_t kMinReps = 2;

// Results of the standalone CRC and B+tree timings land here so the timed work is kept.
volatile uint64_t g_sink = 0;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<uint64_t> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2;
}

double Mean(const std::vector<uint64_t>& v) {
  double sum = 0;
  for (uint64_t x : v) {
    sum += static_cast<double>(x);
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// Everything the run measured: the untraced repetitions and, with --trace 1, the
// traced one.
struct Run {
  std::vector<Rep> reps;
  Rep traced;
  double peak_rss_mib = 0;
  uint64_t attempted = 0;
};

// Fails `check` unless `b` reproduces every virtual-clock result and counter of `a`.
void ExpectSameVirtual(const Rep& a, const Rep& b, const std::string& check, Checker& checker) {
  auto same = [&](const char* what, bool ok) {
    checker.Expect(check, ok, std::string(what) + " differs between repetitions");
  };
  same("virt_ns", a.virt_ns + checker.Skew(check) == b.virt_ns);
  same("write latencies", a.write_ns == b.write_ns);
  same("read latencies", a.read_ns == b.read_ns);
  same("snapshot latencies", a.snap_ns == b.snap_ns);
  same("pages written", a.user_pages_written == b.user_pages_written);
  same("pages programmed", a.pages_programmed == b.pages_programmed);
  same("ops", a.ops == b.ops);
  same("counters", a.exact == b.exact);
}

Run Measure(const std::string& workload, uint64_t seed, bool small, double seconds,
            bool trace, HostClock::time_point process_start, Checker& checker) {
  Run run;
  HostClock::time_point rep_start = process_start;
  do {
    run.reps.push_back(RunWorkload(workload, seed, small, checker, nullptr, rep_start));
    run.attempted += run.reps.back().ops;
    if (run.reps.size() == 1) {
      run.peak_rss_mib = PeakRssMib();
    } else {
      // Only the first repetition keeps its samples, so memory does not grow with the
      // number of repetitions.
      ExpectSameVirtual(run.reps[0], run.reps.back(), "determinism", checker);
      run.reps.back().DropSamples();
    }
    rep_start = HostClock::now();
  } while (run.reps.size() < kMinReps || SecondsBetween(process_start, rep_start) < seconds);
  if (trace) {
    iosnap::TraceRecorder recorder(1 << 16);
    iosnap::LatencyAttributor attributor(4096);
    const Tracing tracing{&recorder, &attributor};
    run.traced = RunWorkload(workload, seed, small, checker, &tracing, HostClock::now());
    run.attempted += run.traced.ops;
    ExpectSameVirtual(run.reps[0], run.traced, "trace.identical", checker);
    run.traced.DropSamples();
  }
  return run;
}

// The least value of `f(rep)` over the untraced repetitions.
template <typename F>
double Least(const Run& run, F f) {
  double best = f(run.reps[0]);
  for (const Rep& rep : run.reps) {
    best = std::min(best, f(rep));
  }
  return best;
}

double HostNs(const Rep& rep, const char* name) {
  const auto it = rep.host.find(name);
  return it == rep.host.end() ? 0.0 : it->second.ns;
}

double HostNsPerUnit(const Rep& rep, const char* name) {
  const auto it = rep.host.find(name);
  return it == rep.host.end() ? 0.0 : it->second.NsPerUnit();
}

double Exact(const Rep& rep, const char* name) {
  const auto it = rep.exact.find(name);
  return it == rep.exact.end() ? 0.0 : it->second;
}

std::vector<Metric> EndToEnd(const Run& run) {
  const Rep& r = run.reps[0];
  return {
      {"setup_s", r.setup_s, "s"},
      {"host_s", Least(run, [](const Rep& x) { return x.HostS(); }), "s"},
      {"peak_rss_mib", run.peak_rss_mib, "MiB"},
      {"virt_s", static_cast<double>(r.virt_ns) * 1e-9, "s"},
      {"write_mean_us", Mean(r.write_ns) * 1e-3, "us"},
      {"write_p99_us", Percentile(r.write_ns, 0.99) * 1e-3, "us"},
      {"read_mean_us", Mean(r.read_ns) * 1e-3, "us"},
      {"read_p99_us", Percentile(r.read_ns, 0.99) * 1e-3, "us"},
      {"write_amp",
       static_cast<double>(r.pages_programmed) / static_cast<double>(r.user_pages_written),
       "ratio"},
      {"snapshot_ms", Mean(r.snap_ns) * 1e-6, "ms"},
  };
}

// Best-of-five host ns of Crc32 over one 4 KiB page.
double CrcNsPerPage() {
  std::vector<uint8_t> page(kPageBytes);
  FillPayload(1, 2, page);
  constexpr int kPages = 2048;
  double best = 1e300;
  uint32_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    const HostClock::time_point t0 = HostClock::now();
    for (int i = 0; i < kPages; ++i) {
      page[0] = static_cast<uint8_t>(i);
      sink ^= iosnap::Crc32(page);
    }
    best = std::min(best, SecondsBetween(t0, HostClock::now()) * 1e9 / kPages);
  }
  g_sink = g_sink + sink;
  return best;
}

// Best-of-three host ns per BPlusTree Insert of the write stream, and per Lookup of
// the read stream in a tree holding every key of both streams.
std::pair<double, double> BtreeNs(const Rep& rep) {
  double insert = 0;
  double lookup = 0;
  uint64_t sink = 0;
  for (int round = 0; round < 3; ++round) {
    iosnap::BPlusTree tree;
    HostClock::time_point t0 = HostClock::now();
    for (size_t i = 0; i < rep.write_lbas.size(); ++i) {
      tree.Insert(rep.write_lbas[i], i);
    }
    const double ins = rep.write_lbas.empty()
                           ? 0.0
                           : SecondsBetween(t0, HostClock::now()) * 1e9 /
                                 static_cast<double>(rep.write_lbas.size());
    for (uint64_t lba : rep.read_lbas) {
      tree.Insert(lba, lba);
    }
    t0 = HostClock::now();
    for (uint64_t lba : rep.read_lbas) {
      sink += tree.Lookup(lba).value_or(0);
    }
    const double look = rep.read_lbas.empty()
                            ? 0.0
                            : SecondsBetween(t0, HostClock::now()) * 1e9 /
                                  static_cast<double>(rep.read_lbas.size());
    insert = round == 0 ? ins : std::min(insert, ins);
    lookup = round == 0 ? look : std::min(lookup, look);
  }
  g_sink = g_sink + sink;
  return {insert, lookup};
}

std::vector<Metric> PerLayer(const Run& run) {
  const Rep& r = run.reps[0];
  const double crc_ns = CrcNsPerPage();
  const double crc_pages = Exact(r, "nand.pages_programmed") + Exact(r, "nand.pages_read") +
                           Exact(r, "nand.headers_scanned");
  const auto [btree_insert, btree_lookup] = BtreeNs(r);
  auto host_us = [&](const char* name) {
    return Least(run, [&](const Rep& x) { return HostNsPerUnit(x, name); }) * 1e-3;
  };
  auto host_s = [&](const char* name) {
    return Least(run, [&](const Rep& x) { return HostNs(x, name); }) * 1e-9;
  };
  auto write_us = [&](const Rep& x) {
    const auto gc = x.host.find("ftl.write_gc");
    const auto nogc = x.host.find("ftl.write_nogc");
    Acc all;
    for (auto it : {gc, nogc}) {
      if (it != x.host.end()) {
        all.ns += it->second.ns;
        all.units += it->second.units;
      }
    }
    return all.NsPerUnit() * 1e-3;
  };
  const double cleaned = Exact(r, "gc.segments_cleaned");
  std::vector<Metric> m = {
      {"crc.host_ns_per_page", crc_ns, "ns"},
      {"crc.pages", crc_pages, "count"},
      {"crc.est_host_s", r.payloads ? crc_pages * crc_ns * 1e-9 : 0.0, "s"},
      {"ftl.write.host_us", Least(run, write_us), "us"},
      {"ftl.write_gc.host_us", host_us("ftl.write_gc"), "us"},
      {"ftl.write_nogc.host_us", host_us("ftl.write_nogc"), "us"},
      {"ftl.read.host_us", host_us("ftl.read"), "us"},
      {"ftl.snapshot_create.host_us", host_us("ftl.snapshot_create"), "us"},
      {"ftl.snapshot_delete.host_us", host_us("ftl.snapshot_delete"), "us"},
      {"ftl.pump.host_s", host_s("ftl.pump"), "s"},
      {"btree.insert.host_ns", btree_insert, "ns"},
      {"btree.lookup.host_ns", btree_lookup, "ns"},
      {"map.memory_bytes", Exact(r, "map.memory_bytes"), "bytes"},
      {"gc.segments_cleaned", cleaned, "count"},
      {"gc.pages_copied", Exact(r, "gc.pages_copied"), "count"},
      {"gc.pages_copied_per_segment",
       cleaned == 0 ? 0.0 : Exact(r, "gc.pages_copied") / cleaned, "pages"},
      {"gc.inline_stalls", Exact(r, "gc.inline_stalls"), "count"},
      {"validity.cow_events", Exact(r, "validity.cow_events"), "count"},
      {"validity.cow_bytes", Exact(r, "validity.cow_bytes"), "bytes"},
      {"validity.memory_bytes", Exact(r, "validity.memory_bytes"), "bytes"},
      {"recovery.host_s", host_s("ftl.recovery"), "s"},
      {"recovery.virt_ms", Exact(r, "recovery.virt_ns") * 1e-6, "ms"},
      {"activation.host_s", host_s("ftl.activation"), "s"},
      {"activation.virt_ms", Exact(r, "activation.virt_ns") * 1e-6, "ms"},
      {"activation.segments_scanned", Exact(r, "activation.segments_scanned"), "count"},
      {"activation.entries", Exact(r, "activation.entries"), "count"},
      {"rollback.host_s", host_s("ftl.rollback"), "s"},
      {"rollback.virt_ms", Exact(r, "rollback.virt_ns") * 1e-6, "ms"},
      {"queue.submissions", Exact(r, "queue.submissions"), "count"},
      {"queue.max_inflight_ops", Exact(r, "queue.max_inflight_ops"), "count"},
      {"nand.pages_programmed", Exact(r, "nand.pages_programmed"), "count"},
      {"nand.pages_read", Exact(r, "nand.pages_read"), "count"},
      {"nand.headers_scanned", Exact(r, "nand.headers_scanned"), "count"},
      {"nand.segments_erased", Exact(r, "nand.segments_erased"), "count"},
      {"nand.bus_busy_frac", Exact(r, "nand.bus_ns") / static_cast<double>(r.virt_ns), "frac"},
      {"cow.write.host_us", host_us("cow.write"), "us"},
      {"cow.snapshot_create.host_ms", host_us("cow.snapshot_create") * 1e-3, "ms"},
      {"cow.node_clones", Exact(r, "cow.node_clones"), "count"},
      {"cow.metadata_writes", Exact(r, "cow.metadata_writes"), "count"},
      {"cow.commits", Exact(r, "cow.commits"), "count"},
  };
  for (const auto& [name, value] : run.traced.spans) {
    m.push_back({name, value, "ms"});
  }
  m.push_back({"bench.model.host_s",
               Least(run, [](const Rep& x) { return x.phase_wall_s - x.HostS(); }), "s"});
  m.push_back({"trace.host_s", run.traced.HostS(), "s"});
  return m;
}

void PrintResult(const Run& run, const Checker& checker, bool trace) {
  const Rep& r = run.reps[0];
  std::printf("repetitions %zu (host metrics: least repetition); host_s of each:",
              run.reps.size());
  for (const Rep& rep : run.reps) {
    std::printf(" %.4f", rep.HostS());
  }
  std::printf("\n");
  std::printf("samples: writes %zu, reads %zu, snapshot ops %zu\n", r.write_ns.size(),
              r.read_ns.size(), r.snap_ns.size());
  std::printf("medians (virtual): write %.1f us, read %.1f us, snapshot %.4f ms\n",
              Median(r.write_ns) * 1e-3, Median(r.read_ns) * 1e-3, Median(r.snap_ns) * 1e-6);
  const std::vector<Metric> e2e = EndToEnd(run);
  for (const Metric& m : e2e) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::vector<Metric> layers;
  if (trace) {
    layers = PerLayer(run);
    for (const Metric& m : layers) {
      std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("tracing overhead (traced host_s - least untraced host_s): %.6f s\n",
                run.traced.HostS() - e2e[1].value);
  }
  for (const auto& [check, n] : checker.evaluated()) {
    std::printf("check %-20s %10llu evaluations %s\n", check.c_str(),
                static_cast<unsigned long long>(n),
                checker.failed().count(check) != 0 ? "FAILED" : "ok");
  }
  const std::vector<Metric>& out = trace ? layers : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": 0, \"metrics\": {",
              checker.ok() ? "true" : "false", static_cast<unsigned long long>(run.attempted));
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out[i].name.c_str(), out[i].value, out[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Runs every workload small, once clean and once per check with that check's
// expectation perturbed; each perturbation must fail exactly its own check.
int SelfTest() {
  bool all_ok = true;
  for (const std::string& workload : WorkloadNames()) {
    std::vector<std::string> checks = WorkloadChecks(workload);
    checks.push_back("determinism");
    checks.push_back("trace.identical");
    checks.insert(checks.begin(), "");
    for (const std::string& perturb : checks) {
      Checker checker(perturb);
      Measure(workload, 7, true, 0, true, HostClock::now(), checker);
      const bool ok = perturb.empty()
                          ? checker.ok()
                          : checker.failed() == std::set<std::string>{perturb};
      all_ok = all_ok && ok;
      std::printf("self-test %-12s perturb %-18s -> %-6s %s\n", workload.c_str(),
                  perturb.empty() ? "(none)" : perturb.c_str(),
                  checker.ok() ? "passes" : "fails", ok ? "as expected" : "UNEXPECTED");
    }
  }
  std::printf("self-test %s\n", all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: snapbench --workload snap_churn|snap_restore|cow_churn --seed N "
               "--seconds S --trace 0|1\n       snapbench --self_test\n");
  return 2;
}

}  // namespace
}  // namespace snapbench

int main(int argc, char** argv) {
  using namespace snapbench;
  const HostClock::time_point process_start = HostClock::now();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self_test") {
      return SelfTest();
    }
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage();
    }
    args[arg.substr(2)] = argv[++i];
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (args.size() != 4 || args.count("workload") == 0 || args.count("seed") == 0 ||
      args.count("seconds") == 0 || args.count("trace") == 0 ||
      std::find(names.begin(), names.end(), args["workload"]) == names.end() ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  Checker checker;
  try {
    const Run run = Measure(args["workload"], seed, false, seconds, trace, process_start,
                            checker);
    PrintResult(run, checker, trace);
  } catch (const OpFailed& e) {
    std::fprintf(stderr, "snapbench: operation failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
