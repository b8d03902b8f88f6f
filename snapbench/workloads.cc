#include "snapbench/workloads.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "snapbench/model.h"
#include "src/baseline/cow_store.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"

namespace snapbench {
namespace {

using iosnap::Ftl;
using iosnap::FtlConfig;
using iosnap::IoResult;

// Workload sizes. The device is 128 MiB (128 segments of 256 x 4 KiB pages, 16
// channels, 25% overprovisioned); the self-test runs the same shapes on a quarter of it.
struct Params {
  uint64_t segments = 128;
  uint64_t working_set = 0;     // LBAs [0, working_set) are prefilled and then used.
  uint64_t ops = 0;             // Measured user ops (snap_churn, cow_churn).
  uint64_t snapshot_every = 0;  // Writes between snapshots.
  uint64_t keep = 0;            // Newest snapshots kept live.
  uint64_t generations = 0;     // snap_restore: snapshots in the history.
  uint64_t gen_writes = 0;      // snap_restore: random overwrites per generation.
  iosnap::RateLimit limit;      // snap_restore: activation pacing.
  uint32_t clients = 16;        // Closed-loop clients; also the queued-read iodepth.
};

Params ParamsFor(const std::string& workload, bool small) {
  Params p;
  if (workload == "snap_restore") {
    p.working_set = 8192;
    p.generations = 4;
    p.gen_writes = 2048;
    p.limit = iosnap::RateLimit::Of(500, 5);
  } else {
    // The churn stream. snap_churn: half the device is the working set, and 64 live
    // snapshots pin the deltas of the last 8Ki writes, which keeps the cleaner copying.
    // cow_churn: the CowStore volume is ~37% of the device and its snapshots pin
    // metadata too, so its working set is smaller.
    p.working_set = workload == "snap_churn" ? 16384 : 6144;
    p.ops = workload == "snap_churn" ? 120000 : 200000;
    p.snapshot_every = 128;
    p.keep = 64;
  }
  if (small) {
    p.segments /= 4;
    p.working_set /= 4;
    p.ops /= 20;
    p.gen_writes /= 4;
    p.keep /= 4;
  }
  return p;
}

FtlConfig DeviceConfig(const Params& p, bool snapshots) {
  FtlConfig config;
  config.nand.page_size_bytes = kPageBytes;
  config.nand.pages_per_segment = 256;
  config.nand.num_segments = p.segments;
  config.nand.num_channels = 16;
  config.nand.store_data = snapshots;  // The CowStore writes header-only pages.
  config.snapshots_enabled = snapshots;
  return config;
}

// Counters read at the start of a phase; Finish turns them into per-phase deltas.
struct PhaseCounters {
  iosnap::FtlStats ftl_at_start;
  iosnap::NandStats nand_at_start;
  uint64_t bus_ns = 0;
  uint64_t start_ns = 0;

  static PhaseCounters Take(const Ftl& ftl, const iosnap::NandStats& nand, uint64_t bus_ns,
                            uint64_t now) {
    return PhaseCounters{ftl.stats(), nand, bus_ns, now};
  }

  void Finish(const Ftl& ftl, uint64_t end_ns, Rep* rep) const {
    const iosnap::FtlStats& f = ftl.stats();
    const iosnap::FtlStats& f0 = ftl_at_start;
    const iosnap::NandStats& n = ftl.device().stats();
    const iosnap::NandStats& n0 = nand_at_start;
    auto& x = rep->exact;
    x["gc.segments_cleaned"] = f.gc_segments_cleaned - f0.gc_segments_cleaned;
    x["gc.pages_copied"] = f.gc_pages_copied - f0.gc_pages_copied;
    x["gc.inline_stalls"] = f.gc_inline_stalls - f0.gc_inline_stalls;
    x["validity.cow_events"] = f.validity_cow_events - f0.validity_cow_events;
    x["validity.cow_bytes"] = f.validity_cow_bytes - f0.validity_cow_bytes;
    x["activation.segments_scanned"] =
        f.activation_segments_scanned - f0.activation_segments_scanned;
    x["activation.entries"] = f.activation_entries - f0.activation_entries;
    x["nand.pages_programmed"] = n.pages_programmed - n0.pages_programmed;
    x["nand.pages_read"] = n.pages_read - n0.pages_read;
    x["nand.headers_scanned"] = n.headers_scanned - n0.headers_scanned;
    x["nand.segments_erased"] = n.segments_erased - n0.segments_erased;
    x["nand.bus_ns"] = ftl.device().BusActiveNs(0) - bus_ns;
    x["map.memory_bytes"] = Must(ftl.ViewMapMemoryBytes(iosnap::kPrimaryView), "map memory");
    x["validity.memory_bytes"] = ftl.validity().MemoryBytes();
    rep->pages_programmed = n.pages_programmed - n0.pages_programmed;
    rep->virt_ns = end_ns - start_ns;
  }
};

// One primary write, timed into ftl.write_gc or ftl.write_nogc by whether the cleaner
// copied pages during the call.
IoResult TimedWrite(Rep& rep, Ftl& ftl, uint64_t lba, std::span<const uint8_t> page,
                    uint64_t now) {
  const uint64_t copied_before = ftl.stats().gc_pages_copied;
  const HostClock::time_point t0 = HostClock::now();
  auto io = ftl.Write(lba, page, now);
  const double ns = std::chrono::duration<double, std::nano>(HostClock::now() - t0).count();
  Acc& acc = rep.host[ftl.stats().gc_pages_copied != copied_before ? "ftl.write_gc"
                                                                    : "ftl.write_nogc"];
  acc.ns += ns;
  ++acc.units;
  const IoResult result = Must(std::move(io), "write");
  rep.write_ns.push_back(result.LatencyNs());
  return result;
}

void AttachTracing(Ftl* ftl, const Tracing* tracing) {
  if (tracing != nullptr) {
    ftl->SetTraceRecorder(tracing->trace);
    ftl->SetLatencyAttributor(tracing->attributor);
  }
}

void CollectSpans(const Tracing* tracing, Rep* rep) {
  if (tracing == nullptr) {
    return;
  }
  using iosnap::LatencySpan;
  for (LatencySpan s : {LatencySpan::kQueueWait, LatencySpan::kGcWait, LatencySpan::kBus,
                        LatencySpan::kCell, LatencySpan::kMap, LatencySpan::kCow,
                        LatencySpan::kHostOther}) {
    rep->spans[std::string("span.") + iosnap::LatencySpanName(s) + "_ms"] =
        static_cast<double>(tracing->attributor->SpanTotalNs(s)) * 1e-6;
  }
}

std::string ReadDetail(uint64_t lba, uint64_t seq) {
  return "lba " + std::to_string(lba) + " does not hold write " + std::to_string(seq);
}

// Checks SnapshotSpaceReport of every snapshot in `ids` against the counts computed
// from the model's version vectors.
template <typename Ids>
void CheckSpace(const Ftl& ftl, const Model& model, const Ids& ids, Checker& checker) {
  for (uint32_t id : ids) {
    const Ftl::SnapshotSpace got = Must(ftl.SnapshotSpaceReport(id), "space report");
    const SpaceCounts want = model.Space(id);
    const std::string detail = "snapshot " + std::to_string(id);
    checker.Expect("space.referenced",
                   got.referenced_pages == want.referenced + checker.Skew("space.referenced"),
                   detail);
    checker.Expect("space.exclusive",
                   got.exclusive_pages == want.exclusive + checker.Skew("space.exclusive"),
                   detail);
  }
}

// Sequentially writes [0, n) through the primary, recording each write in the model.
uint64_t Prefill(Ftl& ftl, Model& model, uint64_t n, uint64_t now) {
  std::vector<uint8_t> page(kPageBytes);
  for (uint64_t lba = 0; lba < n; ++lba) {
    FillPayload(lba, model.Write(lba), page);
    now = Must(ftl.Write(lba, page, now), "prefill write").CompletionNs();
  }
  return now;
}

// Returned by a closed-loop op to park its client until every client is parked.
inline constexpr uint64_t kPark = ~0ull;

// Runs `clients` closed-loop clients: a client issues its next op when its previous one
// completes, and ops are issued in virtual-time order. `next(client, issue_ns)` performs
// the client's next op and returns its completion time, nullopt once the client has no
// more work, or kPark. Once every client still working is parked (nothing is in
// flight), `barrier(now_ns)` runs and the parked clients resume at the time it returns.
// Returns when the last op completes.
template <typename Next, typename Barrier>
uint64_t ClosedLoop(uint32_t clients, uint64_t start_ns, Next next, Barrier barrier) {
  using Slot = std::pair<uint64_t, uint32_t>;  // (next issue time, client)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> ready;
  for (uint32_t c = 0; c < clients; ++c) {
    ready.push({start_ns, c});
  }
  std::vector<uint32_t> parked;
  uint64_t end = start_ns;
  while (!ready.empty()) {
    const auto [issue, client] = ready.top();
    ready.pop();
    const std::optional<uint64_t> done = next(client, issue);
    if (done == kPark) {
      parked.push_back(client);
    } else if (done.has_value()) {
      end = std::max(end, *done);
      ready.push({std::max(issue, *done), client});
    }
    if (ready.empty() && !parked.empty()) {
      const uint64_t resume = std::max(issue, barrier(issue));
      end = std::max(end, resume);
      for (uint32_t c : parked) {
        ready.push({resume, c});
      }
      parked.clear();
    }
  }
  return end;
}

template <typename Next>
uint64_t ClosedLoop(uint32_t clients, uint64_t start_ns, Next next) {
  return ClosedLoop(clients, start_ns, next, [](uint64_t now) { return now; });
}

// ---------------------------------------------------------------------------------------
// The churn stream shared by snap_churn and cow_churn: uniform random overwrites (90%)
// and reads (10%) over the working set from p.clients closed-loop clients, with a
// snapshot every p.snapshot_every writes and only the newest p.keep kept live.
//
// A snapshot is taken at a quiescent point: once it is requested, clients stop issuing,
// the create is issued when the last in-flight op completes, and the clients resume when
// it completes. Its latency runs from the request to the create's completion.
//
// `target` provides Read/Write(lba, now) and Snapshot(now), each returning the op's
// completion time, and ftl(), the FTL whose background work is pumped.
template <typename Target>
uint64_t ChurnPhase(const Params& p, Gen& gen, Target& target, Rep& rep, uint64_t begin) {
  Acc& pump = rep.host["ftl.pump"];
  uint64_t issued = 0;
  uint64_t writes = 0;
  bool snapshot_due = false;
  uint64_t snapshot_requested = 0;
  return ClosedLoop(
      p.clients, begin,
      [&](uint32_t, uint64_t now) -> std::optional<uint64_t> {
        if (snapshot_due) {
          return kPark;
        }
        if (issued == p.ops) {
          return std::nullopt;
        }
        ++issued;
        ++rep.ops;
        Timed(pump, 1, [&] { target.ftl().PumpBackground(now); return 0; });
        const uint64_t lba = gen.Below(p.working_set);
        if (gen.Below(10) == 0) {
          rep.read_lbas.push_back(lba);
          return target.Read(lba, now);
        }
        rep.write_lbas.push_back(lba);
        ++rep.user_pages_written;
        if (++writes % p.snapshot_every == 0) {
          snapshot_due = true;
          snapshot_requested = now;
        }
        return target.Write(lba, now);
      },
      [&](uint64_t now) {
        const uint64_t done = target.Snapshot(now);
        rep.snap_ns.push_back(done - snapshot_requested);
        snapshot_due = false;
        return done;
      });
}

// snap_churn: the churn stream on ioSnap through the scalar primary calls, every read
// checked against the model.
struct FtlChurnTarget {
  Ftl& ftl_;
  Model& model;
  Checker& checker;
  Rep& rep;
  uint64_t keep = 0;
  std::vector<uint8_t> page = std::vector<uint8_t>(kPageBytes);
  std::deque<uint32_t> live;

  Ftl& ftl() { return ftl_; }

  uint64_t Read(uint64_t lba, uint64_t now) {
    const IoResult io =
        Must(Timed(rep.host["ftl.read"], 1, [&] { return ftl_.Read(lba, now, &page); }), "read");
    const uint64_t want = model.Primary(lba) + checker.Skew("read.primary");
    checker.Expect("read.primary", PayloadMatches(page, lba, want), ReadDetail(lba, want));
    rep.read_ns.push_back(io.LatencyNs());
    return io.CompletionNs();
  }

  uint64_t Write(uint64_t lba, uint64_t now) {
    FillPayload(lba, model.Write(lba), page);
    return TimedWrite(rep, ftl_, lba, page, now).CompletionNs();
  }

  uint64_t Snapshot(uint64_t now) {
    const iosnap::SnapshotOpResult snap =
        Must(Timed(rep.host["ftl.snapshot_create"], 1,
                   [&] { return ftl_.CreateSnapshot("churn", now); }),
             "create snapshot");
    model.Snapshot(snap.snap_id);
    live.push_back(snap.snap_id);
    ++rep.ops;
    uint64_t done = snap.io.CompletionNs();
    if (live.size() > keep) {
      const IoResult d = Must(Timed(rep.host["ftl.snapshot_delete"], 1,
                                    [&] { return ftl_.DeleteSnapshot(live.front(), done); }),
                              "delete snapshot");
      model.Delete(live.front());
      live.pop_front();
      done = std::max(done, d.CompletionNs());
      ++rep.ops;
    }
    return done;
  }
};

Rep SnapChurn(uint64_t seed, bool small, Checker& checker, const Tracing* tracing,
              HostClock::time_point setup_start) {
  const Params p = ParamsFor("snap_churn", small);
  Rep rep;
  Gen gen(seed);
  Model model(p.working_set);
  std::unique_ptr<Ftl> ftl = Must(Ftl::Create(DeviceConfig(p, true)), "create");
  // Set-up: prefill the working set, then overwrite it once at random so the cleaner is
  // already running when the phase starts.
  uint64_t now = Prefill(*ftl, model, p.working_set, 0);
  std::vector<uint8_t> page(kPageBytes);
  for (uint64_t i = 0; i < p.working_set; ++i) {
    const uint64_t lba = gen.Below(p.working_set);
    FillPayload(lba, model.Write(lba), page);
    now = Must(ftl->Write(lba, page, now), "aging write").CompletionNs();
  }
  const HostClock::time_point phase_start = HostClock::now();
  rep.setup_s = SecondsBetween(setup_start, phase_start);

  AttachTracing(ftl.get(), tracing);
  const PhaseCounters start =
      PhaseCounters::Take(*ftl, ftl->device().stats(), ftl->device().BusActiveNs(0), now);
  FtlChurnTarget target{
      .ftl_ = *ftl, .model = model, .checker = checker, .rep = rep, .keep = p.keep, .live = {}};
  const uint64_t end = ChurnPhase(p, gen, target, rep, now);
  start.Finish(*ftl, end, &rep);
  CollectSpans(tracing, &rep);
  rep.phase_wall_s = SecondsBetween(phase_start, HostClock::now());

  // Space accounting against the model (a check: outside the phase).
  CheckSpace(*ftl, model, target.live, checker);
  return rep;
}

// ---------------------------------------------------------------------------------------
// snap_restore: recovery, paced activation under queued reads, restore and rollback.

struct Restore {
  Rep& rep;
  Checker& checker;
  Model& model;
  Ftl* ftl = nullptr;
  uint64_t now = 0;
  uint64_t working_set = 0;
  uint32_t clients = 0;

  // Reads one page of `view` and checks it against write `seq`.
  uint64_t ReadChecked(uint32_t view, uint64_t lba, uint64_t issue, const std::string& check,
                       uint64_t seq, std::vector<uint8_t>* page) {
    std::vector<std::vector<uint8_t>> data;
    const IoResult io = Must(Timed(rep.host["ftl.read"], 1,
                                   [&] { return ftl->ReadViewV(view, {&lba, 1}, issue, &data); }),
                             "read view")[0];
    seq += checker.Skew(check);
    checker.Expect(check, PayloadMatches(data[0], lba, seq), ReadDetail(lba, seq));
    rep.read_lbas.push_back(lba);
    rep.read_ns.push_back(io.LatencyNs());
    ++rep.ops;
    *page = std::move(data[0]);
    return io.CompletionNs();
  }

  // Reads every LBA of `view` from the closed-loop clients, checking each page against
  // write `want(lba)`.
  template <typename Want>
  void ReadAll(uint32_t view, const std::string& check, Want want) {
    uint64_t cursor = 0;
    std::vector<uint8_t> page;
    now = ClosedLoop(clients, now, [&](uint32_t, uint64_t issue) -> std::optional<uint64_t> {
      if (cursor == working_set) {
        return std::nullopt;
      }
      const uint64_t lba = cursor++;
      return ReadChecked(view, lba, issue, check, want(lba), &page);
    });
  }

  // Restores snapshot `snap`, activated as `view`, into the primary: each client reads
  // a view page, reads the primary page, and writes the view's page back if they differ.
  void RestoreFrom(uint32_t view, uint32_t snap) {
    struct Client {
      uint64_t lba = 0;
      int step = 0;  // 0: read the view, 1: read the primary, 2: copy back.
      std::vector<uint8_t> snap_page;
      std::vector<uint8_t> primary_page;
    };
    std::vector<Client> state(clients);
    uint64_t cursor = 0;
    now = ClosedLoop(clients, now, [&](uint32_t c, uint64_t issue) -> std::optional<uint64_t> {
      Client& s = state[c];
      if (s.step == 0) {
        if (cursor == working_set) {
          return std::nullopt;
        }
        s.lba = cursor++;
        s.step = 1;
        return ReadChecked(view, s.lba, issue, "read.view", model.Snap(snap, s.lba),
                           &s.snap_page);
      }
      if (s.step == 1) {
        const uint64_t done = ReadChecked(iosnap::kPrimaryView, s.lba, issue, "read.primary",
                                          model.Primary(s.lba), &s.primary_page);
        s.step = s.primary_page == s.snap_page ? 0 : 2;
        return done;
      }
      s.step = 0;
      const IoResult io = TimedWrite(rep, *ftl, s.lba, s.snap_page, issue);
      model.Restore(s.lba, model.Snap(snap, s.lba));
      rep.write_lbas.push_back(s.lba);
      ++rep.user_pages_written;
      ++rep.ops;
      return io.CompletionNs();
    });
  }

  // Begins a paced activation of `snap` and keeps `clients` verified primary reads in
  // flight through the queue layer until it completes. Returns the view id.
  uint32_t ActivateUnderReads(uint32_t snap, const iosnap::RateLimit& limit, Gen& gen) {
    Acc& act = rep.host["ftl.activation"];
    Acc& queue = rep.host["queue"];
    const uint64_t begin = now;
    const uint32_t view =
        Must(Timed(act, 1, [&] { return ftl->BeginActivation(snap, limit, now); }), "activate");
    ++rep.ops;
    iosnap::IoQueueLayer q(ftl, {.queues = 1, .iodepth = clients});
    auto deliver = [&](const std::vector<iosnap::IoCompletion>& done) {
      for (const iosnap::IoCompletion& c : done) {
        Must(c.status, "queued read");
        const uint64_t seq = model.Primary(c.lba) + checker.Skew("read.queued");
        checker.Expect("read.queued", PayloadMatches(c.data, c.lba, seq), ReadDetail(c.lba, seq));
        rep.read_ns.push_back(c.result.LatencyNs());
        now = std::max(now, c.CompletionNs());
      }
    };
    while (true) {
      Timed(act, 0, [&] { ftl->PumpBackground(now); return 0; });
      if (ftl->ActivationDone(view)) {
        break;
      }
      while (q.CanSubmit(0)) {
        iosnap::QueueOp op;
        op.kind = iosnap::QueueOpKind::kRead;
        op.lba = gen.Below(working_set);
        rep.read_lbas.push_back(op.lba);
        Must(Timed(queue, 1, [&] { return q.Submit(0, {&op, 1}, now); }), "submit");
        ++rep.ops;
      }
      const std::optional<uint64_t> next = Timed(queue, 0, [&] { return q.NextCompletionNs(); });
      now = std::max(now, next.value_or(now));
      deliver(Timed(queue, 0, [&] { return q.PollCompletions(now); }));
    }
    const uint64_t activated_ns = now - begin;
    deliver(Timed(queue, 0, [&] { return q.Drain(); }));
    rep.snap_ns.push_back(activated_ns);
    rep.exact["activation.virt_ns"] += static_cast<double>(activated_ns);
    rep.exact["queue.submissions"] += static_cast<double>(q.stats().submissions);
    rep.exact["queue.max_inflight_ops"] = std::max(
        rep.exact["queue.max_inflight_ops"], static_cast<double>(q.stats().max_inflight_ops));
    return view;
  }

  void Deactivate(uint32_t view) {
    Must(Timed(rep.host["ftl.activation"], 0, [&] { return ftl->Deactivate(view, now); }),
         "deactivate");
    ++rep.ops;
  }
};

Rep SnapRestore(uint64_t seed, bool small, Checker& checker, const Tracing* tracing,
                HostClock::time_point setup_start) {
  const Params p = ParamsFor("snap_restore", small);
  const FtlConfig config = DeviceConfig(p, true);
  Rep rep;
  Gen gen(seed);
  Model model(p.working_set);
  std::unique_ptr<Ftl> ftl = Must(Ftl::Create(config), "create");
  uint64_t now = Prefill(*ftl, model, p.working_set, 0);
  std::vector<uint8_t> page(kPageBytes);
  std::vector<uint32_t> snaps;
  auto overwrite = [&] {
    for (uint64_t i = 0; i < p.gen_writes; ++i) {
      const uint64_t lba = gen.Below(p.working_set);
      FillPayload(lba, model.Write(lba), page);
      now = Must(ftl->Write(lba, page, now), "history write").CompletionNs();
    }
  };
  for (uint64_t g = 0; g < p.generations; ++g) {
    overwrite();
    const iosnap::SnapshotOpResult snap =
        Must(ftl->CreateSnapshot("gen-" + std::to_string(g), now), "create snapshot");
    model.Snapshot(snap.snap_id);
    snaps.push_back(snap.snap_id);
    now = snap.io.CompletionNs();
  }
  overwrite();
  // Crash: drop the FTL without a checkpoint; the device keeps the log.
  std::unique_ptr<iosnap::NandDevice> device = ftl->ReleaseDevice();
  ftl.reset();
  const iosnap::NandStats nand_before = device->stats();
  const uint64_t bus_before = device->BusActiveNs(0);
  const HostClock::time_point phase_start = HostClock::now();
  rep.setup_s = SecondsBetween(setup_start, phase_start);

  // 1. Crash recovery, then a verified read of the whole primary.
  const uint64_t phase_begin = now;
  uint64_t recovered_ns = 0;
  ftl = Must(Timed(rep.host["ftl.recovery"], 1,
                   [&] {
                     return Ftl::Open(config, std::move(device), now, &recovered_ns,
                                      tracing != nullptr ? tracing->trace : nullptr);
                   }),
             "recover");
  ++rep.ops;
  AttachTracing(ftl.get(), tracing);
  const PhaseCounters start = PhaseCounters::Take(*ftl, nand_before, bus_before, phase_begin);
  rep.exact["recovery.virt_ns"] = static_cast<double>(recovered_ns - now);
  now = std::max(now, recovered_ns);
  // Recovery must rebuild exactly the space picture the model holds.
  const HostClock::time_point check_start = HostClock::now();
  CheckSpace(*ftl, model, snaps, checker);
  const double space_check_s = SecondsBetween(check_start, HostClock::now());
  Restore r{rep, checker, model, ftl.get(), now, p.working_set, p.clients};
  auto primary = [&](uint64_t lba) { return model.Primary(lba); };
  r.ReadAll(iosnap::kPrimaryView, "read.recovered", primary);

  // 2. Paced activation of every snapshot under queued reads, then a verified read of
  // the whole view; 3. for the second snapshot that read is a restore into the primary.
  const uint32_t restore_from = snaps[1];
  for (uint32_t snap : snaps) {
    const uint32_t view = r.ActivateUnderReads(snap, p.limit, gen);
    if (snap == restore_from) {
      r.RestoreFrom(view, snap);
      r.ReadAll(iosnap::kPrimaryView, "read.restored", primary);
    } else {
      r.ReadAll(view, "read.view", [&](uint64_t lba) { return model.Snap(snap, lba); });
    }
    r.Deactivate(view);
  }

  // 4. Roll the primary back to the oldest snapshot and read it all back.
  const uint64_t rollback_issue = r.now;
  const uint64_t rolled = Must(Timed(rep.host["ftl.rollback"], 1,
                                     [&] { return ftl->RollbackToSnapshot(snaps[0], r.now); }),
                               "rollback");
  ++rep.ops;
  model.Rollback(snaps[0]);
  rep.exact["rollback.virt_ns"] = static_cast<double>(rolled - rollback_issue);
  r.now = std::max(r.now, rolled);
  r.ReadAll(iosnap::kPrimaryView, "read.rolled_back", primary);

  start.Finish(*ftl, r.now, &rep);
  CollectSpans(tracing, &rep);
  rep.phase_wall_s = SecondsBetween(phase_start, HostClock::now()) - space_check_s;
  return rep;
}

// ---------------------------------------------------------------------------------------
// cow_churn: the churn stream on the Btrfs-like CowStore over a vanilla FTL. The store
// writes header-only pages, so there is no payload to check; its counters are checked
// against the FTL's instead.

struct CowChurnTarget {
  Ftl& ftl_;
  iosnap::CowStore& store;
  Rep& rep;
  uint64_t keep = 0;
  std::deque<uint32_t> live;

  Ftl& ftl() { return ftl_; }

  uint64_t Read(uint64_t block, uint64_t now) {
    const IoResult io =
        Must(Timed(rep.host["cow.read"], 1, [&] { return store.Read(block, now); }), "read");
    rep.read_ns.push_back(io.LatencyNs());
    return io.CompletionNs();
  }

  uint64_t Write(uint64_t block, uint64_t now) {
    const IoResult io =
        Must(Timed(rep.host["cow.write"], 1, [&] { return store.Write(block, now); }), "write");
    rep.write_ns.push_back(io.LatencyNs());
    return io.CompletionNs();
  }

  uint64_t Snapshot(uint64_t now) {
    IoResult io;
    live.push_back(Must(Timed(rep.host["cow.snapshot_create"], 1,
                              [&] { return store.CreateSnapshot(now, &io); }),
                        "create snapshot"));
    ++rep.ops;
    if (live.size() > keep) {
      Must(Timed(rep.host["cow.snapshot_delete"], 1,
                 [&] { return store.DeleteSnapshot(live.front(), io.CompletionNs()); }),
           "delete snapshot");
      live.pop_front();
      ++rep.ops;
    }
    return io.CompletionNs();
  }
};

Rep CowChurn(uint64_t seed, bool small, Checker& checker, const Tracing* tracing,
             HostClock::time_point setup_start) {
  const Params p = ParamsFor("cow_churn", small);
  Rep rep;
  rep.payloads = false;
  Gen gen(seed);
  std::unique_ptr<Ftl> ftl = Must(Ftl::Create(DeviceConfig(p, false)), "create");
  std::unique_ptr<iosnap::CowStore> store =
      Must(iosnap::CowStore::Create(ftl.get(), iosnap::CowStoreOptions{}), "create store");
  if (store->volume_blocks() < p.working_set) {
    throw OpFailed("cow_churn: working set exceeds the store volume");
  }
  // Set-up as in snap_churn: prefill, then one random overwrite pass.
  uint64_t now = 0;
  for (uint64_t i = 0; i < 2 * p.working_set; ++i) {
    const uint64_t block = i < p.working_set ? i : gen.Below(p.working_set);
    now = std::max(now, Must(store->Write(block, now), "set-up write").CompletionNs());
  }
  now = std::max(now, Must(store->Sync(now), "sync").CompletionNs());
  const HostClock::time_point phase_start = HostClock::now();
  rep.setup_s = SecondsBetween(setup_start, phase_start);

  AttachTracing(ftl.get(), tracing);
  const PhaseCounters start =
      PhaseCounters::Take(*ftl, ftl->device().stats(), ftl->device().BusActiveNs(0), now);
  const iosnap::CowStoreStats before = store->stats();
  CowChurnTarget target{.ftl_ = *ftl, .store = *store, .rep = rep, .keep = p.keep, .live = {}};
  const uint64_t end = ChurnPhase(p, gen, target, rep, now);
  start.Finish(*ftl, end, &rep);
  const iosnap::CowStoreStats& after = store->stats();
  const uint64_t data_writes = after.data_block_writes - before.data_block_writes;
  const uint64_t meta_writes = after.metadata_block_writes - before.metadata_block_writes;
  rep.exact["cow.node_clones"] = after.node_cow_clones - before.node_cow_clones;
  rep.exact["cow.metadata_writes"] = meta_writes;
  rep.exact["cow.commits"] = after.commits - before.commits;
  CollectSpans(tracing, &rep);
  rep.phase_wall_s = SecondsBetween(phase_start, HostClock::now());

  // Two totals from independent paths: the store's own counts against the writes the
  // benchmark issued and against the user writes the FTL served.
  const uint64_t writes = rep.user_pages_written;
  checker.Expect("cow.data_writes", data_writes == writes + checker.Skew("cow.data_writes"),
                 std::to_string(data_writes) + " data blocks for " + std::to_string(writes) +
                     " writes");
  const uint64_t served = ftl->stats().user_writes - start.ftl_at_start.user_writes;
  checker.Expect("cow.device_writes",
                 data_writes + meta_writes == served + checker.Skew("cow.device_writes"),
                 std::to_string(data_writes + meta_writes) + " store writes, " +
                     std::to_string(served) + " served by the FTL");
  return rep;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"snap_churn", "snap_restore", "cow_churn"};
  return names;
}

std::vector<std::string> WorkloadChecks(const std::string& workload) {
  if (workload == "snap_churn") {
    return {"read.primary", "space.referenced", "space.exclusive"};
  }
  if (workload == "snap_restore") {
    return {"read.recovered", "read.queued",     "read.view",        "read.primary",
            "read.restored",  "read.rolled_back", "space.referenced", "space.exclusive"};
  }
  return {"cow.data_writes", "cow.device_writes"};
}

Rep RunWorkload(const std::string& workload, uint64_t seed, bool small, Checker& checker,
                const Tracing* tracing, HostClock::time_point setup_start) {
  if (workload == "snap_churn") {
    return SnapChurn(seed, small, checker, tracing, setup_start);
  }
  if (workload == "snap_restore") {
    return SnapRestore(seed, small, checker, tracing, setup_start);
  }
  return CowChurn(seed, small, checker, tracing, setup_start);
}

}  // namespace snapbench
