// Reference model for the snapbench workloads, kept apart from the simulator.
//
// Nothing here includes or calls the library: the model is written from the paper's
// semantics alone, so an error in the program cannot cancel out in the check.
//
//   * Every page the benchmark writes carries a 4 KiB payload that encodes
//     (lba, write sequence). Reads are compared byte for byte with the payload the
//     model says the page must hold.
//   * The model keeps one version vector (lba -> write sequence) for the primary volume
//     and one per live snapshot. A write sequence names one physical page version, so
//     per-snapshot space (pages referenced, pages held by no other live epoch) follows
//     from the vectors alone.

#ifndef SNAPBENCH_MODEL_H_
#define SNAPBENCH_MODEL_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <vector>

namespace snapbench {

inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kUnmapped = ~0ull;

// Fills `page` with the payload of write `seq` to `lba`: two identifying words followed
// by a sequence that differs in every word, so a torn or misplaced page cannot match.
inline void FillPayload(uint64_t lba, uint64_t seq, std::span<uint8_t> page) {
  uint64_t words[kPageBytes / 8];
  uint64_t x = (lba * 0x9E3779B97F4A7C15ull) ^ (seq * 0xC2B2AE3D27D4EB4Full) ^ 0x5EED;
  words[0] = lba;
  words[1] = seq;
  for (size_t i = 2; i < kPageBytes / 8; ++i) {
    x += 0x9E3779B97F4A7C15ull;
    words[i] = x ^ (x >> 29);
  }
  std::memcpy(page.data(), words, kPageBytes);
}

// True when `got` is exactly the payload of write `seq` to `lba`.
inline bool PayloadMatches(std::span<const uint8_t> got, uint64_t lba, uint64_t seq) {
  if (got.size() != kPageBytes || seq == kUnmapped) {
    return false;
  }
  uint8_t want[kPageBytes];
  FillPayload(lba, seq, want);
  return std::memcmp(got.data(), want, kPageBytes) == 0;
}

// splitmix64: the workload generator. Seeded from --seed only.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct SpaceCounts {
  uint64_t referenced = 0;
  uint64_t exclusive = 0;
};

class Model {
 public:
  explicit Model(uint64_t lbas) : primary_(lbas, kUnmapped) {}

  // Records a fresh write to `lba` and returns its sequence (the payload identity).
  uint64_t Write(uint64_t lba) { return primary_[lba] = next_seq_++; }
  // Records a write that copies an existing version back (a restore); the page keeps
  // the payload identity `seq`.
  void Restore(uint64_t lba, uint64_t seq) { primary_[lba] = seq; }

  uint64_t Primary(uint64_t lba) const { return primary_[lba]; }
  uint64_t Snap(uint32_t id, uint64_t lba) const { return snaps_.at(id)[lba]; }

  void Snapshot(uint32_t id) { snaps_[id] = primary_; }
  void Delete(uint32_t id) { snaps_.erase(id); }
  void Rollback(uint32_t id) { primary_ = snaps_.at(id); }

  // Pages snapshot `id` references, and how many of them no other live epoch (the
  // primary or another live snapshot) references. Valid while every write sequence
  // still names one physical page, i.e. before any Restore.
  SpaceCounts Space(uint32_t id) const {
    const std::vector<uint64_t>& mine = snaps_.at(id);
    SpaceCounts counts;
    for (uint64_t lba = 0; lba < mine.size(); ++lba) {
      const uint64_t v = mine[lba];
      if (v == kUnmapped) {
        continue;
      }
      ++counts.referenced;
      bool shared = primary_[lba] == v;
      for (auto it = snaps_.begin(); !shared && it != snaps_.end(); ++it) {
        shared = it->first != id && it->second[lba] == v;
      }
      if (!shared) {
        ++counts.exclusive;
      }
    }
    return counts;
  }

 private:
  std::vector<uint64_t> primary_;
  std::map<uint32_t, std::vector<uint64_t>> snaps_;
  uint64_t next_seq_ = 0;
};

}  // namespace snapbench

#endif  // SNAPBENCH_MODEL_H_
