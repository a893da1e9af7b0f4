#include "util/fault.h"

#include <chrono>
#include <thread>

namespace csr {

std::string_view FaultPointName(FaultPoint p) {
  switch (p) {
    case FaultPoint::kStorageRead:
      return "storage-read";
    case FaultPoint::kStorageWrite:
      return "storage-write";
    case FaultPoint::kViewDecode:
      return "view-decode";
    case FaultPoint::kPostingAdvance:
      return "posting-advance";
    case FaultPoint::kViewRead:
      return "view-read";
  }
  return "unknown";
}

namespace {

/// One SplitMix64 output for state index `n` of stream `seed` — the same
/// value SplitMix64(seed) would produce as its nth draw, but addressable
/// by index so concurrent hits can claim indexes with fetch_add.
uint64_t SplitMixAt(uint64_t seed, uint64_t n) {
  uint64_t z = seed + (n + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector& FaultInjector::Instance() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::Arm(FaultPoint p, uint64_t nth) {
  Slot& s = slots_[static_cast<size_t>(p)];
  if (nth == 0) nth = 1;
  s.hits.store(0, std::memory_order_relaxed);
  uint64_t prev = s.fail_at.exchange(nth, std::memory_order_relaxed);
  if (prev == 0) armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::ArmRate(FaultPoint p, double rate, uint64_t seed) {
  Slot& s = slots_[static_cast<size_t>(p)];
  rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  // rate == 1 must fire every hit: draw < 2^64 always holds only if the
  // threshold saturates, and (uint64_t)(1.0 * 2^64) would wrap to 0.
  uint64_t threshold =
      rate >= 1.0 ? ~0ULL
                  : static_cast<uint64_t>(rate * 18446744073709551616.0);
  s.rate_seed.store(seed, std::memory_order_relaxed);
  s.rate_seq.store(0, std::memory_order_relaxed);
  uint64_t prev = s.rate_threshold.exchange(threshold,
                                            std::memory_order_release);
  if (prev == 0 && threshold != 0) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  } else if (prev != 0 && threshold == 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::ArmDelay(FaultPoint p, uint64_t micros) {
  Slot& s = slots_[static_cast<size_t>(p)];
  uint64_t prev = s.delay_micros.exchange(micros, std::memory_order_release);
  if (prev == 0 && micros != 0) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  } else if (prev != 0 && micros == 0) {
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::Disarm(FaultPoint p) {
  Slot& s = slots_[static_cast<size_t>(p)];
  uint64_t prev = s.fail_at.exchange(0, std::memory_order_relaxed);
  if (prev != 0) armed_count_.fetch_sub(1, std::memory_order_relaxed);
  uint64_t rate_prev =
      s.rate_threshold.exchange(0, std::memory_order_relaxed);
  if (rate_prev != 0) armed_count_.fetch_sub(1, std::memory_order_relaxed);
  uint64_t delay_prev = s.delay_micros.exchange(0, std::memory_order_relaxed);
  if (delay_prev != 0) armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultInjector::DisarmAll() {
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    Disarm(static_cast<FaultPoint>(i));
  }
}

bool FaultInjector::Hit(FaultPoint p) {
  if (armed_count_.load(std::memory_order_acquire) == 0) return false;
  Slot& s = slots_[static_cast<size_t>(p)];
  // The delay trigger slows the hit but never fires it: tests use it to
  // make one pipeline stage slow without introducing failures.
  uint64_t delay = s.delay_micros.load(std::memory_order_acquire);
  if (delay != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  uint64_t fail_at = s.fail_at.load(std::memory_order_acquire);
  if (fail_at != 0) {
    uint64_t h = s.hits.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (h == fail_at) {
      // One-shot: claim the trigger with a CAS so exactly one thread fires
      // per Arm(). The previous Disarm()-based path raced concurrent
      // callers — a re-Arm() between the counter check and the disarm
      // could be wiped out and armed_count_ double-decremented. If the CAS
      // loses (another thread fired, or a Disarm/Arm replaced the
      // trigger), this hit is an ordinary non-fault hit.
      if (s.fail_at.compare_exchange_strong(fail_at, 0,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        armed_count_.fetch_sub(1, std::memory_order_release);
        s.trips.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  uint64_t threshold = s.rate_threshold.load(std::memory_order_acquire);
  if (threshold == 0) return false;
  // Each hit claims a unique draw index; the decision for index K is a
  // pure function of (seed, K), so the number of trips over N hits is
  // identical on every run with the same seed, whatever the interleaving.
  uint64_t n = s.rate_seq.fetch_add(1, std::memory_order_relaxed);
  uint64_t draw = SplitMixAt(s.rate_seed.load(std::memory_order_relaxed), n);
  if (threshold != ~0ULL && draw >= threshold) return false;
  s.trips.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::rate(FaultPoint p) const {
  uint64_t threshold = slots_[static_cast<size_t>(p)].rate_threshold.load(
      std::memory_order_relaxed);
  if (threshold == ~0ULL) return 1.0;
  return static_cast<double>(threshold) / 18446744073709551616.0;
}

bool FaultInjector::armed(FaultPoint p) const {
  const Slot& s = slots_[static_cast<size_t>(p)];
  return s.fail_at.load(std::memory_order_relaxed) != 0 ||
         s.rate_threshold.load(std::memory_order_relaxed) != 0;
}

uint64_t FaultInjector::hits(FaultPoint p) const {
  return slots_[static_cast<size_t>(p)].hits.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::trips(FaultPoint p) const {
  return slots_[static_cast<size_t>(p)].trips.load(std::memory_order_relaxed);
}

bool FaultHit(FaultPoint p) { return FaultInjector::Instance().Hit(p); }

bool FaultsArmed() { return FaultInjector::Instance().any_armed(); }

}  // namespace csr
