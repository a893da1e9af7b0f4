#ifndef CSR_UTIL_FAULT_H_
#define CSR_UTIL_FAULT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace csr {

/// Named fault-injection points. Each site in the library that can fail for
/// environmental reasons (media errors, corrupt bytes) consults its point
/// via FaultHit() so tests can force the failure deterministically.
enum class FaultPoint : uint32_t {
  kStorageRead = 0,   // BinaryReader::OpenFile (snapshot file read)
  kStorageWrite,      // BinaryWriter::WriteFile (snapshot file write)
  kViewDecode,        // LoadViews per-view frame decode
  kPostingAdvance,    // ScanGuard tick inside posting-list conjunctions
  kViewRead,          // query-time materialized-view stats read
};
inline constexpr size_t kNumFaultPoints = 5;

std::string_view FaultPointName(FaultPoint p);

/// Deterministic fault-injection registry (process-wide singleton). Three
/// trigger mechanisms per point, independently armable:
///
///  - One-shot: Arm() makes the point fail on the Nth hit after arming,
///    exactly once, then the point disarms itself, so a test observes
///    precisely one injected fault per Arm().
///  - Probabilistic: ArmRate() makes each hit fail with probability
///    `rate`, drawn from a counter-indexed SplitMix64 stream, so a storm
///    scenario is reproducible: under a fixed seed the Kth hit of the
///    point fires or not deterministically, regardless of which thread
///    lands on it. The trigger stays armed until Disarm().
///  - Delay: ArmDelay() makes every hit sleep for a fixed duration before
///    returning (without injecting a failure), so tests can make one
///    pipeline stage arbitrarily slow — e.g. a slow-intersect scenario via
///    kPostingAdvance — and observe backpressure instead of errors.
///
/// Single-fire semantics under concurrency: Hit() may be called from any
/// number of threads (every query's ScanGuard ticks through it). The Nth
/// hit is claimed with a compare-exchange on the trigger, so exactly one
/// thread fires per Arm() no matter how many race past the counter — the
/// loser threads observe an ordinary non-fault hit. For rate triggers,
/// each hit claims a unique draw index with fetch_add, so across any
/// interleaving the same multiset of draw outcomes is consumed — the trip
/// count over N hits is seed-deterministic. Arm()/ArmRate()/Disarm() are
/// test-thread operations: arm before starting concurrent work (arming
/// while hits are in flight counts hits from both armings against the new
/// trigger). hits() may overcount by in-flight callers that loaded the
/// trigger just before it self-disarmed; trips() is exact.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms `p` to fail on the `nth` hit (1-based) from now.
  void Arm(FaultPoint p, uint64_t nth = 1);

  /// Arms `p` to fail each hit independently with probability `rate`
  /// (clamped to [0, 1]; 0 disarms the rate trigger). Decisions come from
  /// a SplitMix64 stream derived from `seed`, indexed by hit order, so a
  /// fixed (rate, seed) yields an identical trip pattern on every run.
  /// Rearming resets the draw index. Coexists with a one-shot Arm(): the
  /// one-shot is consulted first and keeps its exactly-once contract.
  void ArmRate(FaultPoint p, double rate, uint64_t seed = 0x57042);

  /// Arms `p` to sleep `micros` microseconds on every hit (0 disarms the
  /// delay trigger). Delays never inject a failure — Hit() still returns
  /// false unless a one-shot or rate trigger fires on the same hit.
  void ArmDelay(FaultPoint p, uint64_t micros);

  /// Clears the one-shot, rate, and delay triggers for `p`.
  void Disarm(FaultPoint p);
  void DisarmAll();

  /// Called at injection sites. Returns true exactly on the armed Nth hit
  /// (one-shot) or on rate-selected hits (probabilistic).
  bool Hit(FaultPoint p);

  bool armed(FaultPoint p) const;
  /// True while any trigger (one-shot, rate, or delay) of any point is
  /// armed — exactly when some Hit() call could do more than return false.
  bool any_armed() const {
    return armed_count_.load(std::memory_order_acquire) != 0;
  }
  /// The armed probabilistic rate (0 when no rate trigger is armed).
  double rate(FaultPoint p) const;
  uint64_t hits(FaultPoint p) const;
  /// Number of times this point has actually fired since process start.
  uint64_t trips(FaultPoint p) const;

 private:
  FaultInjector() = default;

  struct Slot {
    std::atomic<uint64_t> fail_at{0};  // 0 = disarmed
    // Probabilistic trigger: fire when draw < rate_threshold (threshold =
    // rate scaled to 2^64; 0 = disarmed). rate_seq hands each hit a unique
    // draw index; rate_seed selects the stream.
    std::atomic<uint64_t> rate_threshold{0};
    std::atomic<uint64_t> rate_seed{0};
    std::atomic<uint64_t> rate_seq{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> trips{0};
    // Delay trigger: every hit sleeps this long (0 = disarmed).
    std::atomic<uint64_t> delay_micros{0};
  };
  std::array<Slot, kNumFaultPoints> slots_;
  std::atomic<int> armed_count_{0};
};

/// Injection-site helper: one relaxed load when nothing is armed.
bool FaultHit(FaultPoint p);

/// FaultInjector::Instance().any_armed(): while false, every FaultHit()
/// returns false and counts nothing, so a caller may skip the calls.
bool FaultsArmed();

/// RAII arming for tests: disarms (if still pending) on scope exit.
class ScopedFault {
 public:
  explicit ScopedFault(FaultPoint p, uint64_t nth = 1) : p_(p) {
    FaultInjector::Instance().Arm(p_, nth);
  }
  ~ScopedFault() { FaultInjector::Instance().Disarm(p_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultPoint p_;
};

/// RAII delay arming for slow-stage scenarios: disarms on scope exit.
class ScopedFaultDelay {
 public:
  ScopedFaultDelay(FaultPoint p, uint64_t micros) : p_(p) {
    FaultInjector::Instance().ArmDelay(p_, micros);
  }
  ~ScopedFaultDelay() { FaultInjector::Instance().Disarm(p_); }
  ScopedFaultDelay(const ScopedFaultDelay&) = delete;
  ScopedFaultDelay& operator=(const ScopedFaultDelay&) = delete;

 private:
  FaultPoint p_;
};

/// RAII probabilistic arming for storm scenarios: disarms on scope exit.
class ScopedFaultRate {
 public:
  ScopedFaultRate(FaultPoint p, double rate, uint64_t seed = 0x57042)
      : p_(p) {
    FaultInjector::Instance().ArmRate(p_, rate, seed);
  }
  ~ScopedFaultRate() { FaultInjector::Instance().Disarm(p_); }
  ScopedFaultRate(const ScopedFaultRate&) = delete;
  ScopedFaultRate& operator=(const ScopedFaultRate&) = delete;

 private:
  FaultPoint p_;
};

}  // namespace csr

#endif  // CSR_UTIL_FAULT_H_
