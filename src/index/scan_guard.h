#ifndef CSR_INDEX_SCAN_GUARD_H_
#define CSR_INDEX_SCAN_GUARD_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/fault.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace csr {

/// Per-query resource guard charged by every posting-list join: one Tick()
/// at a time, or n at a time (Charge) — both charge the same ticks. Bounds
/// the work of a single query by a wall-clock deadline and a posting-scan
/// budget, and carries the kPostingAdvance fault-injection point so tests
/// can force a mid-scan media failure. A tripped guard makes every
/// subsequent Tick() return true, so all joins sharing the guard stop
/// promptly; the query layer then degrades the plan (or fails with a
/// typed status) instead of scanning unboundedly.
class ScanGuard {
 public:
  enum class Trip { kNone, kDeadline, kBudget, kFault };

  /// `deadline_ms` <= 0 disables the deadline; `posting_budget` 0 disables
  /// the scan budget. The deadline clock starts at construction, but
  /// `initial_elapsed_ms` is charged against the deadline up front — the
  /// query executor passes the time a query spent waiting in its queue, so
  /// a deadline bounds the *end-to-end* latency a caller observes, not
  /// just the execution slice.
  ScanGuard(double deadline_ms, uint64_t posting_budget,
            double initial_elapsed_ms = 0.0)
      : deadline_ms_(deadline_ms),
        budget_(posting_budget),
        initial_elapsed_ms_(initial_elapsed_ms),
        queue_wait_ms_(initial_elapsed_ms) {}

  /// Attributes `ms` of additional queue wait to this guard. The staged
  /// executor calls this at every stage handoff, so TripReason() reports
  /// the *cumulative* wait across all stages, not just the admission
  /// queue. Attribution only: the deadline clock (timer_) has been running
  /// since construction and already covers inter-stage waits, so this must
  /// NOT feed the deadline arithmetic — that would double-charge the wait.
  void AddQueueWait(double ms) {
    if (ms > 0) queue_wait_ms_ += ms;
  }

  /// Total queue wait charged against this query: the initial (admission)
  /// wait plus every AddQueueWait stage handoff.
  double queue_wait_ms() const { return queue_wait_ms_; }

  /// Charges one posting advance. Returns true when the scan must stop.
  /// The deadline is polled on the first tick and every 64th after, so a
  /// tick is normally counter arithmetic only.
  bool Tick() {
    if (trip_ != Trip::kNone) return true;
    ++ticks_;
    if (FaultHit(FaultPoint::kPostingAdvance)) {
      trip_ = Trip::kFault;
      return true;
    }
    if (budget_ != 0 && ticks_ > budget_) {
      trip_ = Trip::kBudget;
      return true;
    }
    if (deadline_ms_ > 0 && (ticks_ & 0x3F) == 1 &&
        initial_elapsed_ms_ + timer_.ElapsedMillis() > deadline_ms_) {
      trip_ = Trip::kDeadline;
      return true;
    }
    return false;
  }

  /// Charges n posting advances at once, exactly as n Tick() calls would:
  /// returns true when one of them returns true, and trips on the same
  /// tick with the same Trip. Runs of quiet ticks (QuietTicks) are added
  /// in one step; every other tick goes through Tick().
  bool Charge(uint64_t n) {
    while (n > 0) {
      if (trip_ != Trip::kNone) return true;
      const uint64_t quiet = std::min(n, QuietTicks());
      ticks_ += quiet;
      n -= quiet;
      if (n == 0) break;
      if (Tick()) return true;
      --n;
    }
    return false;
  }

  bool tripped() const { return trip_ != Trip::kNone; }
  /// True when a deadline or a posting budget limits the scan (an armed
  /// fault can trip any guard).
  bool bounded() const { return deadline_ms_ > 0 || budget_ != 0; }
  Trip trip() const { return trip_; }
  uint64_t ticks() const { return ticks_; }

  /// Human-readable trip cause for degradation reasons and error messages.
  std::string TripReason() const {
    switch (trip_) {
      case Trip::kNone:
        return "not tripped";
      case Trip::kDeadline: {
        std::string r =
            "deadline of " + FormatMillis(deadline_ms_) + " ms exceeded";
        if (queue_wait_ms_ > 0) {
          r += " (incl. " + FormatMillis(queue_wait_ms_) +
               " ms of queue wait)";
        }
        return r;
      }
      case Trip::kBudget:
        return "posting scan budget of " + std::to_string(budget_) +
               " exhausted";
      case Trip::kFault:
        return "posting read fault (injected at " +
               std::string(FaultPointName(FaultPoint::kPostingAdvance)) + ")";
    }
    return "unknown";
  }

  /// Grants a degraded plan a fresh run: clears the trip and restarts the
  /// budget counter. The deadline clock keeps running, so a query never
  /// exceeds its wall-clock limit by more than one poll interval; the scan
  /// budget is at most doubled across the whole query.
  void Reprieve() {
    trip_ = Trip::kNone;
    ticks_ = 0;
  }

 private:
  /// Longest quiet run when nothing bounds the scan; far below overflow.
  static constexpr uint64_t kMaxQuiet = uint64_t{1} << 40;

  /// How many ticks after the current one Tick() would only count: none
  /// while a fault is armed (each hit must reach the injector), else up
  /// to the budget edge (tick budget_ + 1 trips) and the next deadline
  /// poll (ticks 1, 65, 129, ...).
  uint64_t QuietTicks() const {
    if (FaultsArmed()) return 0;
    uint64_t quiet = kMaxQuiet;
    if (budget_ != 0) quiet = std::min(quiet, budget_ - ticks_);
    if (deadline_ms_ > 0) {
      // The first t > ticks_ with t % 64 == 1 (unsigned wrap makes it 1
      // for ticks_ == 0).
      const uint64_t next_poll = ((ticks_ - 1) | 0x3F) + 2;
      quiet = std::min(quiet, next_poll - ticks_ - 1);
    }
    return quiet;
  }

  WallTimer timer_;
  double deadline_ms_;
  uint64_t budget_;
  double initial_elapsed_ms_ = 0.0;
  double queue_wait_ms_ = 0.0;  // attribution only; never re-charged
  uint64_t ticks_ = 0;
  Trip trip_ = Trip::kNone;
};

}  // namespace csr

#endif  // CSR_INDEX_SCAN_GUARD_H_
