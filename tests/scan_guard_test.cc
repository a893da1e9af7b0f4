// ScanGuard::Charge against single Tick() calls. A join may charge its
// ticks one at a time or n at a time; both must trip on the same tick with
// the same Trip, poll the deadline on the same ticks, consult the fault
// injector on the same hits, and end with the same ticks(). Each case runs
// T ticks through a reference guard one Tick() at a time, then through a
// fresh guard under the same configuration by random Charge(n) splits.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "index/scan_guard.h"
#include "util/fault.h"
#include "util/random.h"

namespace csr {
namespace {

/// What one run of T ticks leaves behind.
struct Outcome {
  uint64_t stopped_at = 0;  // 1-based tick whose charge said stop; 0: none
  bool tripped = false;
  ScanGuard::Trip trip = ScanGuard::Trip::kNone;
  uint64_t ticks = 0;
  uint64_t hits = 0;   // injector hits of kPostingAdvance during the run
  uint64_t trips = 0;  // injector trips of kPostingAdvance during the run
};

void ExpectSame(const Outcome& got, const Outcome& want,
                const std::string& what) {
  EXPECT_EQ(got.stopped_at, want.stopped_at) << what;
  EXPECT_EQ(got.tripped, want.tripped) << what;
  EXPECT_EQ(got.trip, want.trip) << what;
  EXPECT_EQ(got.ticks, want.ticks) << what;
  EXPECT_EQ(got.hits, want.hits) << what;
  EXPECT_EQ(got.trips, want.trips) << what;
}

Outcome Finish(const ScanGuard& g, uint64_t stopped_at, uint64_t hits0,
               uint64_t trips0) {
  const FaultInjector& fi = FaultInjector::Instance();
  return Outcome{stopped_at, g.tripped(), g.trip(), g.ticks(),
                 fi.hits(FaultPoint::kPostingAdvance) - hits0,
                 fi.trips(FaultPoint::kPostingAdvance) - trips0};
}

/// The two ways to charge T ticks. Each returns the run's Outcome; the
/// injector's counters are read around the run.
Outcome ByTicks(ScanGuard& g, uint64_t total) {
  const FaultInjector& fi = FaultInjector::Instance();
  const uint64_t h0 = fi.hits(FaultPoint::kPostingAdvance);
  const uint64_t t0 = fi.trips(FaultPoint::kPostingAdvance);
  uint64_t stopped = 0;
  for (uint64_t t = 1; t <= total; ++t) {
    if (g.Tick()) {
      stopped = t;
      break;
    }
  }
  return Finish(g, stopped, h0, t0);
}

Outcome ByCharges(ScanGuard& g, uint64_t total, SplitMix64& rng) {
  const FaultInjector& fi = FaultInjector::Instance();
  const uint64_t h0 = fi.hits(FaultPoint::kPostingAdvance);
  const uint64_t t0 = fi.trips(FaultPoint::kPostingAdvance);
  uint64_t done = 0;
  uint64_t stopped = 0;
  while (done < total) {
    // Splits from 0 (a no-op) to runs past a deadline poll interval.
    uint64_t n = rng.NextBounded(4) == 0 ? rng.NextBounded(3)
                                         : rng.NextBounded(200);
    n = std::min(n, total - done);
    const uint64_t before = g.ticks();
    if (g.Charge(n)) {
      // The trip tick is the last one the guard counted.
      stopped = done + (g.ticks() - before);
      break;
    }
    done += n;
  }
  return Finish(g, stopped, h0, t0);
}

class ScanGuardChargeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().DisarmAll(); }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

/// Runs one case both ways: `make` builds a fresh guard and `arm`
/// re-arms the injector identically before each run.
void RunCase(const std::function<ScanGuard()>& make,
             const std::function<void()>& arm, uint64_t total,
             SplitMix64& rng, const std::string& what) {
  arm();
  ScanGuard ref = make();
  const Outcome want = ByTicks(ref, total);
  FaultInjector::Instance().DisarmAll();

  arm();
  ScanGuard charged = make();
  ExpectSame(ByCharges(charged, total, rng), want, what + " (Charge)");
  FaultInjector::Instance().DisarmAll();
}

TEST_F(ScanGuardChargeTest, RandomizedBudgetsTripOnTheSameTick) {
  SplitMix64 rng(7);
  for (int round = 0; round < 300; ++round) {
    const uint64_t budget = rng.NextBounded(3) == 0 ? 0 : rng.NextBounded(500);
    const uint64_t total = rng.NextBounded(700);
    RunCase([&] { return ScanGuard(0.0, budget); }, [] {}, total, rng,
            "budget " + std::to_string(budget) + ", " +
                std::to_string(total) + " ticks");
  }
}

TEST_F(ScanGuardChargeTest, BudgetTripsAtTickBudgetPlusOne) {
  SplitMix64 rng(11);
  for (uint64_t budget : {1ull, 2ull, 63ull, 64ull, 65ull, 1000ull}) {
    ScanGuard g(0.0, budget);
    EXPECT_FALSE(g.Charge(budget));
    EXPECT_FALSE(g.tripped());
    EXPECT_TRUE(g.Charge(1));
    EXPECT_EQ(g.trip(), ScanGuard::Trip::kBudget);
    EXPECT_EQ(g.ticks(), budget + 1);
    RunCase([&] { return ScanGuard(0.0, budget); }, [] {}, budget + 5, rng,
            "budget edge " + std::to_string(budget));
  }
}

TEST_F(ScanGuardChargeTest, ExpiredDeadlineTripsOnTheFirstPoll) {
  SplitMix64 rng(13);
  // Queue wait past the deadline: the first tick polls and trips.
  RunCase([] { return ScanGuard(1.0, 0, /*initial_elapsed_ms=*/5.0); },
          [] {}, 300, rng, "expired deadline");
  // A budget alongside: the deadline poll on tick 1 still wins.
  RunCase([] { return ScanGuard(1.0, 10, 5.0); }, [] {}, 300, rng,
          "expired deadline with budget");
  // After a Reprieve the counter restarts, so tick 1 polls again.
  ScanGuard g(1.0, 0, 5.0);
  EXPECT_TRUE(g.Charge(100));
  EXPECT_EQ(g.ticks(), 1u);
  g.Reprieve();
  EXPECT_TRUE(g.Charge(1));
  EXPECT_EQ(g.trip(), ScanGuard::Trip::kDeadline);
  EXPECT_EQ(g.ticks(), 1u);
}

TEST_F(ScanGuardChargeTest, DeadlinePollsOnTheSameTicks) {
  // Charge k ticks well inside the deadline, let it pass, then keep
  // charging: the trip comes on the first poll tick after k (1, 65, 129,
  // ...), however the ticks are split.
  SplitMix64 rng(17);
  for (uint64_t k : {1ull, 2ull, 64ull, 65ull, 100ull, 129ull, 200ull}) {
    const uint64_t want = ((k - 1) | 0x3F) + 2;
    for (int way = 0; way < 2; ++way) {
      ScanGuard g(/*deadline_ms=*/20.0, 0);
      ASSERT_FALSE(g.Charge(k)) << "host too slow to charge " << k;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      uint64_t stopped = 0;
      if (way == 0) {
        stopped = ByTicks(g, 300).stopped_at;
      } else {
        stopped = ByCharges(g, 300, rng).stopped_at;
      }
      EXPECT_EQ(k + stopped, want) << "k " << k << " way " << way;
      EXPECT_EQ(g.trip(), ScanGuard::Trip::kDeadline);
      EXPECT_EQ(g.ticks(), want);
    }
  }
}

TEST_F(ScanGuardChargeTest, OneShotFaultFiresOnTheNthHit) {
  SplitMix64 rng(19);
  for (int round = 0; round < 60; ++round) {
    const uint64_t nth = 1 + rng.NextBounded(400);
    const uint64_t total = rng.NextBounded(500);
    const uint64_t budget = rng.NextBounded(2) == 0 ? 0 : rng.NextBounded(500);
    RunCase(
        [&] { return ScanGuard(0.0, budget); },
        [&] {
          FaultInjector::Instance().Arm(FaultPoint::kPostingAdvance, nth);
        },
        total, rng,
        "fault at hit " + std::to_string(nth) + ", budget " +
            std::to_string(budget) + ", " + std::to_string(total) + " ticks");
  }
}

TEST_F(ScanGuardChargeTest, RateTriggersFireOnTheSameTicks) {
  SplitMix64 rng(23);
  for (double rate : {0.001, 0.01, 0.2}) {
    for (uint64_t seed : {1ull, 99ull, 4242ull}) {
      RunCase([] { return ScanGuard(0.0, 0); },
              [&] {
                FaultInjector::Instance().ArmRate(FaultPoint::kPostingAdvance,
                                                  rate, seed);
              },
              2000, rng,
              "rate " + std::to_string(rate) + " seed " +
                  std::to_string(seed));
    }
  }
}

TEST_F(ScanGuardChargeTest, FaultArmedAtAnotherPointKeepsTicksExact) {
  // Any armed trigger sends every tick to the injector; a trigger on
  // another point never fires here, so the result is the unarmed one.
  SplitMix64 rng(29);
  RunCase([] { return ScanGuard(0.0, 77); },
          [] { FaultInjector::Instance().Arm(FaultPoint::kViewRead, 1); },
          300, rng, "view-read armed");
}

TEST_F(ScanGuardChargeTest, DelayTriggersSlowEveryTick) {
  // A delay never fails a hit but sleeps on each one, so a charge of n
  // ticks takes at least n delays — it cannot skip the injector.
  SplitMix64 rng(31);
  constexpr uint64_t kTicks = 20;
  constexpr uint64_t kDelayUs = 500;
  for (int way = 0; way < 2; ++way) {
    ScopedFaultDelay delay(FaultPoint::kPostingAdvance, kDelayUs);
    ScanGuard g(0.0, 0);
    const auto start = std::chrono::steady_clock::now();
    Outcome o = way == 0 ? ByTicks(g, kTicks) : ByCharges(g, kTicks, rng);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(o.tripped) << "way " << way;
    EXPECT_EQ(o.ticks, kTicks) << "way " << way;
    EXPECT_GE(elapsed, std::chrono::microseconds(kTicks * kDelayUs))
        << "way " << way;
  }
  // With a one-shot armed beside the delay, the Nth hit still fires.
  RunCase([] { return ScanGuard(0.0, 0); },
          [] {
            FaultInjector::Instance().ArmDelay(FaultPoint::kPostingAdvance,
                                               50);
            FaultInjector::Instance().Arm(FaultPoint::kPostingAdvance, 9);
          },
          30, rng, "delay plus one-shot");
}

}  // namespace
}  // namespace csr
