// Open-loop arrival processes: the thinned nonhomogeneous Poisson chain
// and its exact look-ahead cursor. The load-bearing claim is exactness —
// the cursor's n-th arrival equals the n-th value of the chained
// `next_after` sequence bit for bit, for every rate shape and every
// pattern of forward jumps — because the sharded campaign's outbound
// promises are built on it and a promise one ulp late is unsound.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/random.hpp"
#include "src/workload/population.hpp"

namespace lifl {
namespace {

using wl::ArrivalCursor;
using wl::ArrivalProcess;

struct Shape {
  const char* name;
  ArrivalProcess::Config cfg;
};

/// Flat plateau, a long linear ramp, diurnal thinning, and both at once.
/// The diurnal periods are short against the walked span (~300 s), so the
/// thinning rejects often and the ramp covers thousands of arrivals.
const Shape kShapes[] = {
    {"flat", {100.0, 0.0, 0.0, 86'400.0}},
    {"ramp", {100.0, 120.0, 0.0, 86'400.0}},
    {"diurnal", {100.0, 0.0, 0.6, 45.0}},
    {"ramp+diurnal", {100.0, 60.0, 0.3, 20.0}},
};

/// The reference: arrivals 1..n of a chain started at relative time 0,
/// each drawn from the previous one exactly as the campaign's arrival
/// events draw them.
std::vector<double> chain(const ArrivalProcess& p, std::uint64_t seed,
                          std::size_t n) {
  sim::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  double t = p.next_after(0.0, rng);
  out.push_back(t);
  while (out.size() < n) {
    t = p.next_after(t, rng);
    out.push_back(t);
  }
  return out;
}

TEST(ArrivalCursor, UnevenJumpsHitTheChainBitForBit) {
  // Steps of 1, 500 and then 30,000 arrivals, then a zero step.
  const std::uint64_t steps[] = {1, 500, 30'000, 0};
  for (const Shape& sh : kShapes) {
    const ArrivalProcess p(sh.cfg);
    const std::vector<double> ref = chain(p, 42, 1 + 1 + 500 + 30'000);

    sim::Rng rng(42);
    const double first = p.next_after(0.0, rng);
    ArrivalCursor cur(p, rng, first, 1);
    ASSERT_EQ(cur.advance_to(1), ref[0]) << sh.name;
    std::uint64_t n = 1;
    for (const std::uint64_t step : steps) {
      n += step;
      EXPECT_EQ(cur.advance_to(n), ref[n - 1]) << sh.name << " n=" << n;
      EXPECT_EQ(cur.index(), n) << sh.name;
    }
  }
}

TEST(ArrivalCursor, MidChainCursorMatchesAndLeavesTheChainUntouched) {
  // A cursor positioned mid-chain from the live generator replays the same
  // future as one that walked there from the start, and walking it leaves
  // the chain it was cloned from untouched.
  for (const Shape& sh : kShapes) {
    const ArrivalProcess p(sh.cfg);
    const std::vector<double> ref = chain(p, 7, 5'000);

    sim::Rng live(7);
    double t = p.next_after(0.0, live);
    for (std::uint64_t k = 2; k <= 1'234; ++k) t = p.next_after(t, live);
    ASSERT_EQ(t, ref[1'233]) << sh.name;

    ArrivalCursor cur(p, live, t, 1'234);
    EXPECT_EQ(cur.advance_to(1'235), ref[1'234]) << sh.name;
    EXPECT_EQ(cur.advance_to(4'999), ref[4'998]) << sh.name;

    // The live chain continues as if no cursor had ever looked ahead.
    for (std::uint64_t k = 1'235; k <= 5'000; ++k) {
      t = p.next_after(t, live);
      ASSERT_EQ(t, ref[k - 1]) << sh.name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace lifl
