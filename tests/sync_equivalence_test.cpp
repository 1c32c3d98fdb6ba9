// The shard-sync differential harness: the promise-widened window protocol
// must be invisible in the results. A seeded matrix of campaigns (3
// hierarchy modes x faults on/off x flaky clients on/off) runs at shards
// {2, 4, LIFL_TEST_SHARDS} and is checked bitwise against the 1-shard
// oracle, whose own results are pinned by golden digests so a change that
// moves every shard count together still fails. A window-budget check
// guards the barrier's cost: with exact look-ahead promises a 4-shard run
// stays near the count the lookahead cap allows, never one window per few
// arrivals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/sim/calibration.hpp"
#include "src/sim/sharded_simulator.hpp"
#include "src/systems/sharded_campaign.hpp"
#include "src/workload/device_tier.hpp"

namespace {

namespace sim = lifl::sim;
namespace sys = lifl::sys;
namespace wl = lifl::wl;

std::size_t env_shards() {
  if (const char* env = std::getenv("LIFL_TEST_SHARDS")) {
    return std::max<std::size_t>(2, std::strtoul(env, nullptr, 10));
  }
  return 2;
}

// ---------------------------------------------------------------------------
// The campaign matrix.

struct Scenario {
  const char* name;
  sys::HierarchyMode hierarchy;
  bool faults;
  bool flaky;
};

/// Every valid cell of hierarchy x faults x flaky. Faults require the
/// streaming hierarchy (planned/async); with the client lifecycle on they
/// must be crash-only (the session layer supersedes wire-level faults).
const Scenario kScenarios[] = {
    {"fixed", sys::HierarchyMode::kFixed, false, false},
    {"fixed+flaky", sys::HierarchyMode::kFixed, false, true},
    {"planned", sys::HierarchyMode::kPlanned, false, false},
    {"planned+faults", sys::HierarchyMode::kPlanned, true, false},
    {"planned+flaky", sys::HierarchyMode::kPlanned, false, true},
    {"planned+faults+flaky", sys::HierarchyMode::kPlanned, true, true},
    {"async", sys::HierarchyMode::kAsync, false, false},
    {"async+faults", sys::HierarchyMode::kAsync, true, false},
    {"async+flaky", sys::HierarchyMode::kAsync, false, true},
    {"async+faults+flaky", sys::HierarchyMode::kAsync, true, true},
};

sys::ShardedCampaignConfig matrix_campaign(const Scenario& sc,
                                           std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 8;
  cfg.updates_per_leaf = 10;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 400.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period_secs = 4.0;
  cfg.seed = 77;
  cfg.hierarchy = sc.hierarchy;
  if (sc.hierarchy != sys::HierarchyMode::kFixed) {
    cfg.replan_interval_secs = 0.5;
    cfg.middle_fanin = 4;
  }
  if (sc.faults) {
    cfg.fault.seed = 9001;
    cfg.fault.leaf_crash_rate = 0.10;
    cfg.fault.middle_crash_rate = 0.05;
    if (sc.hierarchy == sys::HierarchyMode::kPlanned) {
      cfg.fault.top_crash_rate = 0.25;
    }
    if (!sc.flaky) {
      // Wire-level faults, only without the lifecycle session layer.
      cfg.fault.upload_drop_rate = 0.1;
      cfg.fault.upload_corrupt_rate = 0.05;
      cfg.fault.retry_base_secs = 0.05;
      cfg.fault.retry_cap_secs = 1.0;
    }
  }
  if (sc.flaky) {
    cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
    cfg.lifecycle.disconnect_rate = 0.2;
    cfg.lifecycle.chunk_bytes = 10'000;
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
  }
  return cfg;
}

/// The full bitwise claim: everything a result reports that is produced by
/// simulated-event order must be *identical* — exact ==, not ULP — across
/// shard counts. Process-local wall/window telemetry is the only thing
/// allowed to differ.
void expect_bitwise(const sys::ShardedCampaignResult& a,
                    const sys::ShardedCampaignResult& b,
                    const std::string& what) {
  ASSERT_EQ(a.round_started_at.size(), b.round_started_at.size()) << what;
  for (std::size_t r = 0; r < a.round_started_at.size(); ++r) {
    EXPECT_EQ(a.round_started_at[r], b.round_started_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_completed_at[r], b.round_completed_at[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_samples[r], b.round_samples[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_weight[r], b.round_weight[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_spawned[r], b.round_spawned[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_reused[r], b.round_reused[r])
        << what << " round " << r + 1;
    EXPECT_EQ(a.round_refolded[r], b.round_refolded[r])
        << what << " round " << r + 1;
  }
  ASSERT_EQ(a.groups.size(), b.groups.size()) << what;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].uploads, b.groups[g].uploads) << what << " g" << g;
    EXPECT_EQ(a.groups[g].pool_pushed, b.groups[g].pool_pushed)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].gateway_busy_secs, b.groups[g].gateway_busy_secs)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].gateway_wait_secs, b.groups[g].gateway_wait_secs)
        << what << " g" << g;
    EXPECT_EQ(a.groups[g].cpu_cycles, b.groups[g].cpu_cycles)
        << what << " g" << g;
  }
  EXPECT_EQ(a.spawned_total, b.spawned_total) << what;
  EXPECT_EQ(a.reused_total, b.reused_total) << what;
  EXPECT_EQ(a.replans, b.replans) << what;
  EXPECT_EQ(a.leaf_drains, b.leaf_drains) << what;
  EXPECT_EQ(a.peak_leaves, b.peak_leaves) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.sim_secs, b.sim_secs) << what;
  EXPECT_EQ(a.checkpoint_marks, b.checkpoint_marks) << what;
  // Fault/recovery telemetry.
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_EQ(a.leaf_crashes, b.leaf_crashes) << what;
  EXPECT_EQ(a.middle_crashes, b.middle_crashes) << what;
  EXPECT_EQ(a.top_crashes, b.top_crashes) << what;
  EXPECT_EQ(a.refolded_updates, b.refolded_updates) << what;
  EXPECT_EQ(a.reinjected_partials, b.reinjected_partials) << what;
  EXPECT_EQ(a.upload_retries, b.upload_retries) << what;
  EXPECT_EQ(a.upload_drops, b.upload_drops) << what;
  EXPECT_EQ(a.upload_corruptions, b.upload_corruptions) << what;
  EXPECT_EQ(a.recovery_secs, b.recovery_secs) << what;
  // Lifecycle / tier telemetry.
  for (std::size_t t = 0; t < wl::kTierCount; ++t) {
    EXPECT_EQ(a.tiers[t].selected, b.tiers[t].selected) << what << " t" << t;
    EXPECT_EQ(a.tiers[t].completed, b.tiers[t].completed)
        << what << " t" << t;
    EXPECT_EQ(a.tiers[t].disconnects, b.tiers[t].disconnects)
        << what << " t" << t;
    EXPECT_EQ(a.tiers[t].stragglers, b.tiers[t].stragglers)
        << what << " t" << t;
  }
  EXPECT_EQ(a.disconnects, b.disconnects) << what;
  EXPECT_EQ(a.resumed_uploads, b.resumed_uploads) << what;
  EXPECT_EQ(a.chunks_sent, b.chunks_sent) << what;
  EXPECT_EQ(a.chunks_resent, b.chunks_resent) << what;
  EXPECT_EQ(a.selection_redraws, b.selection_redraws) << what;
  EXPECT_EQ(a.offline_queue_peak, b.offline_queue_peak) << what;
  EXPECT_EQ(a.gate_wait_secs, b.gate_wait_secs) << what;
}

/// FNV-1a over every field `expect_bitwise` compares, in its order, with
/// doubles hashed as their raw bits and every vector prefixed by its size.
class ResultDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const sys::ShardedCampaignResult& r) {
  ResultDigest d;
  d.add(std::uint64_t{r.round_started_at.size()});
  for (std::size_t i = 0; i < r.round_started_at.size(); ++i) {
    d.add(r.round_started_at[i]);
    d.add(r.round_completed_at[i]);
    d.add(r.round_samples[i]);
    d.add(r.round_weight[i]);
    d.add(r.round_spawned[i]);
    d.add(r.round_reused[i]);
    d.add(r.round_refolded[i]);
  }
  d.add(std::uint64_t{r.groups.size()});
  for (const sys::ShardedGroupStats& g : r.groups) {
    d.add(g.uploads);
    d.add(g.pool_pushed);
    d.add(g.gateway_busy_secs);
    d.add(g.gateway_wait_secs);
    d.add(g.cpu_cycles);
  }
  for (const std::uint64_t v :
       {r.spawned_total, r.reused_total, r.replans, r.leaf_drains,
        std::uint64_t{r.peak_leaves}, r.events}) {
    d.add(v);
  }
  d.add(r.sim_secs);
  for (const std::uint64_t v :
       {r.checkpoint_marks, r.faults_injected, r.leaf_crashes,
        r.middle_crashes, r.top_crashes, r.refolded_updates,
        r.reinjected_partials, r.upload_retries, r.upload_drops,
        r.upload_corruptions}) {
    d.add(v);
  }
  d.add(r.recovery_secs);
  for (const auto& t : r.tiers) {
    d.add(t.selected);
    d.add(t.completed);
    d.add(t.disconnects);
    d.add(t.stragglers);
  }
  for (const std::uint64_t v :
       {r.disconnects, r.resumed_uploads, r.chunks_sent, r.chunks_resent,
        r.selection_redraws, r.offline_queue_peak}) {
    d.add(v);
  }
  d.add(r.gate_wait_secs);
  return d.value();
}

/// Digests of the 1-shard matrix results, one per `kScenarios` entry,
/// pinned so a refactor that shifts any simulated outcome — even one the
/// shard-count comparison cannot see, because every shard count moved
/// together — fails here.
constexpr std::uint64_t kGoldenDigests[] = {
    0x709f2473a6841822ull,  // fixed
    0xedd24b7e1ac6f34dull,  // fixed+flaky
    0x79eeabfd1b121f74ull,  // planned
    0x46205ce300b8be8full,  // planned+faults
    0xdf9af90d3bcc1475ull,  // planned+flaky
    0x38a39902337e55aaull,  // planned+faults+flaky
    0x14c51ae559ab5398ull,  // async
    0x6d6a4e69bc05c892ull,  // async+faults
    0xc8101c0470eff9ecull,  // async+flaky
    0x14a55248418be554ull,  // async+faults+flaky
};
static_assert(std::size(kGoldenDigests) == std::size(kScenarios),
              "one golden digest per scenario");

TEST(SyncEquivalence, OneShardResultsMatchGoldenDigests) {
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    const Scenario& sc = kScenarios[i];
    const std::uint64_t got =
        digest(sys::run_sharded_campaign(matrix_campaign(sc, 1)));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, kGoldenDigests[i]) << sc.name << ": digest " << hex;
  }
}

TEST(SyncEquivalence, MatrixBitwiseEqualToOneShardOracle) {
  std::vector<std::size_t> shard_counts = {2, 4};
  const std::size_t env = env_shards();
  if (std::find(shard_counts.begin(), shard_counts.end(), env) ==
      shard_counts.end()) {
    shard_counts.push_back(env);
  }
  std::uint64_t total_skipped = 0;
  for (const Scenario& sc : kScenarios) {
    const auto oracle = sys::run_sharded_campaign(matrix_campaign(sc, 1));
    EXPECT_EQ(oracle.windows, 0u) << sc.name;  // no barriers at K = 1
    EXPECT_EQ(oracle.windows_skipped, 0u) << sc.name;
    for (const std::size_t shards : shard_counts) {
      const std::string label =
          std::string(sc.name) + " shards=" + std::to_string(shards);
      const auto r = sys::run_sharded_campaign(matrix_campaign(sc, shards));
      expect_bitwise(oracle, r, label);
      total_skipped += r.windows_skipped;
    }
  }
  // The promise widening actually engaged somewhere in the matrix.
  EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Window budget: exact look-ahead promises keep the barrier cap-bound.

/// Long, busy rounds (~15 sim s, 500 arrivals per group) at one leaf per
/// group, so every mode's relay threshold is the group target: the exact
/// promise then holds each group shard's horizon at its target-th arrival,
/// and the windows are bounded by the 257-lookahead cap. A barrier that
/// falls back to one window per few arrivals (2,000 uploads per round)
/// overshoots the budget many times over.
sys::ShardedCampaignConfig budget_campaign(sys::HierarchyMode mode,
                                           std::size_t shards) {
  sys::ShardedCampaignConfig cfg;
  cfg.shards = shards;
  cfg.groups = 4;
  cfg.rounds = 2;
  cfg.leaves_per_group = 1;
  cfg.updates_per_leaf = 500;
  cfg.model_bytes = 50'000;
  cfg.population = 20'000;
  cfg.peak_per_sec = 150.0;
  cfg.ramp_secs = 1.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period_secs = 5.0;
  cfg.seed = 13;
  cfg.hierarchy = mode;
  if (mode != sys::HierarchyMode::kFixed) {
    cfg.replan_interval_secs = 0.5;
    cfg.middle_fanin = 4;
  }
  return cfg;
}

TEST(SyncEquivalence, LookaheadPromisesKeepWindowsNearTheCap) {
  struct Mode {
    const char* name;
    sys::HierarchyMode hierarchy;
  };
  const Mode modes[] = {
      {"planned", sys::HierarchyMode::kPlanned},
      {"fixed", sys::HierarchyMode::kFixed},
      {"async", sys::HierarchyMode::kAsync},
  };
  for (const Mode& m : modes) {
    const auto oracle =
        sys::run_sharded_campaign(budget_campaign(m.hierarchy, 1));
    const auto r = sys::run_sharded_campaign(budget_campaign(m.hierarchy, 4));
    expect_bitwise(oracle, r, m.name);

    if (m.hierarchy == sys::HierarchyMode::kAsync) {
      // The top's version-broadcast promise is still next-arrival based,
      // so async windows track the fleet's arrivals until each version's
      // quota has launched; exact group promises keep them below one per
      // upload (per-arrival group promises land well above it).
      std::uint64_t uploads = 0;
      for (const sys::ShardedGroupStats& g : r.groups) uploads += g.uploads;
      EXPECT_LT(r.windows, uploads) << m.name;
      continue;
    }
    // Cap-bound count: a window spans at most kMaxLookaheads + 1
    // lookaheads, plus about one promise-ended window per group relay.
    const double lookahead = sim::calib::kCrossShardLatencySecs;
    const double cap_bound =
        r.sim_secs / ((sim::ShardedSimulator::kMaxLookaheads + 1) * lookahead);
    const double group_rounds =
        static_cast<double>(r.round_started_at.size() * r.groups.size());
    EXPECT_LE(static_cast<double>(r.windows), 1.2 * cap_bound + group_rounds)
        << m.name << ": cap-bound " << cap_bound;
  }
}

}  // namespace
