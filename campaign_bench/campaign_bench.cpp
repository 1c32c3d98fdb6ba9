// The campaign benchmark's measuring process. One process makes one
// `sys::run_sharded_campaign` call on one named workload and prints one
// JSON line: the host cost and modelled outcome of that call (untraced),
// or the per-layer counters, histograms and layer probes (traced). run.py
// drives it; see NOTES.md for every metric's source and meaning.
//
//   campaign_bench run --workload W --seed N [--spawned-at NS] [--traced]
//                      [--check-resume]
//   campaign_bench selftest
//
// `--spawned-at` is the CLOCK_MONOTONIC time (ns) at which the parent
// spawned this process; `setup_s` runs from there to entering the call.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "src/dataplane/config.hpp"
#include "src/dataplane/dataplane.hpp"
#include "src/fl/aggregator_runtime.hpp"
#include "src/sim/node.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/systems/sharded_campaign.hpp"

namespace {

using namespace lifl;
using Result = sys::ShardedCampaignResult;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_secs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak RSS of this process image (VmHWM). Unlike getrusage's ru_maxrss,
/// VmHWM starts afresh at exec, so it excludes the launcher's footprint.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ------------------------------------------------------------- workloads

enum class Workload { kPlannedS1, kPlannedS4, kAsyncChurnS1 };

bool parse_workload(const std::string& name, Workload& w) {
  if (name == "planned-1m-s1") {
    w = Workload::kPlannedS1;
  } else if (name == "planned-1m-s4") {
    w = Workload::kPlannedS4;
  } else if (name == "async-churn-1m-s1") {
    w = Workload::kAsyncChurnS1;
  } else {
    return false;
  }
  return true;
}

/// The workload's campaign. Common settings follow examples/mega_campaign:
/// 1M clients in 8 groups, 4 rounds of 248,000 uploads, an open-loop
/// Poisson arrival stream with a 60 s ramp and a 10-minute diurnal wave.
sys::ShardedCampaignConfig make_config(Workload w, std::uint64_t seed) {
  sys::ShardedCampaignConfig cfg;
  cfg.groups = 8;
  cfg.rounds = 4;
  cfg.updates_per_leaf = 500;
  cfg.leaves_per_group = 62;
  cfg.model_bytes = 100'000;
  cfg.population = 1'000'000;
  cfg.peak_per_sec = 2500.0;
  cfg.ramp_secs = 60.0;
  cfg.diurnal_amplitude = 0.3;
  cfg.diurnal_period_secs = 600.0;
  cfg.seed = seed;
  cfg.timing = fl::AggTiming::kEager;
  cfg.gateway_queues = 0;
  cfg.hierarchy = sys::HierarchyMode::kPlanned;
  cfg.shards = 1;
  if (w == Workload::kPlannedS4) {
    cfg.shards = std::min<std::size_t>(4, usable_cpus());
  }
  if (w == Workload::kAsyncChurnS1) {
    cfg.hierarchy = sys::HierarchyMode::kAsync;
    cfg.async_deadline_secs = 2.0;
    cfg.device_tiers = wl::TierMix{0.4, 0.3, 0.3};
    cfg.lifecycle.disconnect_rate = 0.2;
    cfg.lifecycle.offline_base_secs = 0.05;
    cfg.lifecycle.offline_cap_secs = 1.0;
    cfg.selector = ctrl::SelectorPolicy::kScored;
    cfg.fault.seed = seed;
    cfg.fault.leaf_crash_rate = 0.1;
    cfg.checkpoint_every_secs = 30.0;
  }
  return cfg;
}

// ---------------------------------------------------------------- digest

class Fnv {
 public:
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Bitwise digest of every simulated statistic the equivalence checks
/// compare: the per-round vectors, the per-group aggregates and the event
/// count.
std::uint64_t result_digest(const Result& r) {
  Fnv f;
  f.vec(r.round_started_at);
  f.vec(r.round_completed_at);
  f.vec(r.round_samples);
  f.vec(r.round_weight);
  f.vec(r.round_spawned);
  f.vec(r.round_reused);
  f.vec(r.round_refolded);
  f.pod(r.groups.size());
  for (const auto& g : r.groups) {
    f.pod(g.uploads);
    f.pod(g.pool_pushed);
    f.pod(g.gateway_busy_secs);
    f.pod(g.gateway_wait_secs);
    f.pod(g.cpu_cycles);
  }
  f.pod(r.events);
  return f.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

using Errors = std::vector<std::string>;

void check_same_digest(const char* what, std::uint64_t want, std::uint64_t got,
                       Errors& errors) {
  if (want != got) {
    errors.push_back(std::string(what) + ": digest " + hex(got) +
                     " != reference " + hex(want));
  }
}

/// Conservation: every disconnect resumed, no upload abandoned by a quorum
/// seal, and every round/version folded samples.
void check_conservation(const Result& r, std::size_t rounds, Errors& errors) {
  if (r.disconnects != r.resumed_uploads) {
    errors.push_back("conservation: " + std::to_string(r.disconnects) +
                     " disconnects but " + std::to_string(r.resumed_uploads) +
                     " resumed uploads");
  }
  if (r.quorum_abandoned != 0) {
    errors.push_back("conservation: " + std::to_string(r.quorum_abandoned) +
                     " uploads abandoned by quorum seals");
  }
  if (r.round_samples.size() != rounds) {
    errors.push_back("conservation: " + std::to_string(r.round_samples.size()) +
                     " rounds completed, expected " + std::to_string(rounds));
  }
  for (std::size_t i = 0; i < r.round_samples.size(); ++i) {
    if (r.round_samples[i] == 0) {
      errors.push_back("conservation: round " + std::to_string(i + 1) +
                       " has no samples");
    }
  }
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value;
};
using Metrics = std::vector<Metric>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t uploads_launched(const Result& r) {
  std::uint64_t n = 0;
  for (const auto& g : r.groups) n += g.uploads;
  return n;
}

/// Uploads that never reached an aggregator: abandoned by a quorum seal, or
/// disconnected and never resumed.
std::uint64_t failed_uploads(const Result& r) {
  const std::uint64_t unresumed =
      r.disconnects > r.resumed_uploads ? r.disconnects - r.resumed_uploads : 0;
  return r.quorum_abandoned + unresumed;
}

struct HostCost {
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t allocs = 0;
};

/// The end-to-end metrics of one untraced call. `failed_frac` is reported
/// as its complement `completed_frac`, which is never 0.
Metrics end_to_end(const Result& r, const HostCost& h) {
  const double launched = static_cast<double>(uploads_launched(r));
  double round_sum = 0;
  for (std::size_t i = 0; i < r.round_completed_at.size(); ++i) {
    round_sum += r.round_completed_at[i] - r.round_started_at[i];
  }
  double cycles = 0;
  for (const auto& g : r.groups) cycles += g.cpu_cycles;
  return {
      {"wall_s", "s", h.wall_s},
      {"cpu_s", "s", h.cpu_s},
      {"setup_s", "s", h.setup_s},
      {"peak_rss_mb", "MiB", h.peak_rss_mb},
      {"allocs_per_upload", "count",
       ratio(static_cast<double>(h.allocs), launched)},
      {"sim_round_s", "sim_s",
       ratio(round_sum, static_cast<double>(r.round_completed_at.size()))},
      {"sim_cpu_gcycles", "Gcycles", cycles / 1e9},
      {"completed_frac", "ratio",
       1.0 - ratio(static_cast<double>(failed_uploads(r)), launched)},
  };
}

/// Quantile of a log2-bucketed histogram, interpolated linearly by rank
/// inside the bucket (bucket i holds [2^(i-33), 2^(i-32))) and clamped to
/// the observed range.
double hist_quantile(const obs::Hist& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0;
  for (int i = 0; i < obs::Hist::kBuckets; ++i) {
    const auto c =
        static_cast<double>(h.buckets[static_cast<std::size_t>(i)]);
    if (c == 0) continue;
    if (seen + c >= rank) {
      if (i == 0) return std::max(0.0, h.min);
      const double lo = std::ldexp(1.0, i - obs::Hist::kExpOffset - 1);
      const double hi = std::ldexp(1.0, i - obs::Hist::kExpOffset);
      const double v = lo + (rank - seen) / c * (hi - lo);
      return std::clamp(v, h.min, h.max);
    }
    seen += c;
  }
  return h.max;
}

/// Host-side layer probes and the resume call, timed from outside.
struct Probes {
  double core_ns_per_event = 0;
  double dp_ns_per_upload = 0;
  double dp_allocs_per_upload = 0;
  double agg_ns_per_fold = 0;
  double agg_allocs_per_fold = 0;
  double resume_s = 0;
};

/// The per-layer metrics of one traced call, except the tracing overhead,
/// which needs the untraced wall time of another process (run.py adds it).
Metrics per_layer(const Result& r, double wall_s, const Probes& p) {
  const double launched = static_cast<double>(uploads_launched(r));
  const double shards = static_cast<double>(std::max<std::size_t>(
      1, r.shard_idle_secs.size()));
  double idle = 0;
  for (const double s : r.shard_idle_secs) idle += s;
  std::uint64_t shard_windows = 0;
  std::uint64_t empty_windows = 0;
  for (const auto w : r.shard_windows) shard_windows += w;
  for (const auto w : r.shard_empty_windows) empty_windows += w;

  double folds = 0, drains = 0, trace_events = 0, trace_dropped = 0;
  obs::Hist gw_wait, fold, session;
  if (r.obs) {
    const auto& reg = r.obs->registry();
    const auto& ids = r.obs->ids();
    folds = static_cast<double>(reg.counter_total(ids.folds));
    drains = static_cast<double>(reg.counter_total(ids.drains));
    gw_wait = reg.hist_total(ids.gateway_wait_secs);
    fold = reg.hist_total(ids.fold_secs);
    session = reg.hist_total(ids.upload_session_secs);
    trace_events = static_cast<double>(r.obs->trace().recorded_events());
    trace_dropped = static_cast<double>(r.obs->trace().dropped_events());
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"core.events", "count", d(r.events)},
      {"core.events_per_upload", "count", ratio(d(r.events), launched)},
      {"core.events_per_s", "1/s", ratio(d(r.events), wall_s)},
      {"core.probe_ns_per_event", "ns", p.core_ns_per_event},
      {"barrier.windows", "count", d(r.windows)},
      {"barrier.windows_skipped", "count", d(r.windows_skipped)},
      {"barrier.cross_posts", "count", d(r.cross_posts)},
      {"barrier.windows_per_post", "ratio",
       ratio(d(r.windows), d(r.cross_posts))},
      {"barrier.idle_s", "s", idle},
      {"barrier.idle_frac", "ratio", ratio(idle, shards * wall_s)},
      {"barrier.empty_window_frac", "ratio",
       ratio(d(empty_windows), d(shard_windows))},
      {"dataplane.probe_ns_per_upload", "ns", p.dp_ns_per_upload},
      {"dataplane.probe_allocs_per_upload", "count", p.dp_allocs_per_upload},
      {"dataplane.gateway_wait_p50_s", "sim_s", hist_quantile(gw_wait, 0.5)},
      {"dataplane.gateway_wait_p99_s", "sim_s", hist_quantile(gw_wait, 0.99)},
      {"dataplane.chunks_sent", "count", d(r.chunks_sent)},
      {"dataplane.chunk_resend_frac", "ratio",
       ratio(d(r.chunks_resent), d(r.chunks_sent))},
      {"agg.folds", "count", folds},
      {"agg.spawned", "count", d(r.spawned_total)},
      {"agg.reused", "count", d(r.reused_total)},
      {"agg.reuse_frac", "ratio",
       ratio(d(r.reused_total), d(r.spawned_total + r.reused_total))},
      {"agg.drains", "count", drains},
      // The registry's agg_folds counts leaf batches, so re-folded client
      // updates are set against the client updates launched.
      {"agg.refold_frac", "ratio", ratio(d(r.refolded_updates), launched)},
      {"agg.fold_p50_s", "sim_s", hist_quantile(fold, 0.5)},
      {"agg.probe_ns_per_fold", "ns", p.agg_ns_per_fold},
      {"agg.probe_allocs_per_fold", "count", p.agg_allocs_per_fold},
      {"orch.replans", "count", d(r.replans)},
      {"orch.peak_leaves", "count", d(r.peak_leaves)},
      {"client.disconnects", "count", d(r.disconnects)},
      {"client.resume_frac", "ratio",
       ratio(d(r.resumed_uploads), d(r.disconnects))},
      {"client.selection_redraws", "count", d(r.selection_redraws)},
      {"client.upload_session_p50_s", "sim_s", hist_quantile(session, 0.5)},
      {"client.upload_session_p99_s", "sim_s", hist_quantile(session, 0.99)},
      {"client.failed_frac", "ratio", ratio(d(failed_uploads(r)), launched)},
      {"ckpt.marks", "count", d(r.checkpoint_marks)},
      {"ckpt.blobs", "count", d(r.checkpoints_written)},
      {"ckpt.bytes", "bytes", d(r.checkpoint_bytes)},
      {"ckpt.encode_s", "s", r.checkpoint_encode_secs},
      {"ckpt.resume_s", "s", p.resume_s},
      {"obs.trace_events", "count", trace_events},
      {"obs.trace_dropped", "count", trace_dropped},
  };
}

// ---------------------------------------------------------------- probes

/// Event core: 1,024 self-rescheduling event chains with pseudo-random
/// sub-20 ms gaps, `events` dispatches in total. Returns ns per event.
double probe_core(std::uint64_t events) {
  struct Tick {
    sim::Simulator* sim;
    std::uint64_t* left;
    std::uint64_t state;
    void operator()() {
      if (*left == 0) return;
      --*left;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double gap = static_cast<double>(state >> 11) * 0x1.0p-53 * 0.02;
      sim->schedule_after(gap, Tick{sim, left, state});
    }
  };
  sim::Simulator sim;
  std::uint64_t left = events;
  const auto t0 = mono_ns();
  for (std::uint64_t c = 0; c < 1024; ++c) {
    sim.schedule_after(0.0, Tick{&sim, &left, c * 0x9E3779B97F4A7C15ull});
  }
  sim.run();
  const auto t1 = mono_ns();
  return ratio(static_cast<double>(t1 - t0),
               static_cast<double>(sim.dispatched()));
}

struct PerItem {
  double ns = 0;
  double allocs = 0;
};

/// Data plane: `uploads` client uploads of `bytes` into one LIFL node's
/// pool, arriving at one group's share of the campaign rate, run until the
/// cost pipeline drains.
PerItem probe_dataplane(std::size_t uploads, std::size_t bytes,
                        std::uint64_t seed, Errors& errors) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, dp::lifl_plane(), sim::Rng(seed));
  const double gap = 8.0 / 2500.0;
  const auto a0 = bench::allocation_count();
  const auto t0 = mono_ns();
  for (std::size_t i = 0; i < uploads; ++i) {
    sim.schedule_at(static_cast<double>(i) * gap, [&plane, i, bytes] {
      fl::ModelUpdate u;
      u.producer = i;
      u.sample_count = 600;
      u.logical_bytes = bytes;
      plane.client_upload(0, std::move(u), 2e6);
    });
  }
  sim.run();
  const auto t1 = mono_ns();
  const auto a1 = bench::allocation_count();
  if (plane.env(0).pool.depth() != uploads) {
    errors.push_back("dataplane probe: " +
                     std::to_string(plane.env(0).pool.depth()) +
                     " updates pooled of " + std::to_string(uploads));
  }
  const double n = static_cast<double>(uploads);
  return {static_cast<double>(t1 - t0) / n, static_cast<double>(a1 - a0) / n};
}

/// Aggregator runtime: `leaves` successive leaf runtimes, each pulling
/// `per_leaf` pre-seeded updates from the node pool and folding them.
/// Seeding the pool is not timed.
PerItem probe_aggregator(std::size_t leaves, std::uint32_t per_leaf,
                         std::size_t bytes, std::uint64_t seed,
                         Errors& errors) {
  sim::Simulator sim;
  sim::Cluster cluster(sim, 1);
  dp::DataPlane plane(cluster, dp::lifl_plane(), sim::Rng(seed));
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t folded = 0;
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::uint32_t k = 0; k < per_leaf; ++k) {
      fl::ModelUpdate u;
      u.producer = k;
      u.sample_count = 600;
      u.logical_bytes = bytes;
      plane.seed_update(0, std::move(u));
    }
    fl::AggregatorRuntime::Config lc;
    lc.id = 10 + l;
    lc.node = 0;
    lc.role = fl::AggRole::kLeaf;
    lc.timing = fl::AggTiming::kEager;
    lc.goal = per_leaf;
    lc.result_bytes = bytes;
    lc.pull_from_pool = true;
    lc.on_result = [&folded](fl::ModelUpdate u) {
      folded += u.updates_folded;
    };
    const auto a0 = bench::allocation_count();
    const auto t0 = mono_ns();
    {
      fl::AggregatorRuntime leaf(plane, std::move(lc));
      leaf.start();
      sim.run();
    }
    ns += mono_ns() - t0;
    allocs += bench::allocation_count() - a0;
  }
  const double n = static_cast<double>(leaves) * per_leaf;
  if (static_cast<double>(folded) != n) {
    errors.push_back("aggregator probe: folded " + std::to_string(folded) +
                     " of " + std::to_string(static_cast<std::uint64_t>(n)));
  }
  return {static_cast<double>(ns) / n, static_cast<double>(allocs) / n};
}

// ------------------------------------------------------------ JSON output

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Wall-clock spans of the calls this process makes into the library,
/// kept in memory and printed with the result. run.py nests them under the
/// span of the process that made them.
class SpanLog {
 public:
  std::size_t begin(const char* name) {
    spans_.push_back({name, mono_ns(), 0});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_[id].end_ns = mono_ns(); }

  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (i > 0) out += ',';
      out += "{\"name\":" + json_str(s.name) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

void print_result(bool ok, const Errors& errors, const std::string& body) {
  std::string out = "{\"ok\":";
  out += ok && errors.empty() ? "true" : "false";
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ',';
    out += json_str(errors[i]);
  }
  out += "]";
  if (!body.empty()) out += "," + body;
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ',';
    out += json_str(m[i].name) + ":{\"value\":" + json_num(m[i].value) +
           ",\"unit\":" + json_str(m[i].unit) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------------------- run

struct RunArgs {
  Workload workload = Workload::kPlannedS1;
  std::uint64_t seed = 0;
  std::int64_t spawned_at_ns = 0;
  bool traced = false;
  bool check_resume = false;
};

int run(const RunArgs& a) {
  SpanLog spans;
  sys::ShardedCampaignConfig cfg = make_config(a.workload, a.seed);
  cfg.obs.trace = cfg.obs.metrics = a.traced;
  std::vector<std::uint8_t> last_blob;
  if (cfg.checkpoint_every_secs > 0.0) {
    cfg.on_checkpoint = [&last_blob](const std::vector<std::uint8_t>& blob,
                                     std::uint32_t, double) {
      last_blob = blob;
    };
  }

  Errors errors;
  HostCost host;
  Result r;
  // The span is opened before the counters are read, so its bookkeeping
  // stays out of the measured call.
  const std::size_t call = spans.begin("run_sharded_campaign");
  const double cpu0 = cpu_secs();
  const std::uint64_t allocs0 = bench::allocation_count();
  const std::int64_t t0 = mono_ns();
  if (a.spawned_at_ns > 0) {
    host.setup_s = 1e-9 * static_cast<double>(t0 - a.spawned_at_ns);
  }
  try {
    r = sys::run_sharded_campaign(cfg);
  } catch (const std::exception& e) {
    print_result(false, {std::string("campaign threw: ") + e.what()}, "");
    return 1;
  }
  host.wall_s = 1e-9 * static_cast<double>(mono_ns() - t0);
  host.allocs = bench::allocation_count() - allocs0;
  host.cpu_s = cpu_secs() - cpu0;
  spans.end(call);
  host.peak_rss_mb = peak_rss_mib();
  check_conservation(r, cfg.rounds, errors);
  const std::uint64_t digest = result_digest(r);

  Probes probes;
  std::string extra;
  if ((a.check_resume || a.traced) && cfg.checkpoint_every_secs > 0.0 &&
      last_blob.empty()) {
    errors.push_back("resume: the campaign emitted no checkpoint blob");
  } else if ((a.check_resume || a.traced) && !last_blob.empty()) {
    sys::ShardedCampaignConfig rc = cfg;
    rc.on_checkpoint = nullptr;
    rc.resume_blob = &last_blob;
    const std::size_t span = spans.begin("run_sharded_campaign.resume");
    const std::int64_t r0 = mono_ns();
    try {
      const Result resumed = sys::run_sharded_campaign(rc);
      probes.resume_s = 1e-9 * static_cast<double>(mono_ns() - r0);
      check_same_digest("resume from last blob", digest,
                        result_digest(resumed), errors);
      extra += ",\"resume_s\":" + json_num(probes.resume_s);
    } catch (const std::exception& e) {
      errors.push_back(std::string("resume threw: ") + e.what());
    }
    spans.end(span);
  }

  Metrics metrics;
  if (a.traced) {
    std::size_t span = spans.begin("probe.core");
    probes.core_ns_per_event = probe_core(r.events);
    spans.end(span);
    span = spans.begin("probe.dataplane");
    const PerItem dp = probe_dataplane(cfg.per_group_target(),
                                       cfg.model_bytes, a.seed, errors);
    spans.end(span);
    probes.dp_ns_per_upload = dp.ns;
    probes.dp_allocs_per_upload = dp.allocs;
    span = spans.begin("probe.aggregator");
    const PerItem agg = probe_aggregator(64, cfg.updates_per_leaf,
                                         cfg.model_bytes, a.seed, errors);
    spans.end(span);
    probes.agg_ns_per_fold = agg.ns;
    probes.agg_allocs_per_fold = agg.allocs;
    metrics = per_layer(r, host.wall_s, probes);
  } else {
    metrics = end_to_end(r, host);
  }

  std::string body = "\"digest\":" + json_str(hex(digest)) +
                     ",\"shards\":" + std::to_string(cfg.shards) +
                     ",\"uploads\":" + std::to_string(uploads_launched(r)) +
                     ",\"failed_uploads\":" +
                     std::to_string(failed_uploads(r)) +
                     ",\"wall_s\":" + json_num(host.wall_s) + extra +
                     ",\"metrics\":" + metrics_json(metrics) +
                     ",\"spans\":" + spans.json();
  print_result(true, errors, body);
  return errors.empty() ? 0 : 1;
}

// -------------------------------------------------------------- selftest

double metric(const Metrics& m, const std::string& name) {
  for (const auto& x : m) {
    if (x.name == name) return x.value;
  }
  return std::nan("");
}

/// Checks the metric arithmetic on a hand-built result, and that the
/// digest and the conservation checks catch a deliberate mismatch.
int selftest() {
  Errors fails;
  const auto expect = [&fails](const char* what, double got, double want) {
    if (!(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)))) {
      fails.push_back(std::string(what) + " = " + json_num(got) + ", want " +
                      json_num(want));
    }
  };

  Result r;
  r.round_started_at = {0.0, 10.0};
  r.round_completed_at = {4.0, 16.0};
  r.round_samples = {7, 9};
  r.round_weight = {7.0, 9.0};
  r.round_spawned = {3, 0};
  r.round_reused = {0, 3};
  r.round_refolded = {0, 0};
  r.groups.resize(2);
  r.groups[0].uploads = 100;
  r.groups[0].cpu_cycles = 1e9;
  r.groups[1].uploads = 300;
  r.groups[1].cpu_cycles = 2e9;
  r.disconnects = 10;
  r.resumed_uploads = 8;
  r.quorum_abandoned = 2;
  r.events = 2000;
  r.windows = 60;
  r.cross_posts = 4;
  r.shard_windows = {60, 60};
  r.shard_empty_windows = {15, 45};
  r.shard_idle_secs = {0.5, 1.5};
  r.spawned_total = 3;
  r.reused_total = 9;
  r.refolded_updates = 40;

  HostCost h;
  h.wall_s = 2.0;
  h.cpu_s = 3.5;
  h.setup_s = 0.25;
  h.peak_rss_mb = 12.5;
  h.allocs = 4800;
  const Metrics e2e = end_to_end(r, h);
  const auto expect_in = [&expect](const Metrics& m, const char* name,
                                   double want) {
    expect(name, metric(m, name), want);
  };
  expect_in(e2e, "allocs_per_upload", 12.0);
  expect_in(e2e, "sim_round_s", 5.0);
  expect_in(e2e, "sim_cpu_gcycles", 3.0);
  // failed = 2 abandoned + (10 - 8) unresumed = 4 of 400 launched.
  expect_in(e2e, "completed_frac", 0.99);
  expect_in(e2e, "wall_s", 2.0);

  const Metrics layer = per_layer(r, 2.0, Probes{});
  expect_in(layer, "client.failed_frac", 0.01);
  // 2.0 idle seconds over 2 shards x 2.0 s wall.
  expect_in(layer, "barrier.idle_frac", 0.5);
  expect_in(layer, "barrier.idle_s", 2.0);
  expect_in(layer, "barrier.windows_per_post", 15.0);
  expect_in(layer, "barrier.empty_window_frac", 0.5);
  expect_in(layer, "core.events_per_upload", 5.0);
  expect_in(layer, "core.events_per_s", 1000.0);
  expect_in(layer, "agg.reuse_frac", 0.75);
  expect_in(layer, "client.resume_frac", 0.8);
  expect_in(layer, "agg.refold_frac", 0.1);

  obs::Hist hist;
  for (int i = 0; i < 99; ++i) hist.observe(0.75);
  hist.observe(3.0);
  // 99 values in bucket [0.5, 1), one in [2, 4): ranks interpolate inside
  // the bucket, and the top quantile clamps to the observed maximum.
  expect("hist p50", hist_quantile(hist, 0.5), 0.5 + 0.5 * 50.0 / 99.0);
  expect("hist p99", hist_quantile(hist, 0.99), 1.0);
  expect("hist p100", hist_quantile(hist, 1.0), 3.0);

  Errors caught;
  check_conservation(r, 2, caught);
  if (caught.size() != 2) {
    fails.push_back("conservation caught " + std::to_string(caught.size()) +
                    " violations, want 2");
  }
  Result twin = r;
  caught.clear();
  check_same_digest("identical twin", result_digest(r), result_digest(twin),
                    caught);
  if (!caught.empty()) fails.push_back("identical results disagree");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &twin.round_weight[1], sizeof bits);
  bits ^= 1;  // one ulp: only a bitwise comparison sees it
  std::memcpy(&twin.round_weight[1], &bits, sizeof bits);
  check_same_digest("mismatched twin", result_digest(r), result_digest(twin),
                    caught);
  if (caught.size() != 1) fails.push_back("a one-ulp mismatch was not caught");

  print_result(fails.empty(), fails, "");
  return fails.empty() ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run --workload planned-1m-s1|planned-1m-s4|"
               "async-churn-1m-s1 --seed N [--spawned-at NS] [--traced] "
               "[--check-resume]\n       %s selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) return selftest();
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage(argv[0]);
  RunArgs a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      if (!parse_workload(argv[++i], a.workload)) return usage(argv[0]);
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      a.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--spawned-at" && has_value) {
      char* end = nullptr;
      a.spawned_at_ns = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage(argv[0]);
    } else if (arg == "--traced") {
      a.traced = true;
    } else if (arg == "--check-resume") {
      a.check_resume = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed) return usage(argv[0]);
  return run(a);
}
