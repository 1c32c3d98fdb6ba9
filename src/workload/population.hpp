#pragma once

#include <cstdint>
#include <vector>

#include "src/fl/model_update.hpp"
#include "src/sim/calibration.hpp"
#include "src/sim/random.hpp"
#include "src/workload/device_tier.hpp"

namespace lifl::wl {

/// One FL client as the platform sees it (FedScale-style heterogeneous
/// population, §6.2).
struct ClientProfile {
  fl::ParticipantId id = 0;
  /// Relative compute speed (1.0 = nominal); training time divides by this.
  double speed = 1.0;
  /// Local dataset size (FedAvg weight c_k).
  std::uint32_t samples = 0;
  /// Mobile clients hibernate before training (§6.2 ResNet-18 setup);
  /// server clients are always-on (§6.2 ResNet-152 setup).
  bool mobile = false;
  /// Upload bandwidth to the cluster ingress.
  double uplink_bytes_per_sec = sim::calib::kServerUplinkBytesPerSec;
  /// Device class (meaningful only for tiered populations; legacy
  /// synthetic populations report every client as mid-range).
  DeviceTier tier = DeviceTier::kMidRange;
};

/// A synthetic client population standing in for FedScale's real clients:
/// lognormal compute speeds and dataset sizes, plus the mobile/server
/// availability split of §6.2.
///
/// Profiles are *lazy*: the population stores only its parameters and an RNG
/// root, and `operator[]` derives client `i`'s profile from an independent
/// per-index RNG stream. A 1M-client campaign therefore holds O(1) memory
/// per population and O(active clients) in flight, never a resident vector
/// of one million `ClientProfile`s.
class ClientPopulation {
 public:
  ClientPopulation() = default;

  /// Describe `count` clients. Mobile clients get mobile-grade uplinks and
  /// the hibernation behavior; ids start at `first_id`.
  static ClientPopulation synthetic(std::size_t count, bool mobile,
                                    sim::Rng& rng,
                                    fl::ParticipantId first_id = 1'000'000);

  /// Describe `count` clients split into flagship / mid-range / IoT device
  /// classes per `mix` (shares must sum to ~1). Tiers occupy contiguous
  /// index ranges — flagship first, then mid-range, then IoT — so
  /// tier-of-index and uniform-within-tier draws are O(1) arithmetic.
  /// Profiles stay lazy exactly like `synthetic`.
  static ClientPopulation tiered(std::size_t count, const TierMix& mix,
                                 sim::Rng& rng,
                                 fl::ParticipantId first_id = 1'000'000);

  /// Client `i`'s profile, computed on demand (deterministic per index).
  ClientProfile operator[](std::size_t i) const;
  std::size_t size() const noexcept { return count_; }

  bool tiered() const noexcept { return tiered_; }
  /// Device class of index `i`. Untiered populations report every client
  /// as mid-range (matching the profile's default tier).
  DeviceTier tier_of(std::size_t i) const noexcept {
    if (!tiered_) return DeviceTier::kMidRange;
    if (i < n_flagship_) return DeviceTier::kFlagship;
    if (i < n_flagship_ + n_mid_) return DeviceTier::kMidRange;
    return DeviceTier::kIoT;
  }
  /// First index of tier `t`'s contiguous range.
  std::size_t tier_begin(DeviceTier t) const noexcept {
    if (!tiered_) return 0;
    switch (t) {
      case DeviceTier::kFlagship:
        return 0;
      case DeviceTier::kMidRange:
        return n_flagship_;
      case DeviceTier::kIoT:
        return n_flagship_ + n_mid_;
    }
    return count_;
  }
  std::size_t tier_count(DeviceTier t) const noexcept {
    if (!tiered_) return t == DeviceTier::kMidRange ? count_ : 0;
    switch (t) {
      case DeviceTier::kFlagship:
        return n_flagship_;
      case DeviceTier::kMidRange:
        return n_mid_;
      case DeviceTier::kIoT:
        return count_ - n_flagship_ - n_mid_;
    }
    return 0;
  }

  /// Sample `k` distinct client indices (the selector's diversity draw).
  /// O(k) time and memory (Floyd's algorithm), independent of `size()`.
  std::vector<std::size_t> sample(std::size_t k, sim::Rng& rng) const;

  /// Per-round client latency: hibernation (mobile only) + local training,
  /// with heterogeneity from the profile's speed and multiplicative jitter.
  static double round_delay_secs(const ClientProfile& c,
                                 double base_train_secs, sim::Rng& rng);

 private:
  std::size_t count_ = 0;
  bool mobile_ = false;
  fl::ParticipantId first_id_ = 0;
  sim::Rng base_{0};  ///< root of the per-client profile streams
  bool tiered_ = false;
  std::size_t n_flagship_ = 0;  ///< indices [0, n_flagship_)
  std::size_t n_mid_ = 0;       ///< indices [n_flagship_, n_flagship_+n_mid_)
};

/// Arrival-process generator for open-loop campaign traffic: a
/// nonhomogeneous Poisson process whose rate ramps up linearly over
/// `ramp_secs` and then oscillates with a diurnal wave,
///
///   rate(t) = peak_per_sec * min(1, t/ramp) *
///             (1 + diurnal_amplitude * sin(2*pi*t/diurnal_period)).
///
/// Campaigns pull one arrival time at a time (Lewis-Shedler thinning), so a
/// million-client workload keeps a single pending arrival event rather than
/// pre-materializing the full schedule.
class ArrivalProcess {
 public:
  struct Config {
    double peak_per_sec = 100.0;     ///< plateau arrival rate
    double ramp_secs = 0.0;          ///< linear warm-up to the plateau
    double diurnal_amplitude = 0.0;  ///< in [0, 1); 0 = flat plateau
    double diurnal_period_secs = 86'400.0;
  };

  explicit ArrivalProcess(Config cfg) : cfg_(cfg) {}

  /// Instantaneous arrival rate at time `t`.
  double rate(double t) const noexcept;

  /// Next arrival strictly after time `t` (thinning against the peak rate).
  double next_after(double t, sim::Rng& rng) const;

  const Config& config() const noexcept { return cfg_; }

 private:
  Config cfg_;
};

/// Exact look-ahead over one `ArrivalProcess` chain. A chain's arrival
/// times depend only on its own generator, so replaying `next_after` on a
/// clone of that generator yields the chain's future arrivals bit for bit
/// without disturbing the chain. The cursor only walks forward and keeps
/// one position, never a schedule: over a round it costs at most one draw
/// per arrival, in O(1) memory.
class ArrivalCursor {
 public:
  ArrivalCursor() = default;

  /// Position on arrival number `index` (1-based) of a chain, due at
  /// relative time `rel`; `rng` is the chain's generator right after that
  /// arrival was drawn.
  ArrivalCursor(const ArrivalProcess& process, const sim::Rng& rng, double rel,
                std::uint64_t index)
      : process_(&process), rng_(rng), rel_(rel), index_(index) {}

  /// Arrival number of the current position.
  std::uint64_t index() const noexcept { return index_; }

  /// Relative time of arrival number `n`, moving the cursor there.
  /// Requires `n >= index()`: the cursor never walks back.
  double advance_to(std::uint64_t n) {
    for (; index_ < n; ++index_) rel_ = process_->next_after(rel_, rng_);
    return rel_;
  }

 private:
  const ArrivalProcess* process_ = nullptr;
  sim::Rng rng_{0};
  double rel_ = 0.0;
  std::uint64_t index_ = 0;
};

/// Bins events into fixed windows — the arrival-rate-per-minute series of
/// Fig. 10(a)/(d).
class ArrivalTracker {
 public:
  explicit ArrivalTracker(double bin_secs = 60.0) : bin_secs_(bin_secs) {}

  void record(double t_secs) {
    const auto bin = static_cast<std::size_t>(t_secs / bin_secs_);
    if (bins_.size() <= bin) bins_.resize(bin + 1, 0);
    ++bins_[bin];
    ++total_;
  }

  const std::vector<std::uint32_t>& bins() const noexcept { return bins_; }
  std::uint64_t total() const noexcept { return total_; }
  double bin_secs() const noexcept { return bin_secs_; }

 private:
  double bin_secs_;
  std::vector<std::uint32_t> bins_;
  std::uint64_t total_ = 0;
};

}  // namespace lifl::wl
