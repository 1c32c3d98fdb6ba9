#include "src/workload/population.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace lifl::wl {

namespace calib = lifl::sim::calib;

ClientPopulation ClientPopulation::synthetic(std::size_t count, bool mobile,
                                             sim::Rng& rng,
                                             fl::ParticipantId first_id) {
  ClientPopulation pop;
  pop.count_ = count;
  pop.mobile_ = mobile;
  pop.first_id_ = first_id;
  // Derive an independent root stream, consuming one draw from the caller
  // so successive populations built from the same rng (e.g. the §6.2
  // mobile/server split) get decorrelated profile streams.
  pop.base_ = rng.split(rng.next_u64());
  return pop;
}

ClientPopulation ClientPopulation::tiered(std::size_t count,
                                          const TierMix& mix, sim::Rng& rng,
                                          fl::ParticipantId first_id) {
  ClientPopulation pop = synthetic(count, /*mobile=*/true, rng, first_id);
  pop.tiered_ = true;
  // Contiguous tier layout from rounded shares; IoT absorbs the remainder.
  pop.n_flagship_ = std::min(
      count, static_cast<std::size_t>(
                 std::llround(mix.flagship * static_cast<double>(count))));
  pop.n_mid_ = std::min(
      count - pop.n_flagship_,
      static_cast<std::size_t>(
          std::llround(mix.mid * static_cast<double>(count))));
  return pop;
}

ClientProfile ClientPopulation::operator[](std::size_t i) const {
  sim::Rng r = base_.split(i);
  ClientProfile c;
  c.id = first_id_ + i;
  if (tiered_) {
    // Tiered profile: distributions come from the device-class trait table.
    // The draw order (speed, then samples) matches the legacy path, so a
    // {0,1,0} mix is bitwise-identical to the legacy mobile population.
    c.tier = tier_of(i);
    const TierTraits& tt = tier_traits(c.tier);
    c.speed = std::clamp(r.lognormal(tt.speed_mu, tt.speed_sigma),
                         tt.speed_lo, tt.speed_hi);
    c.samples = static_cast<std::uint32_t>(std::clamp(
        r.lognormal(tt.samples_mu, tt.samples_sigma), tt.samples_lo,
        tt.samples_hi));
    // Flagship devices are effectively always-on (no hibernation draw);
    // mid-range and IoT keep the §6.2 mobile availability behavior.
    c.mobile = c.tier != DeviceTier::kFlagship;
    c.uplink_bytes_per_sec = tt.uplink_bytes_per_sec;
    return c;
  }
  // Lognormal heterogeneity: most clients near nominal speed, a tail of
  // slow stragglers (sigma larger for mobile devices).
  const double sigma = mobile_ ? 0.45 : 0.2;
  c.speed = std::clamp(r.lognormal(0.0, sigma), 0.25, 4.0);
  // Dataset sizes: lognormal around ~600 samples (FEMNIST-like shards).
  c.samples = static_cast<std::uint32_t>(
      std::clamp(r.lognormal(std::log(600.0), 0.5), 50.0, 5000.0));
  c.mobile = mobile_;
  c.uplink_bytes_per_sec = mobile_ ? calib::kClientUplinkBytesPerSec
                                   : calib::kServerUplinkBytesPerSec;
  return c;
}

double ClientPopulation::max_uplink_bytes_per_sec() const noexcept {
  if (!tiered_) {
    return mobile_ ? calib::kClientUplinkBytesPerSec
                   : calib::kServerUplinkBytesPerSec;
  }
  double fastest = 0.0;
  for (const DeviceTier t :
       {DeviceTier::kFlagship, DeviceTier::kMidRange, DeviceTier::kIoT}) {
    if (tier_count(t) > 0) {
      fastest = std::max(fastest, tier_traits(t).uplink_bytes_per_sec);
    }
  }
  return fastest;
}

std::vector<std::size_t> ClientPopulation::sample(std::size_t k,
                                                  sim::Rng& rng) const {
  k = std::min(k, count_);
  // Floyd's sampling without replacement: uniform k-subset in O(k) memory,
  // with no index vector over the (possibly million-client) population.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::unordered_set<std::size_t> seen;
  seen.reserve(k * 2);
  for (std::size_t j = count_ - k; j < count_; ++j) {
    const auto t = static_cast<std::size_t>(rng.uniform_index(j + 1));
    if (seen.insert(t).second) {
      out.push_back(t);
    } else {
      seen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

double ClientPopulation::round_delay_secs(const ClientProfile& c,
                                          double base_train_secs,
                                          sim::Rng& rng) {
  double delay = 0.0;
  if (c.mobile) {
    // §6.2: mobile clients hibernate for a random interval in [0, 60] s,
    // emulating dynamic availability.
    delay += rng.uniform(0.0, calib::kHibernateMaxSecs);
  }
  const double jitter =
      std::max(0.1, rng.normal(1.0, calib::kTrainTimeJitter));
  delay += base_train_secs / c.speed * jitter;
  return delay;
}

double ArrivalProcess::rate(double t) const noexcept {
  if (t < 0) return 0.0;
  double r = cfg_.peak_per_sec;
  if (cfg_.ramp_secs > 0 && t < cfg_.ramp_secs) r *= t / cfg_.ramp_secs;
  if (cfg_.diurnal_amplitude > 0) {
    r *= 1.0 + cfg_.diurnal_amplitude *
                   std::sin(2.0 * M_PI * t / cfg_.diurnal_period_secs);
  }
  return std::max(0.0, r);
}

double ArrivalProcess::next_after(double t, sim::Rng& rng) const {
  // Lewis-Shedler thinning against the envelope rate. The envelope is tight
  // (peak * (1 + amplitude)), so the expected number of rejections per
  // arrival is a small constant.
  const double envelope = cfg_.peak_per_sec * (1.0 + cfg_.diurnal_amplitude);
  for (;;) {
    t += rng.exponential(envelope);
    if (rng.uniform() * envelope <= rate(t)) return t;
  }
}

}  // namespace lifl::wl
