// Virtual clock. All latency in the simulation is accounted by advancing
// this clock from the cost model; no wall-clock time is ever read, so every
// run is deterministic and independent of the build machine.
#pragma once

#include <cassert>
#include <cstdint>

namespace bandslim::sim {

using Nanoseconds = std::uint64_t;

inline constexpr Nanoseconds kMicrosecond = 1000;
inline constexpr Nanoseconds kMillisecond = 1000 * kMicrosecond;
inline constexpr Nanoseconds kSecond = 1000 * kMillisecond;

class VirtualClock {
 public:
  Nanoseconds Now() const { return now_ns_; }

  void Advance(Nanoseconds delta_ns) {
    // Multiple schedulers now compute future timestamps from Now(); a
    // silent wrap would reorder every resource timeline. ~584 years of
    // virtual time fit in 64 bits, so a wrap is always a computation bug.
    assert(now_ns_ + delta_ns >= now_ns_ && "virtual clock overflow");
    now_ns_ += delta_ns;
  }

  // Moves forward to `t`; no-op if the clock is already past it. Used by
  // resource timelines ("wait until the die/channel frees up").
  void AdvanceTo(Nanoseconds t) {
    if (t > now_ns_) now_ns_ = t;
  }

  // Enters an arbitrary time frame — may move the clock BACKWARD. Reserved
  // for the multi-queue machinery (EventEngine, the multi-stream workload
  // executor) which interleaves per-stream time frames; all shared resource
  // timelines are absolute, so bookings stay consistent across frames.
  void SetTime(Nanoseconds t) { now_ns_ = t; }

  void Reset() { now_ns_ = 0; }

 private:
  Nanoseconds now_ns_ = 0;
};

}  // namespace bandslim::sim
