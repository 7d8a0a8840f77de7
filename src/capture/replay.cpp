#include "capture/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace tamper::capture {

bool replay(net::PcapReader& reader, ConnectionSampler& sampler, const FlowSink& on_flow,
            const std::function<bool()>& stop) {
  const double max_step = sampler.config().flow_idle_timeout;
  const auto emit = [&](std::vector<ConnectionSample>&& flows) {
    for (auto& flow : flows) on_flow(std::move(flow));
  };

  bool started = false;
  common::SimTime now = 0.0;      // the sampler's clock; never goes back
  common::SimTime latest = 0.0;   // latest frame timestamp, trusted or not
  std::int64_t second = 0;        // floor(now)
  net::Packet held;               // a frame that jumped, awaiting the next
  bool holding = false;
  const auto advance = [&](common::SimTime t) {
    if (t <= now) return;
    now = t;
    const auto s = static_cast<std::int64_t>(std::floor(now));
    if (s == second) return;
    second = s;
    emit(sampler.drain_idle(now));
  };

  bool completed = true;
  while (auto pkt = reader.next()) {
    if (stop && stop()) {
      completed = false;
      break;
    }
    const common::SimTime ts = pkt->timestamp;
    latest = std::max(latest, ts);
    if (!started) {
      started = true;
      now = ts;
      second = static_cast<std::int64_t>(std::floor(now));
    }
    if (holding) {
      // Two jumps in a row are a real gap in the capture, not a bad record.
      if (ts - now > max_step) advance(std::min(held.timestamp, ts));
      sampler.on_packet(held, now);
      holding = false;
    }
    if (ts - now > max_step) {
      held = std::move(*pkt);
      holding = true;
      continue;
    }
    advance(ts);
    sampler.on_packet(*pkt, now);
  }
  if (holding) {
    // Nothing follows a jump at the end to confirm it, and nothing is left
    // for it to cut short: every flow closes now anyway.
    advance(held.timestamp);
    sampler.on_packet(held, now);
  }
  emit(sampler.flush_all(latest + kEofHorizonSec));
  return completed;
}

}  // namespace tamper::capture
