// The collector loop over a capture file (§3.2): read inbound frames, build
// each sampled connection's first packets, and close a connection once it
// has gone idle. This is the one place that decides when a flow closes;
// `tamperscope classify`, the examples and the tests all replay through it.
#pragma once

#include <functional>

#include "capture/sample.h"
#include "capture/sampler.h"
#include "net/pcap.h"

namespace tamper::capture {

/// Receives each flow as the sampler closes it.
using FlowSink = std::function<void(ConnectionSample&&)>;

/// Observation end of the flows still open at EOF: this far past the
/// latest frame timestamp, so every open flow shows a trailing silence.
inline constexpr double kEofHorizonSec = 60.0;

/// Feed every frame of `reader` to `sampler` and hand each closed flow to
/// `on_flow`, in the order the flows close:
///
///  * The sampler's clock is the capture's timestamps, made monotone: a
///    frame that goes back in time is fed at the current clock. A frame
///    that jumps ahead by more than the sampler's flow_idle_timeout moves
///    the clock only when the next frame jumps too (then to the earlier of
///    the two), so one corrupt timestamp cannot close live flows; a lone
///    jump is fed at the old clock. A jump in the last frame read is
///    taken: the flush follows it.
///  * Each time the clock enters a new second, flows idle for the timeout
///    are drained (before the frame that moved the clock is fed). On a
///    time-ordered capture with no gap longer than the timeout that is
///    exactly every first frame of a new capture-second, at its timestamp.
///  * At EOF every open flow is flushed with observation end
///    latest timestamp + kEofHorizonSec.
///
/// `stop`, if set, is asked before each frame is fed; when it returns true
/// the replay flushes what it has read and returns false. Reader exceptions
/// (a strict-mode reader on a corrupt capture) propagate. Returns true when
/// the whole capture was read.
bool replay(net::PcapReader& reader, ConnectionSampler& sampler, const FlowSink& on_flow,
            const std::function<bool()>& stop = {});

}  // namespace tamper::capture
