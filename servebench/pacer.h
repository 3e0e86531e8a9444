#ifndef SERVEBENCH_PACER_H_
#define SERVEBENCH_PACER_H_

// The open-loop (paced) schedule. The generator stamps every event with a
// stream-clock time; the paced phase maps that clock onto wall time at a
// fixed speed, so the offered load keeps the stream's own burstiness while
// its mean rate is fixed. Every request is timed from when it was *due*,
// not from when the sender got round to it: a stalled sender's delay then
// shows in the latency of every request queued behind the stall, and the
// stall itself is reported as generator lateness.

namespace servebench {

class PacedSchedule {
 public:
  // `stream_origin` is the stream time that maps to wall offset 0;
  // `speed` is stream seconds per wall second (> 0).
  PacedSchedule(double stream_origin, double speed)
      : origin_(stream_origin), speed_(speed) {}

  // Wall seconds after the phase start at which an event is due.
  double DueSeconds(double stream_time) const {
    const double offset = (stream_time - origin_) / speed_;
    return offset > 0.0 ? offset : 0.0;
  }

  // The speed that offers `target_rate` events per wall second from a
  // stream that carries `stream_rate` events per stream second.
  static double SpeedFor(double target_rate, double stream_rate) {
    return target_rate / stream_rate;
  }

 private:
  double origin_;
  double speed_;
};

// Microseconds by which a sender issued a request due at `due` late, both
// in seconds since the phase started (0 when on time).
inline double LatenessUs(double due, double sent) {
  return sent > due ? (sent - due) * 1e6 : 0.0;
}

// A request's latency in microseconds, measured from its due time.
inline double LatencyFromDueUs(double due, double done) {
  return (done - due) * 1e6;
}

}  // namespace servebench

#endif  // SERVEBENCH_PACER_H_
