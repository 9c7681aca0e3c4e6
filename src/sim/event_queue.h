// A minimal discrete-event engine.
//
// Used to build explicit timelines: schedule callbacks at absolute
// microsecond timestamps and run them in order. The concurrency tests use
// it to interleave packet arrivals with the stages of the control-plane
// synchronization protocol (stage -> bit flip -> main apply), checking the
// §3.1 run-to-completion criteria with real clock interleavings.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace gallium::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  // Schedules `handler` at absolute time `at_us`. Events at equal times run
  // in scheduling order (stable).
  void Schedule(double at_us, Handler handler) {
    events_.push(Event{at_us, next_seq_++, std::move(handler)});
  }
  void ScheduleAfter(double delay_us, Handler handler) {
    Schedule(now_ + delay_us, std::move(handler));
  }

  double now_us() const { return now_; }
  bool empty() const { return events_.empty(); }
  size_t pending() const { return events_.size(); }

  // Runs events until the queue drains (handlers may schedule more).
  void Run() {
    while (!events_.empty()) Step();
  }

  // Runs events with time <= until_us.
  void RunUntil(double until_us) {
    while (!events_.empty() && events_.top().at_us <= until_us) Step();
    now_ = std::max(now_, until_us);
  }

 private:
  struct Event {
    double at_us;
    uint64_t seq;
    Handler handler;
    bool operator>(const Event& other) const {
      if (at_us != other.at_us) return at_us > other.at_us;
      return seq > other.seq;
    }
  };

  void Step() {
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = event.at_us;
    event.handler();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  double now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace gallium::sim
