// Span recorder for the benchmark's traced runs. Spans are recorded by the
// benchmark around its calls into the library (the library itself is not
// instrumented), kept in memory, and written as Chrome trace-event JSON at
// exit. Each span has a name, start, end, parent and thread. Disabled
// tracers cost one branch per span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // A span open from construction to destruction (or End()). Nested spans
  // on one thread take the innermost open span as parent.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    // Closes the span and returns its duration in milliseconds.
    double End();

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
    Clock::time_point start_;
    double ms_ = -1;
  };

  // A count or ratio measured at a layer boundary, kept per name.
  void Count(const std::string& name, double value);

  // Recorded counts, by name.
  std::vector<double> Counts(const std::string& name) const;

  // Chrome trace-event JSON ("X" events; args carry id and parent).
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t id;
    int64_t parent;
    uint64_t tid;
    double start_us;
    double dur_us;
  };
  void Add(const Record& record);

  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  int64_t next_id_ = 0;
  std::vector<Record> records_;
  std::map<std::string, std::vector<double>> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
