// In-memory span recorder for the traced replay. Spans are recorded by the
// benchmark around its own calls into the library (parse, plan, each pass,
// co-map, repair, write); nothing inside the program is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    const char* name = "";  // static label, e.g. "remapping"
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;   // index of the enclosing span, -1 at the root
    int request = -1;  // request id shared by every span of one request
  };

  /// RAII span around a call; a null tracer records nothing and never
  /// reads the clock.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Spans recorded from now on belong to request `id`.
  void set_request(int id) { request_ = id; }

  int open(const char* name);
  void close(int index);
  /// Record an interval measured elsewhere as a child of the open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// ("X") event per span, microseconds from the first span, one track per
  /// request.
  void write_chrome_json(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
  int request_ = -1;
};

[[nodiscard]] inline double span_ms(const Tracer::Span& s) {
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

}  // namespace perfbench
