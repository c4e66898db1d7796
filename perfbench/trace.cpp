#include "trace.h"

#include <iomanip>
#include <ostream>

namespace perfbench {

int Tracer::open(const char* name) {
  spans_.push_back({name, Clock::now(), {}, current_, request_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = Clock::now();
  current_ = s.parent;
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back({name, start, end, current_, request_});
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
        << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
