// In-memory span recorder for the traced replay.
//
// A span is (name, start, end, parent) with times in seconds since the
// tracer was created. Spans are appended to a vector as they open and closed
// in place, so recording costs two clock reads and no IO; the runner writes
// them out once the replay has ended. Self times are computed by run.py, not
// here, so the arithmetic lives in one place with its tests.

#ifndef SEPRIV_PERFBENCH_TRACE_H_
#define SEPRIV_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // a string literal naming the layer call
  double start = 0.0;
  double end = 0.0;
  int32_t parent = -1;  // index into Tracer::spans(); -1 for the root
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

  /// RAII span: opens on construction as a child of the innermost open span,
  /// closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.Open(name)) {}
    ~Scope() { tracer_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int32_t Open(const char* name) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0.0, parent});
    const auto index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }
  void Close(int32_t index) {
    spans_[index].end = Now();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // SEPRIV_PERFBENCH_TRACE_H_
