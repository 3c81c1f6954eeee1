// In-memory span recorder for qcbench's traced replay.
//
// A span is one call into a layer, timed from outside: name, start, end,
// the span that caused it, and a query/window/trial id. Spans stay in
// memory and are written at exit as Chrome trace-event JSON. A disabled
// tracer records nothing and never reads the clock, so the untraced
// replay runs the same code at (almost) no cost.
//
// Span names are "<layer>.<call>" string literals; the layer is the part
// before the first dot. The "bench" layer marks the benchmark's own
// checks inside the replay; it is kept out of every layer total.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace qcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string_view name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t id = 0;

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
    [[nodiscard]] std::string_view layer() const {
      return name.substr(0, name.find('.'));
    }
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  std::int32_t open(std::string_view name, std::uint64_t id) {
    if (!enabled_) return -1;
    const auto index = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, id});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t id = 0)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace qcbench
