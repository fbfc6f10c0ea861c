// In-memory span tracer for the benchmark's traced runs. Spans are opened
// in the benchmark's own code around calls into each layer's public
// functions; nothing inside the library is instrumented.
//
// Every span has a name, a start, an end, a parent and a run id (a pass
// and pair for batch work, a request index for serving). Per-name totals
// are aggregated, and every span is stored for the Chrome trace-event file
// (Perfetto opens it), up to a cap. Self time is a span's duration minus the duration of the child spans
// opened on the same thread inside it.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Per-name aggregate over every closed span.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t child_ns = 0;  // same-thread children
  int64_t self_ns() const { return total_ns - child_ns; }
  double seconds() const { return 1e-9 * static_cast<double>(total_ns); }
};

/// Identity of an open span, to parent spans opened on other threads.
struct SpanContext {
  uint64_t id = 0;
  uint64_t run = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  /// Spans are no-ops (not timed, not recorded) while disabled.
  void set_enabled(bool on);

  /// Totals by span name across all threads. Call only while no span is
  /// open on another thread.
  std::map<std::string, SpanTotals> Totals() const;
  /// Clears totals and stored spans.
  void Reset();

  /// Writes stored spans as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;
  uint64_t stored() const;
  uint64_t dropped() const;
};

/// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  /// Child of the innermost span open on this thread (run id inherited,
  /// unless `run` is non-zero).
  explicit Span(const char* name, uint64_t run = 0);
  /// Child of a span opened on another thread.
  Span(const char* name, const SpanContext& parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanContext context() const { return {id_, run_}; }

 private:
  void Open(const char* name, uint64_t parent, uint64_t run);

  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t run_ = 0;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
  Span* outer_ = nullptr;  // enclosing span on this thread
  bool active_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
