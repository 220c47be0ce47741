//===- obs/Trace.h - Chrome trace-event recording ---------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing for the whole verification stack: RAII spans and
/// instant events appended to per-thread buffers (no lock, no allocation
/// beyond the buffer's amortized growth) and flushed at run end to Chrome
/// trace-event JSON — load the file in Perfetto or chrome://tracing to
/// see where a run's time goes, per thread, per phase, per cube.
///
/// Cost model: every instrumentation site starts with one relaxed atomic
/// load (traceEnabled()); with tracing off that load is the entire cost.
/// Building with -DVERIQEC_DISABLE_OBS turns the gate into a constant
/// false, so the compiler removes the sites outright.
///
/// Timestamps come from std::chrono::steady_clock (monotonic), relative
/// to the beginTrace() epoch, in microseconds.
///
/// Threading contract: event append is owner-thread-only and lock-free;
/// beginTrace()/endTrace()/renderTraceJson() must run while the
/// instrumented threads are quiescent (between solves — exactly where
/// the drivers call them).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_OBS_TRACE_H
#define VERIQEC_OBS_TRACE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace veriqec::obs {

/// One key/value argument attached to a span or instant event. Keys must
/// be string literals (stored by pointer); values are integral — slot
/// indices, cube ids, conflict counts, byte sizes.
struct TraceArg {
  const char *Key = nullptr;
  uint64_t Value = 0;
};

/// Spans/instants carry at most this many arguments; extras are dropped.
inline constexpr size_t MaxTraceArgs = 4;

#ifdef VERIQEC_DISABLE_OBS
/// Compile-time kill switch engaged: the gate is a constant, and every
/// instrumentation site behind it folds to nothing.
inline constexpr bool traceEnabled() { return false; }
#else
namespace detail {
extern std::atomic<bool> TraceOn;
} // namespace detail

/// True while a trace is being collected — the one relaxed load every
/// instrumentation site pays when tracing is off.
inline bool traceEnabled() {
  return detail::TraceOn.load(std::memory_order_relaxed);
}
#endif

/// Starts collecting (discarding any previously collected events) and
/// re-anchors the timestamp epoch.
void beginTrace();

/// Stops collecting. Already-collected events stay renderable.
void stopTrace();

/// Renders everything collected since beginTrace() as a Chrome
/// trace-event JSON document (the {"traceEvents": [...]} object form).
std::string renderTraceJson();

/// stopTrace() + renderTraceJson() to a file. False (and \p Err) when
/// the file cannot be written.
bool endTrace(const std::string &Path, std::string &Err);

namespace detail {
uint64_t nowUs();
void record(const char *Name, uint64_t StartUs, uint64_t DurUs, bool Instant,
            const TraceArg *Args, size_t NumArgs);
} // namespace detail

/// RAII span: one "ph":"X" complete event from construction to
/// destruction on the calling thread's track. \p Name must be a string
/// literal. When tracing is off, construction is one relaxed load.
class TraceSpan {
public:
  explicit TraceSpan(const char *SpanName) {
    if (traceEnabled()) {
      Name = SpanName;
      StartUs = detail::nowUs();
    }
  }
  TraceSpan(const char *SpanName, std::initializer_list<TraceArg> As)
      : TraceSpan(SpanName) {
    if (Name)
      for (const TraceArg &A : As)
        arg(A.Key, A.Value);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan() {
    if (Name)
      detail::record(Name, StartUs, detail::nowUs() - StartUs,
                     /*Instant=*/false, Args, NumArgs);
  }

  /// Attaches an argument known only mid-span (e.g. the conflict count
  /// of the solve the span wraps). No-op when the span is inactive.
  void arg(const char *Key, uint64_t Value) {
    if (Name && NumArgs < MaxTraceArgs)
      Args[NumArgs++] = {Key, Value};
  }

private:
  const char *Name = nullptr; ///< null = inactive (tracing was off)
  uint64_t StartUs = 0;
  TraceArg Args[MaxTraceArgs];
  size_t NumArgs = 0;
};

/// One "ph":"i" instant event (heartbeats, evictions, requeues).
inline void traceInstant(const char *Name,
                         std::initializer_list<TraceArg> As = {}) {
  if (!traceEnabled())
    return;
  size_t N = std::min(As.size(), MaxTraceArgs);
  detail::record(Name, detail::nowUs(), 0, /*Instant=*/true, As.begin(), N);
}

} // namespace veriqec::obs

#endif // VERIQEC_OBS_TRACE_H
