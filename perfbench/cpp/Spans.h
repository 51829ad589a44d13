//===- perfbench/cpp/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. A span has a name, a start, an end and
/// the id of the span that caused it (its parent, possibly on another
/// thread). Spans are recorded from the benchmark's own code around calls
/// into the program's public functions, kept in per-thread memory, and
/// written once at exit as Chrome trace-event JSON (B/E pairs, one tid per
/// recording thread, timestamps non-decreasing in file order) that
/// tools/validate_trace.py accepts.
///
/// Layer self time is a span's duration minus the part of it that its
/// children cover. Children recorded for a sample of calls (the checker
/// callbacks) stand for SampleEvery calls each, so their coverage is
/// estimated as (sampled time x SampleEvery) / workers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "Bench.h"

namespace perfbench {

/// Per-name layer totals derived from the recorded spans.
struct LayerTime {
  std::string Name;
  uint64_t Spans = 0;
  /// Sampling factor: each recorded span stands for this many calls.
  unsigned SampleEvery = 1;
  double TotalMs = 0; ///< recorded duration, scaled by SampleEvery
  double SelfMs = 0;  ///< TotalMs minus the children's coverage
};

class SpanRecorder {
public:
  /// The recorder is process-wide; spans are recorded only while enabled.
  static SpanRecorder &get();

  void enable(bool On = true) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span and returns its id (0 when disabled or over the cap).
  uint32_t begin(const char *Name, uint32_t Parent);
  /// Closes span \p Id opened on this thread under \p Name.
  void end(uint32_t Id, const char *Name);
  /// Records a finished span [\p Start, \p End] on this thread that
  /// stands for \p SampleEvery calls. The caller must have recorded
  /// nothing on this thread since \p Start.
  void record(const char *Name, uint32_t Parent, uint64_t Start, uint64_t End,
              unsigned SampleEvery);

  /// Per-name self times. \p Workers is the parallelism that sampled
  /// children ran with (their coverage is divided by it).
  std::vector<LayerTime> layerTimes(unsigned Workers) const;

  /// Writes every span as Chrome trace-event JSON, plus the one
  /// obs/self-accounting event carrying \p OverheadPct (the measured
  /// tracing overhead). Call after all recording threads are done.
  bool writeChromeTrace(const std::string &Path, double OverheadPct) const;

private:
  struct Event {
    uint64_t Ts;
    const char *Name;
    uint32_t Id;
    uint32_t Parent;     ///< begin events only
    uint32_t SampleEvery; ///< begin events only; 0 marks an end event
  };
  struct ThreadLog {
    std::vector<Event> Events;
  };

  SpanRecorder();
  /// A fresh span id, or 0 when disabled or over the cap.
  uint32_t admit();

  std::atomic<bool> Enabled{false};
  std::atomic<uint32_t> NextId{1};
  std::atomic<uint64_t> Recorded{0};
  std::atomic<uint64_t> Dropped{0};
  const uint64_t Origin;
  PerThread<ThreadLog> Logs;
};

/// Records one span for the lifetime of the object. Without an explicit
/// parent, the parent is the innermost open Span on this thread.
class Span {
public:
  explicit Span(const char *Name);
  Span(const char *Name, uint32_t Parent);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint32_t id() const { return Id; }

private:
  const char *Name;
  uint32_t Id;
  uint32_t SavedCurrent;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
