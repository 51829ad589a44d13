//===- perfbench/cpp/Spans.cpp - In-memory span recorder ------------------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

using namespace perfbench;

namespace {

/// Bounds the recorder's memory (and the trace file) on long runs.
constexpr uint64_t MaxRecordedEvents = 400000;

/// Innermost open Span on this thread (0 = none).
thread_local uint32_t CurrentSpan = 0;

} // namespace

SpanRecorder::SpanRecorder() : Origin(avc::nowNanos()) {}

SpanRecorder &SpanRecorder::get() {
  static SpanRecorder Recorder;
  return Recorder;
}

uint32_t SpanRecorder::admit() {
  if (!enabled())
    return 0;
  // Reserve both events up front so an admitted span always gets its end.
  if (Recorded.fetch_add(2, std::memory_order_relaxed) + 2 >
      MaxRecordedEvents) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return NextId.fetch_add(1, std::memory_order_relaxed);
}

uint32_t SpanRecorder::begin(const char *Name, uint32_t Parent) {
  uint32_t Id = admit();
  if (Id != 0)
    Logs.local().Events.push_back({avc::nowNanos(), Name, Id, Parent, 1});
  return Id;
}

void SpanRecorder::end(uint32_t Id, const char *Name) {
  if (Id != 0)
    Logs.local().Events.push_back({avc::nowNanos(), Name, Id, 0, 0});
}

void SpanRecorder::record(const char *Name, uint32_t Parent, uint64_t Start,
                          uint64_t End, unsigned SampleEvery) {
  uint32_t Id = admit();
  if (Id == 0)
    return;
  ThreadLog &Log = Logs.local();
  Log.Events.push_back({Start, Name, Id, Parent, std::max(1u, SampleEvery)});
  Log.Events.push_back({End, Name, Id, 0, 0});
}

Span::Span(const char *Name) : Span(Name, 0) {}

Span::Span(const char *Name, uint32_t Parent)
    : Name(Name),
      Id(SpanRecorder::get().begin(Name, Parent ? Parent : CurrentSpan)),
      SavedCurrent(CurrentSpan) {
  if (Id != 0)
    CurrentSpan = Id;
}

Span::~Span() {
  if (Id == 0)
    return;
  SpanRecorder::get().end(Id, Name);
  CurrentSpan = SavedCurrent;
}

std::vector<LayerTime> SpanRecorder::layerTimes(unsigned Workers) const {
  struct Rec {
    const char *Name;
    uint32_t Parent;
    uint32_t SampleEvery;
    uint64_t Start, End;
  };
  std::unordered_map<uint32_t, Rec> Spans;
  for (const auto &Log : Logs.slots())
    for (const Event &E : Log->Events) {
      if (E.SampleEvery != 0)
        Spans[E.Id] = {E.Name, E.Parent, E.SampleEvery, E.Ts, E.Ts};
      else
        Spans[E.Id].End = E.Ts;
    }

  // Children per parent: exact intervals for unsampled children, a
  // time estimate for sampled ones.
  std::unordered_map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>>
      Exact;
  std::unordered_map<uint32_t, double> Sampled;
  for (const auto &[Id, R] : Spans) {
    if (R.Parent == 0 || !Spans.count(R.Parent))
      continue;
    if (R.SampleEvery == 1)
      Exact[R.Parent].push_back({R.Start, R.End});
    else
      Sampled[R.Parent] += double(R.End - R.Start) * R.SampleEvery /
                           std::max(1u, Workers);
  }

  std::map<std::string, LayerTime> ByName;
  for (const auto &[Id, R] : Spans) {
    double Duration = double(R.End - R.Start);
    double Covered = 0;
    if (auto It = Exact.find(Id); It != Exact.end()) {
      auto &Intervals = It->second;
      std::sort(Intervals.begin(), Intervals.end());
      uint64_t Lo = 0, Hi = 0;
      for (auto [S, E] : Intervals) {
        S = std::max(S, R.Start);
        E = std::min(E, R.End);
        if (E <= S)
          continue;
        if (S > Hi) {
          Covered += double(Hi - Lo);
          Lo = S;
          Hi = E;
        } else {
          Hi = std::max(Hi, E);
        }
      }
      Covered += double(Hi - Lo);
    }
    if (auto It = Sampled.find(Id); It != Sampled.end())
      Covered += It->second;
    LayerTime &L = ByName[R.Name];
    L.Name = R.Name;
    L.Spans += 1;
    L.SampleEvery = R.SampleEvery;
    L.TotalMs += Duration * R.SampleEvery * 1e-6;
    L.SelfMs += std::max(0.0, Duration - Covered) * R.SampleEvery * 1e-6;
  }
  std::vector<LayerTime> Out;
  for (auto &[Name, L] : ByName)
    Out.push_back(L);
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path,
                                    double OverheadPct) const {
  struct Row {
    const Event *E;
    uint32_t Tid;
    size_t Seq;
  };
  std::vector<Row> Rows;
  uint32_t Tid = 0;
  for (const auto &Log : Logs.slots()) {
    ++Tid;
    for (size_t I = 0; I < Log->Events.size(); ++I)
      Rows.push_back({&Log->Events[I], Tid, I});
  }
  // Per thread the log is already in time order; the global order sorts by
  // time and keeps each thread's own order on ties, so B/E nesting holds.
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    if (A.E->Ts != B.E->Ts)
      return A.E->Ts < B.E->Ts;
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    return A.Seq < B.Seq;
  });

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\"traceEvents\":[\n");
  std::fprintf(Out, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":0,\"args\":{\"name\":\"perfbench\"}}");
  uint64_t LastTs = Origin;
  for (const Row &R : Rows) {
    const Event &E = *R.E;
    double Us = double(E.Ts - Origin) * 1e-3;
    LastTs = E.Ts;
    if (E.SampleEvery != 0)
      std::fprintf(Out,
                   ",\n{\"name\":\"%s\",\"ph\":\"B\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                   "\"sample_every\":%u}}",
                   E.Name, R.Tid, Us, E.Id, E.Parent, E.SampleEvery);
    else
      std::fprintf(Out,
                   ",\n{\"name\":\"%s\",\"ph\":\"E\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f}",
                   E.Name, R.Tid, Us);
  }
  std::fprintf(Out,
               ",\n{\"name\":\"obs/self-accounting\",\"ph\":\"i\",\"s\":\"g\","
               "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{"
               "\"estimated_overhead_pct\":%.4f,\"dropped_spans\":%llu}}\n",
               double(LastTs - Origin) * 1e-3, OverheadPct,
               static_cast<unsigned long long>(Dropped.load()));
  std::fprintf(Out, "]}\n");
  return std::fclose(Out) == 0;
}
