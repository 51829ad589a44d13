//===- perfbench/cpp/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration, the
/// sample summaries (median, quartiles, count), the result record that
/// main() prints as JSON, per-thread counter slots, and peak-RSS reading.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/Random.h"
#include "support/Timing.h"

namespace avc {
class Dpst;
struct ToolOptions;
} // namespace avc

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Directory for generated inputs (trace fleet, wide trace).
  std::string DataDir;
  /// Directory holding the committed verdict references.
  std::string RefsDir;
  /// Chrome trace-event output of a traced run.
  std::string TraceOut;
  /// When non-empty, write the trace workloads' BasicChecker references
  /// for this seed here and exit.
  std::string WriteRefs;
  /// Memory probe: set up once and run one round (kernels: one checked
  /// pass), so the process's peak resident memory is that of one pass.
  bool RssProbe = false;
};

/// Median, quartiles and sample count of a series. Quartiles follow
/// Python's statistics.quantiles(n=4) ("exclusive" method), so the
/// numbers printed here match what the comparison script computes.
struct Summary {
  double Median = 0, Q1 = 0, Q3 = 0;
  size_t N = 0;
};

Summary summarize(std::vector<double> Values);

/// The \p P-quantile (0 < P < 1) by linear interpolation between order
/// statistics; 0 for an empty series.
double quantile(std::vector<double> Values, double P);

double median(std::vector<double> Values);

/// Geometric mean of positive values.
double geomean(const std::vector<double> &Values);

/// Peak resident set size of this process in MiB.
double peakRssMiB();

/// Current total of a process-wide MetricsRegistry counter (0 if absent).
double counterValue(const char *Name);

/// Mean ns of one ParallelismOracle::logicallyParallel query (an oracle
/// configured from \p Opts) over 4096 seeded step pairs of \p Tree; 0 when
/// the tree has fewer than two steps.
double timeParQueries(const avc::Dpst &Tree, const avc::ToolOptions &Opts,
                      avc::SplitMix64 &Rng);

/// One reported metric: the headline value plus the series it summarizes
/// (empty for single measurements and counts).
struct Metric {
  std::string Unit;
  double Value = 0;
  Summary Stats;
};

/// Everything a workload reports; main() renders it as one JSON line.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Name -> metric, in name order.
  std::map<std::string, Metric> Metrics;
  /// Human-readable notes (verdict mismatches, figures that are not
  /// metrics).
  std::vector<std::string> Notes;

  /// Records a metric summarized from \p Samples; the value is their
  /// median.
  void series(const std::string &Name, const std::string &Unit,
              const std::vector<double> &Samples);
  /// Records a metric whose value is computed from medians of other
  /// series; \p Samples are per-round values of the same quantity and
  /// supply the quartiles.
  void derived(const std::string &Name, const std::string &Unit,
               double Value, const std::vector<double> &Samples = {});
  /// Records a single measurement or count.
  void single(const std::string &Name, const std::string &Unit,
              double Value);
  /// Counts one checked verdict; a mismatch is a failure with a note.
  void check(bool Ok, const std::string &WhatIfNot);
};

/// A process-unique, never-zero id for each PerThread owner.
uint64_t nextPerThreadGeneration();

/// Per-thread slots for hot-path state (sample buffers, counters): each
/// thread finds its own slot through a thread_local cache keyed by the
/// owner's generation, so callbacks from any worker touch no shared
/// cache line. Slots outlive their threads and are read after the run.
template <typename SlotT> class PerThread {
public:
  PerThread() : Generation(nextPerThreadGeneration()) {}
  PerThread(const PerThread &) = delete;
  PerThread &operator=(const PerThread &) = delete;

  SlotT &local() {
    thread_local struct {
      uint64_t Generation = 0;
      void *Slot = nullptr;
    } Cache;
    if (Cache.Generation != Generation) {
      Cache.Slot = &lookup();
      Cache.Generation = Generation;
    }
    return *static_cast<SlotT *>(Cache.Slot);
  }

  /// All slots; call only after the threads that filled them are done.
  const std::vector<std::unique_ptr<SlotT>> &slots() const { return Slots; }

private:
  /// Slow path: this thread's slot, created on its first use. Searching
  /// (rather than always appending) keeps one slot per thread even when
  /// a thread alternates between two owners of the same slot type.
  SlotT &lookup() {
    std::lock_guard<std::mutex> Guard(Mutex);
    std::thread::id Self = std::this_thread::get_id();
    for (size_t I = 0; I < Owners.size(); ++I)
      if (Owners[I] == Self)
        return *Slots[I];
    Owners.push_back(Self);
    Slots.push_back(std::make_unique<SlotT>());
    return *Slots.back();
  }

  const uint64_t Generation;
  std::mutex Mutex;
  std::vector<std::thread::id> Owners;
  std::vector<std::unique_ptr<SlotT>> Slots;
};

/// Runs \p Body repeatedly until Cfg.Seconds have passed and at least
/// \p MinRounds rounds ran (closed loop: a round starts only when the
/// previous one finished); a memory probe runs one round.
template <typename FnT>
void runRounds(const Config &Cfg, unsigned MinRounds, FnT Body) {
  if (Cfg.RssProbe) {
    Body(0u);
    return;
  }
  avc::Timer Clock;
  unsigned Rounds = 0;
  while (Rounds < MinRounds || Clock.elapsedSeconds() < Cfg.Seconds)
    Body(Rounds++);
}

/// Times \p Fn in seconds.
template <typename FnT> double timeIt(FnT Fn) {
  avc::Timer T;
  Fn();
  return T.elapsedSeconds();
}

/// Reference and measured wall time of a run of calibration chunks, per
/// third of the loop.
struct CalWindow {
  double Reference = 0, CacheWall = 0, ComputeWall = 0, MemoryWall = 0;
  /// How fast the host ran the chunks, relative to the reference host:
  /// multiplying a time measured beside them by this factor gives the time
  /// the reference host would have taken. 1 when nothing was measured.
  double factor() const { return wall() > 0 ? Reference / wall() : 1; }
  double wall() const { return CacheWall + ComputeWall + MemoryWall; }
  /// The same for one third alone (for the run's note).
  double factorOf(double Wall) const {
    return Wall > 0 ? Reference / 3 / Wall : 1;
  }
};

/// The calibration loop: a fixed amount of work that runs no TaskCheck
/// code. A chunk of it runs right beside every timed measurement, so a
/// time divided by the chunk's time cancels how fast the shared host
/// happens to be at that moment, while every stage of the program stays in
/// the numerator. A chunk has three thirds, each sensitive to a different
/// way a busy host slows the checker:
///  - cache: a random read-modify-write walk over a 256 KiB table per
///    thread (how much CPU the host gives);
///  - compute: independent integer hash lanes per thread, many
///    instructions per cycle (how much of its core a vCPU keeps when a
///    neighbour runs on the core's other hyperthread);
///  - memory: one thread's chain of dependent reads over a 64 MiB table
///    (how slow the shared cache and memory are).
/// The first two run on as many threads as the workload has workers. In a
/// memory probe the loop does nothing, so its tables do not count towards
/// peak_rss_mb.
class Calibration {
public:
  /// Runs the cache and compute thirds on \p Threads threads side by side.
  Calibration(const Config &Cfg, unsigned Threads);

  /// Runs \p Units units and adds the chunk to \p Window.
  void run(unsigned Units, CalWindow &Window);

  /// Wall seconds of one unit on the reference host (an idle 4-vCPU KVM
  /// guest on a Xeon Sapphire Rapids), a third in each third of the loop,
  /// whatever the thread count.
  static constexpr double UnitSeconds = 1e-3;

private:
  std::vector<std::vector<uint64_t>> CacheTables;
  std::vector<uint64_t> MemoryTable;
  uint64_t Sink = 0;
};

/// The note that gives a run's checked pass as measured (before scaling)
/// and how fast the host ran the calibration loop and each of its thirds,
/// all medians over the run's rounds.
std::string hostNote(double RawPassSeconds,
                     const std::vector<CalWindow> &Windows);

/// Calibration units after each set-up.
constexpr unsigned SetupCalUnits = 10;

/// Runs \p Setup at least seven times and for at least a second in all
/// (once in a memory probe), each followed by a calibration chunk, and
/// returns the median set-up time scaled by the speed of all the chunks
/// together: setup_s. (One chunk alone right after a set-up that wrote
/// files read anywhere from 0.55x to 1.07x; the wide trace's 25 ms set-up
/// needs the extra repeats.)
template <typename FnT>
double timeSetup(const Config &Cfg, Calibration &Cal, FnT Setup) {
  std::vector<double> Times;
  CalWindow Window;
  double Total = 0;
  while (Times.empty() ||
         (!Cfg.RssProbe && (Times.size() < 7 || Total < 1.0))) {
    Times.push_back(timeIt(Setup));
    Total += Times.back();
    Cal.run(SetupCalUnits, Window);
  }
  return median(Times) * Window.factor();
}

// The four workloads.
Result runKernels(const Config &Cfg, unsigned Workers);
Result runTraceFleet(const Config &Cfg);
Result runWideTrace(const Config &Cfg);

/// Writes the committed-reference file(s) for Cfg.Seed into Cfg.WriteRefs.
bool writeTraceRefs(const Config &Cfg);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
