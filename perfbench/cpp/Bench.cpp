//===- perfbench/cpp/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "checker/ToolOptions.h"
#include "dpst/Dpst.h"
#include "dpst/ParallelismOracle.h"
#include "obs/Metrics.h"

using namespace perfbench;

uint64_t perfbench::nextPerThreadGeneration() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1);
}

Summary perfbench::summarize(std::vector<double> Values) {
  Summary S;
  S.N = Values.size();
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  S.Median = median(Values);
  if (Values.size() < 2) {
    S.Q1 = S.Q3 = Values[0];
    return S;
  }
  // statistics.quantiles(Values, n=4, method="exclusive").
  const long Len = long(Values.size()), Parts = 4, M = Len + 1;
  double Cuts[2];
  for (long I : {1L, 3L}) {
    long J = std::clamp(I * M / Parts, 1L, Len - 1);
    long Delta = I * M - J * Parts;
    Cuts[I == 1 ? 0 : 1] =
        (Values[J - 1] * double(Parts - Delta) + Values[J] * double(Delta)) /
        double(Parts);
  }
  S.Q1 = Cuts[0];
  S.Q3 = Cuts[1];
  return S;
}

double perfbench::quantile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = P * double(Values.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - double(Lo);
  return Values[Lo] * (1 - Frac) + Values[Hi] * Frac;
}

double perfbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

double perfbench::peakRssMiB() {
  struct rusage Usage = {};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double perfbench::counterValue(const char *Name) {
  using namespace avc::metrics;
  Snapshot S = MetricsRegistry::instance().snapshot();
  const MetricSample *M = S.find(Name);
  return M ? M->Value : 0;
}

double perfbench::timeParQueries(const avc::Dpst &Tree,
                                 const avc::ToolOptions &Opts,
                                 avc::SplitMix64 &Rng) {
  std::vector<avc::NodeId> Steps;
  for (avc::NodeId Id = 0; Id < Tree.numNodes(); ++Id)
    if (Tree.kind(Id) == avc::DpstNodeKind::Step)
      Steps.push_back(Id);
  if (Steps.size() < 2)
    return 0;
  std::vector<std::pair<avc::NodeId, avc::NodeId>> Pairs(4096);
  for (auto &P : Pairs)
    P = {Steps[Rng.nextBelow(Steps.size())],
         Steps[Rng.nextBelow(Steps.size())]};
  avc::ParallelismOracle Oracle(Tree, Opts.oracleOptions());
  size_t Parallel = 0, Queries = 0;
  avc::Timer T;
  do {
    for (auto [A, B] : Pairs)
      Parallel += Oracle.logicallyParallel(A, B);
    Queries += Pairs.size();
  } while (T.elapsedSeconds() < 0.002);
  double Ns = double(T.elapsedNanos()) / double(Queries);
  return Parallel <= Queries ? Ns : 0; // keeps the answers observable
}

namespace {
/// A cache-third table: 256 KiB, which stays within a core's L2 even when
/// two vCPUs share one, and within the first-level TLB's reach, so a step
/// costs the same however many threads walk. (A 2 MiB table cost 18-50 ns
/// a step depending on the thread count and the process.)
constexpr size_t CacheTableWords = size_t(1) << 15;
/// The memory-third table: 64 MiB, past the caches a tenant gets.
constexpr size_t MemoryTableWords = size_t(1) << 23;
/// Steps in a third of a unit (UnitSeconds / 3 on the reference host).
constexpr uint64_t CacheStepsPerUnit = 31000;
constexpr uint64_t ComputeStepsPerUnit = 32000;
constexpr uint64_t MemoryStepsPerUnit = 1700;

uint64_t cacheWalk(std::vector<uint64_t> &Table, uint64_t Steps) {
  uint64_t X = 0x9e3779b97f4a7c15ULL, Sum = 0;
  for (uint64_t I = 0; I < Steps; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t &Slot = Table[(X >> 29) & (CacheTableWords - 1)];
    Slot = Slot * 31 + (X >> 7);
    // Each step waits for the previous slot, as a lookup chain does.
    X ^= Slot & 0xff;
    Sum += Slot;
  }
  return Sum;
}

uint64_t computeWalk(uint64_t Steps) {
  uint64_t Lanes[6] = {1, 2, 3, 4, 5, 6};
  for (uint64_t I = 0; I < Steps; ++I) {
    for (uint64_t &X : Lanes) {
      X ^= X >> 12;
      X ^= X << 25;
      X ^= X >> 27;
      X *= 0x2545f4914f6cdd1dULL;
      // Keeps the lanes scalar: the checker's code is not vectorized.
      asm volatile("" : "+r"(X));
    }
  }
  uint64_t Sum = 0;
  for (uint64_t X : Lanes)
    Sum ^= X;
  return Sum;
}

uint64_t memoryWalk(const std::vector<uint64_t> &Table, uint64_t Steps) {
  uint64_t X = 0x2545f4914f6cdd1dULL, Sum = 0;
  for (uint64_t I = 0; I < Steps; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    // The next address depends on the value just read.
    Sum += Table[((X >> 29) ^ Sum) & (MemoryTableWords - 1)];
  }
  return Sum;
}

double mean(const std::vector<double> &Values) {
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / double(Values.size());
}
} // namespace

Calibration::Calibration(const Config &Cfg, unsigned Threads) {
  if (Cfg.RssProbe)
    return;
  CacheTables.resize(std::max(1u, Threads));
  for (std::vector<uint64_t> &Table : CacheTables)
    Table.assign(CacheTableWords, 1);
  MemoryTable.resize(MemoryTableWords);
  for (size_t I = 0; I < MemoryTableWords; ++I)
    MemoryTable[I] = (I * 0x9e3779b97f4a7c15ULL) >> 40;
}

void Calibration::run(unsigned Units, CalWindow &Window) {
  if (CacheTables.empty())
    return;
  // Every walker first reads its whole table back into the cache (what
  // ran before must not set the chunk's cost), then all start together.
  // A third's time is the walkers' mean own time: thread start-up and
  // joining are not in it, and, like a work-stealing runtime's, it follows
  // the CPU the walkers get in total rather than the slowest one. (The
  // slowest walker's time over-corrected 4-worker passes by a fifth when
  // another process shared the vCPUs.)
  const size_t Walkers = CacheTables.size();
  std::vector<uint64_t> Sums(Walkers);
  std::vector<double> Cache(Walkers), Compute(Walkers);
  std::atomic<size_t> Ready{0};
  auto Walk = [&](size_t I) {
    uint64_t Warm = 0;
    for (uint64_t Word : CacheTables[I])
      Warm += Word;
    Ready.fetch_add(1, std::memory_order_acq_rel);
    while (Ready.load(std::memory_order_acquire) < Walkers)
      std::this_thread::yield();
    avc::Timer T;
    Sums[I] = cacheWalk(CacheTables[I], Units * CacheStepsPerUnit) + Warm;
    Cache[I] = T.elapsedSeconds();
    avc::Timer U;
    Sums[I] += computeWalk(Units * ComputeStepsPerUnit);
    Compute[I] = U.elapsedSeconds();
  };
  {
    std::vector<std::thread> Helpers;
    for (size_t I = 1; I < Walkers; ++I)
      Helpers.emplace_back(Walk, I);
    Walk(0);
    for (std::thread &Helper : Helpers)
      Helper.join();
  }
  avc::Timer T;
  Sink += memoryWalk(MemoryTable, Units * MemoryStepsPerUnit);
  Window.MemoryWall += T.elapsedSeconds();
  for (uint64_t S : Sums)
    Sink += S; // keeps the walks observable
  Window.CacheWall += mean(Cache);
  Window.ComputeWall += mean(Compute);
  Window.Reference += Units * UnitSeconds;
}

std::string perfbench::hostNote(double RawPassSeconds,
                                const std::vector<CalWindow> &Windows) {
  std::vector<double> Speed, Cache, Compute, Memory;
  for (const CalWindow &W : Windows) {
    Speed.push_back(W.factor());
    Cache.push_back(W.factorOf(W.CacheWall));
    Compute.push_back(W.factorOf(W.ComputeWall));
    Memory.push_back(W.factorOf(W.MemoryWall));
  }
  char Text[240];
  std::snprintf(Text, sizeof(Text),
                "checked pass as measured %.4f s; the host ran the "
                "calibration loop at %.3fx the reference speed (cache "
                "%.3fx, compute %.3fx, memory %.3fx)",
                RawPassSeconds, median(Speed), median(Cache), median(Compute),
                median(Memory));
  return Text;
}

void Result::series(const std::string &Name, const std::string &Unit,
                    const std::vector<double> &Samples) {
  Metric &M = Metrics[Name];
  M.Unit = Unit;
  M.Stats = summarize(Samples);
  M.Value = M.Stats.Median;
}

void Result::derived(const std::string &Name, const std::string &Unit,
                     double Value, const std::vector<double> &Samples) {
  Metric &M = Metrics[Name];
  M.Unit = Unit;
  M.Stats = summarize(Samples);
  M.Value = Value;
}

void Result::single(const std::string &Name, const std::string &Unit,
                    double Value) {
  derived(Name, Unit, Value, {Value});
}

void Result::check(bool Ok, const std::string &WhatIfNot) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  Correct = false;
  // Keep the log readable when a whole fleet disagrees.
  if (Notes.size() < 20)
    Notes.push_back("verdict mismatch: " + WhatIfNot);
}
