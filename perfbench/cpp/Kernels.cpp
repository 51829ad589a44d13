//===- perfbench/cpp/Kernels.cpp - kernels-1w / kernels-4w ----------------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The live path: the paper's 13 kernels (allWorkloads(), scale 1) run
/// uninstrumented and under the default checker at one worker count,
/// interleaved per kernel, each pair followed by a calibration chunk. Their inputs are fixed by src/workloads, so the
/// seed changes nothing here. Every checked run must report 0 violations
/// (the kernels are violation-free; WorkloadTest pins the same answer).
///
/// The traced run adds a counting-observer pass (hook cost, event base), a
/// pass whose engine sits behind the timing decorator (callback costs,
/// engine counters, runtime counters, Par() cost on the tree the run
/// built) and an undecorated checked pass to measure tracing overhead.
///
//===----------------------------------------------------------------------===//

#include <map>
#include <string>

#include "Bench.h"
#include "Observers.h"
#include "Spans.h"
#include "checker/AtomicityChecker.h"
#include "checker/ToolRegistry.h"
#include "instrument/ToolContext.h"
#include "obs/Metrics.h"
#include "workloads/Workloads.h"

using namespace avc;
using namespace perfbench;

namespace {

/// Kernel input scale: the paper-figure default (bench/fig13_* use it).
constexpr double KernelScale = 1.0;
/// Scale of the warm-up pass that set-up runs.
constexpr double WarmupScale = 0.1;
/// Calibration units after each kernel's pair of runs: about a tenth of
/// a round at one worker, a fifth at four.
constexpr unsigned KernelCalUnits = 12;

/// The shipped configuration at \p Workers workers: only the worker count
/// is set, so a changed default is measured like any other change.
ToolContext::Options checkedOptions(unsigned Workers) {
  ToolContext::Options Opts;
  Opts.Checker.NumThreads = Workers;
  return Opts;
}

ToolContext::Options uninstrumentedOptions(unsigned Workers) {
  ToolContext::Options Opts = checkedOptions(Workers);
  Opts.Tool = ToolKind::None;
  return Opts;
}

/// One program run through the user-facing front end, timed from context
/// construction to destruction. Stores the verdict in \p Violations.
double runContext(const workloads::Workload &K, ToolContext::Options Opts,
                  double Scale, size_t &Violations) {
  Timer T;
  {
    ToolContext Ctx(Opts);
    Ctx.run([&] { K.Run(Scale); });
    Violations = Ctx.numViolations();
  }
  return T.elapsedSeconds();
}

/// One run with the counting observer on a benchmark-built runtime.
double runCounting(const workloads::Workload &K, unsigned Workers,
                   uint64_t &Events) {
  Timer T;
  CountingObserver Counter;
  {
    TaskRuntime::Options RtOpts;
    RtOpts.NumThreads = Workers;
    TaskRuntime RT(RtOpts);
    RT.addObserver(&Counter);
    RT.run([&] { K.Run(KernelScale); });
  }
  Events = Counter.events();
  return T.elapsedSeconds();
}

/// What the traced run keeps from one decorated checked run.
struct DecoratedRun {
  double Seconds = 0;
  double ConstructMs = 0;
  double CallbackSeconds = 0;
  double Tasks = 0, Steals = 0;
  double ParNs = 0;
  size_t Violations = 0;
  std::map<std::string, double> Stats;
  std::vector<double> Access, Task, Lock;
};

/// The default engine built through the registry exactly as ToolContext
/// builds it, attached to a benchmark-built runtime behind the timing
/// decorator.
DecoratedRun runDecorated(const workloads::Workload &K, unsigned Workers,
                          bool SamplePar, avc::SplitMix64 &Rng) {
  DecoratedRun Out;
  ToolContext::Options Opts = checkedOptions(Workers);
  const ToolRegistration *Reg = ToolRegistry::instance().find(Opts.Tool);
  double TasksBefore = counterValue(metrics::names::RuntimeTasksTotal);
  double StealsBefore = counterValue(metrics::names::RuntimeStealsTotal);
  Span Run("checker.run");
  Timer T;
  std::unique_ptr<CheckerTool> Tool;
  Out.ConstructMs =
      timeIt([&] { Tool = Reg->Factory(Opts.Checker, Opts.Extras); }) * 1e3;
  TimingObserver Decorator(*Tool);
  Decorator.setParentSpan(Run.id());
  {
    TaskRuntime::Options RtOpts;
    RtOpts.NumThreads = Workers;
    TaskRuntime RT(RtOpts);
    RT.addObserver(&Decorator);
    RT.run([&] { K.Run(KernelScale); });
  }
  double RunSeconds = T.elapsedSeconds();
  Out.Violations = Tool->numViolations();
  Out.Tasks = counterValue(metrics::names::RuntimeTasksTotal) - TasksBefore;
  Out.Steals = counterValue(metrics::names::RuntimeStealsTotal) - StealsBefore;
  Out.CallbackSeconds = Decorator.estimatedSeconds();
  Out.Access = Decorator.samples(CallbackClass::Access);
  Out.Task = Decorator.samples(CallbackClass::Task);
  Out.Lock = Decorator.samples(CallbackClass::Lock);
  Tool->visitStats([&](const char *Key, double V) { Out.Stats[Key] = V; });
  if (SamplePar)
    if (auto *Checker = dynamic_cast<AtomicityChecker *>(Tool.get()))
      Out.ParNs = timeParQueries(Checker->dpst(), Opts.Checker, Rng);
  // Timed like runContext: construction through destruction.
  Out.Seconds = RunSeconds + timeIt([&] { Tool.reset(); });
  return Out;
}

const workloads::Workload *kernelTable(size_t &Count) {
  return workloads::allWorkloads(Count);
}

/// Set-up: a small warm-up pass of every kernel in both configurations
/// (registry, allocator arenas, worker threads, code pages).
double setUp(const Config &Cfg, unsigned Workers, Calibration &Cal) {
  size_t Count = 0;
  const workloads::Workload *Table = kernelTable(Count);
  return timeSetup(Cfg, Cal, [&] {
    size_t Ignored = 0;
    for (size_t K = 0; K < Count; ++K) {
      runContext(Table[K], uninstrumentedOptions(Workers), WarmupScale,
                 Ignored);
      runContext(Table[K], checkedOptions(Workers), WarmupScale, Ignored);
    }
  });
}

void checkClean(Result &R, const workloads::Workload &K, size_t Violations) {
  R.check(Violations == 0, std::string(K.Name) + " reported " +
                               std::to_string(Violations) +
                               " violation(s), expected 0");
}

Result untraced(const Config &Cfg, unsigned Workers) {
  Result R;
  size_t Count = 0;
  const workloads::Workload *Table = kernelTable(Count);
  Calibration Cal(Cfg, Workers);
  R.single("setup_s", "s", setUp(Cfg, Workers, Cal));
  if (Cfg.RssProbe) {
    // One checked pass: an uninstrumented run's footprint is a subset.
    size_t Ignored = 0;
    for (size_t K = 0; K < Count; ++K)
      runContext(Table[K], checkedOptions(Workers), KernelScale, Ignored);
    R.single("peak_rss_mb", "MiB", peakRssMiB());
    return R;
  }

  // Per kernel: checked wall, scaled to the reference host by the
  // calibration chunks of its round, and checked / uninstrumented wall of
  // each adjacent pair. The order within a pair alternates, the same way
  // for every seed; a calibration chunk follows every pair.
  std::vector<std::vector<double>> Checked(Count), Ratios(Count);
  std::vector<double> PassSeconds, PassRatios, RunMs, RawPass;
  std::vector<CalWindow> Windows;
  runRounds(Cfg, 3, [&](unsigned Round) {
    std::vector<double> RoundChecked(Count), RoundRatios;
    CalWindow Window;
    for (size_t K = 0; K < Count; ++K) {
      size_t Violations = 0, Ignored = 0;
      double B = 0, C = 0;
      auto RunBase = [&] {
        B = runContext(Table[K], uninstrumentedOptions(Workers), KernelScale,
                       Ignored);
      };
      auto RunChecked = [&] {
        C = runContext(Table[K], checkedOptions(Workers), KernelScale,
                       Violations);
      };
      if ((Round + K) % 2 == 0) {
        RunBase();
        RunChecked();
      } else {
        RunChecked();
        RunBase();
      }
      Cal.run(KernelCalUnits, Window);
      checkClean(R, Table[K], Violations);
      RoundChecked[K] = C;
      Ratios[K].push_back(C / B);
      RoundRatios.push_back(C / B);
    }
    double Speed = Window.factor(), Pass = 0, Raw = 0;
    for (size_t K = 0; K < Count; ++K) {
      Checked[K].push_back(RoundChecked[K] * Speed);
      RunMs.push_back(RoundChecked[K] * Speed * 1e3);
      Pass += RoundChecked[K] * Speed;
      Raw += RoundChecked[K];
    }
    PassSeconds.push_back(Pass);
    RawPass.push_back(Raw);
    Windows.push_back(Window);
    PassRatios.push_back(geomean(RoundRatios));
  });

  // Figure 13: geomean over kernels of each kernel's median ratio. The
  // pass time sums each kernel's median, so one slow run of one kernel
  // moves it no more than it moves that kernel's median.
  std::vector<double> Slowdowns;
  double Pass = 0;
  for (size_t K = 0; K < Count; ++K) {
    Slowdowns.push_back(median(Ratios[K]));
    Pass += median(Checked[K]);
  }
  R.derived("slowdown_x", "x", geomean(Slowdowns), PassRatios);
  R.derived("checked_pass_s", "s", Pass, PassSeconds);
  R.Notes.push_back(hostNote(median(RawPass), Windows));

  // Events per pass are schedule-independent; count them once, untimed.
  double Events = 0;
  for (size_t K = 0; K < Count; ++K) {
    uint64_t E = 0;
    runCounting(Table[K], Workers, E);
    Events += double(E);
  }
  std::vector<double> Rates;
  for (double S : PassSeconds)
    Rates.push_back(Events / S);
  R.derived("verdict_events_per_s", "ev/s", Events / Pass, Rates);
  R.series("verdict_ms.p50", "ms", RunMs);
  return R;
}

Result traced(const Config &Cfg, unsigned Workers) {
  Result R;
  avc::SplitMix64 Rng(Cfg.Seed);
  size_t Count = 0;
  const workloads::Workload *Table = kernelTable(Count);
  Calibration Cal(Cfg, Workers);
  setUp(Cfg, Workers, Cal);
  SpanRecorder::get().enable();

  std::vector<double> BasePass, HookNs, DecoratedPass, PlainPass, Overhead;
  std::vector<double> Tasks, Steals, CallbackShare, ConstructMs, ParNs;
  std::vector<double> Access, TaskNs, LockNs;
  std::map<std::string, double> PassStats; // summed over kernels, last round
  double Events = 0;

  runRounds(Cfg, 3, [&](unsigned Round) {
    Span RoundSpan("bench.round");
    double B = 0, N = 0, D = 0, P = 0, T = 0, S = 0, Callback = 0;
    double RoundEvents = 0;
    std::map<std::string, double> RoundStats;
    for (size_t K = 0; K < Count; ++K) {
      const workloads::Workload &Kernel = Table[K];
      // The four configurations rotate which runs first, the same way
      // for every seed.
      for (unsigned Step = 0; Step < 4; ++Step) {
        unsigned Which = (Round + K + Step) % 4;
        size_t Violations = 0;
        switch (Which) {
        case 0: {
          Span S0("runtime.run");
          B += runContext(Kernel, uninstrumentedOptions(Workers), KernelScale,
                          Violations);
          break;
        }
        case 1: {
          Span S1("instrument.run");
          uint64_t E = 0;
          N += runCounting(Kernel, Workers, E);
          RoundEvents += double(E);
          break;
        }
        case 2: {
          DecoratedRun Run = runDecorated(Kernel, Workers, Round == 0, Rng);
          checkClean(R, Kernel, Run.Violations);
          D += Run.Seconds;
          T += Run.Tasks;
          S += Run.Steals;
          Callback += Run.CallbackSeconds;
          ConstructMs.push_back(Run.ConstructMs);
          if (Run.ParNs > 0)
            ParNs.push_back(Run.ParNs);
          Access.insert(Access.end(), Run.Access.begin(), Run.Access.end());
          TaskNs.insert(TaskNs.end(), Run.Task.begin(), Run.Task.end());
          LockNs.insert(LockNs.end(), Run.Lock.begin(), Run.Lock.end());
          for (auto &[Key, V] : Run.Stats)
            RoundStats[Key] += V;
          break;
        }
        case 3: {
          Span S3("untraced.run");
          P += runContext(Kernel, checkedOptions(Workers), KernelScale,
                          Violations);
          checkClean(R, Kernel, Violations);
          break;
        }
        }
      }
    }
    // Differences and ratios are taken within a round, where machine drift
    // affects both sides alike.
    BasePass.push_back(B);
    HookNs.push_back((N - B) / RoundEvents * 1e9);
    DecoratedPass.push_back(D);
    PlainPass.push_back(P);
    Overhead.push_back(D / P - 1);
    Tasks.push_back(T);
    Steals.push_back(S);
    CallbackShare.push_back(Callback / (D * Workers));
    PassStats = RoundStats;
    Events = RoundEvents;
  });

  double Accesses = PassStats["reads"] + PassStats["writes"];
  auto PerAccess = [&](double V) { return Accesses > 0 ? V / Accesses : 0; };
  R.series("runtime.pass_s", "s", BasePass);
  R.series("runtime.tasks", "count", Tasks);
  R.series("runtime.steals", "count", Steals);
  R.single("instrument.events", "count", Events);
  R.series("instrument.hook_ns", "ns", HookNs);
  R.single("analysis.skip_fraction", "ratio",
           PerAccess(PassStats["pre_seq_skips"] + PassStats["pre_site_skips"]));
  R.series("checker.access_ns.p50", "ns", Access);
  R.single("checker.access_ns.p99", "ns", quantile(Access, 0.99));
  R.series("checker.task_ns.p50", "ns", TaskNs);
  R.series("checker.lock_ns.p50", "ns", LockNs);
  R.series("checker.callback_share", "ratio", CallbackShare);
  R.single("checker.cache_hit_fraction", "ratio",
           PerAccess(PassStats["cache_hits"]));
  R.single("checker.lca_queries_per_access", "ratio",
           PerAccess(PassStats["lca_queries"]));
  R.single("checker.locations", "count", PassStats["locations"]);
  R.single("checker.dpst_nodes", "count", PassStats["dpst_nodes"]);
  R.series("checker.construct_ms", "ms", ConstructMs);
  R.single("dpst.par_ns", "ns", geomean(ParNs));
  R.series("obs.tracing_overhead", "ratio", Overhead);
  R.Notes.push_back("untraced checked pass " +
                    std::to_string(median(PlainPass)) + " s, traced " +
                    std::to_string(median(DecoratedPass)) + " s (median of " +
                    std::to_string(PlainPass.size()) + " rounds)");
  return R;
}

} // namespace

Result perfbench::runKernels(const Config &Cfg, unsigned Workers) {
  return Cfg.Traced ? traced(Cfg, Workers) : untraced(Cfg, Workers);
}
