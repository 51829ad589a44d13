//===- perfbench/cpp/Traces.cpp - trace-fleet / wide-trace ----------------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The offline path. Both workloads generate seeded random programs with
/// generateProgram, linearize them under a seeded random schedule, encode
/// them to the binary trace format on disk, and then check the files the
/// way `taskcheck batch` / `taskcheck --trace` do.
///
///  - trace-fleet: 128 short traces (about 2-4K events, 64-127 locations,
///    2-6 locks each) checked by the default engine through runBatch at 4
///    workers, over and over (closed loop). Every per-trace verdict must
///    match the default engine's location set, which must equal
///    BasicChecker's (the structural oracle the property tests use).
///  - wide-trace: one trace of 1025 tasks (a root fanning out 64 random
///    16-task programs over shared locations and locks) checked to a
///    verdict by checkTraceFile with the atomicity, velodrome and vclock
///    engines. Velodrome and
///    vclock must agree exactly (location sets and cycle counts) and the
///    atomicity engine must match BasicChecker.
///
/// Reference location sets for the default seed are committed under
/// perfbench/refs; for any other seed they are computed after the timed
/// region.
///
//===----------------------------------------------------------------------===//

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>

#include "Bench.h"
#include "Observers.h"
#include "Spans.h"
#include "analysis/TraceClassifier.h"
#include "checker/AtomicityChecker.h"
#include "checker/ToolRegistry.h"
#include "obs/Metrics.h"
#include "runtime/TaskRuntime.h"
#include "trace/BatchReplay.h"
#include "trace/TraceCodec.h"
#include "trace/TraceGenerator.h"
#include "trace/TraceReplayer.h"

using namespace avc;
using namespace perfbench;

namespace {

using KeySet = std::set<MemAddr>;

constexpr unsigned FleetSize = 128;
constexpr unsigned FleetWorkers = 4;
constexpr unsigned WidePrograms = 64;
constexpr unsigned WideTasksPerProgram = 16;
/// Calibration units after each fleet batch (about a fifth of a batch)
/// and per verdict after each wide engine's verdicts (about a sixth of a
/// round).
constexpr unsigned FleetCalUnits = 10;
constexpr unsigned WideCalUnits = 30;

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// Shape of fleet trace \p Index: varied per trace so the fleet mixes
/// sparse and dense sharing, few and many locks.
TraceGenOptions fleetOptions(uint64_t Seed, unsigned Index) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + Index + 1);
  TraceGenOptions Opts;
  Opts.Seed = Rng.next();
  Opts.NumTasks = 96 + uint32_t(Rng.nextBelow(64));
  Opts.NumLocations = 64 + uint32_t(Rng.nextBelow(64));
  Opts.NumLocks = 2 + uint32_t(Rng.nextBelow(5));
  Opts.MinOpsPerTask = 4;
  Opts.MaxOpsPerTask = 12 + uint32_t(Rng.nextBelow(9));
  return Opts;
}

Trace fleetTrace(uint64_t Seed, unsigned Index) {
  TraceGenOptions Opts = fleetOptions(Seed, Index);
  return linearizeRandom(generateProgram(Opts), Opts.Seed ^ 0x5bd1e995ULL);
}

/// A root task that spawns WidePrograms independent random programs, all
/// over the same 64 locations and 8 locks. Composing many small programs
/// keeps the width (and the engines' cost) steady from seed to seed, where
/// one random spawn tree of the same size varies several-fold.
Trace wideTrace(uint64_t Seed) {
  GenProgram Wide;
  Wide.NumLocations = 64;
  Wide.NumLocks = 8;
  Wide.Tasks.resize(1);
  for (unsigned P = 0; P < WidePrograms; ++P) {
    TraceGenOptions Opts;
    Opts.Seed = Seed * 1000003ULL + P;
    Opts.NumTasks = WideTasksPerProgram;
    Opts.NumLocations = Wide.NumLocations;
    Opts.NumLocks = Wide.NumLocks;
    GenProgram Sub = generateProgram(Opts);
    uint32_t Base = uint32_t(Wide.Tasks.size());
    Wide.Tasks[0].Ops.push_back({GenOp::Kind::Spawn, Base});
    for (GenTask &Task : Sub.Tasks) {
      for (GenOp &Op : Task.Ops)
        if (Op.K == GenOp::Kind::Spawn)
          Op.Index += Base;
      Wide.Tasks.push_back(std::move(Task));
    }
  }
  return linearizeRandom(Wide, Seed * 131 + 7);
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
  return bool(Out.flush());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string seedDir(const Config &Cfg, const char *Workload) {
  std::string Dir =
      Cfg.DataDir + "/" + Workload + "-seed" + std::to_string(Cfg.Seed);
  ::mkdir(Cfg.DataDir.c_str(), 0755);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

std::string fleetName(unsigned Index) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "trace-%03u", Index);
  return Name;
}

/// Generates, encodes and writes the fleet; returns the file paths.
std::vector<std::string> writeFleet(const Config &Cfg) {
  std::string Dir = seedDir(Cfg, "trace-fleet");
  std::vector<std::string> Paths;
  for (unsigned I = 0; I < FleetSize; ++I) {
    Paths.push_back(Dir + "/" + fleetName(I) + ".avct");
    if (!writeFile(Paths.back(), encodeTrace(fleetTrace(Cfg.Seed, I))))
      std::fprintf(stderr, "error: cannot write %s\n", Paths.back().c_str());
  }
  return Paths;
}

std::string writeWide(const Config &Cfg) {
  std::string Path = seedDir(Cfg, "wide-trace") + "/wide.avct";
  if (!writeFile(Path, encodeTrace(wideTrace(Cfg.Seed))))
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
  return Path;
}

//===----------------------------------------------------------------------===//
// Verdicts
//===----------------------------------------------------------------------===//

/// Outcome of one trace checked to a verdict.
struct Verdict {
  bool Ok = false;
  uint64_t Events = 0;
  uint64_t Violations = 0;
  KeySet Keys; ///< only when requested
  std::map<std::string, double> Stats;
};

/// Replays \p Events into \p Tool through \p Observer (the tool itself or a
/// decorator in front of it), running the exact classification sweep first
/// when the tool's pre-analysis asks for it — replayTraceTwoPass with the
/// observer made explicit.
void replayInto(const Trace &Events, CheckerTool &Tool,
                ExecutionObserver &Observer) {
  if (Tool.preanalysis().options().Mode == PreanalysisMode::On) {
    TraceClassifier Classifier;
    replayTrace(Events, Classifier);
    Tool.preanalysis().adoptExact(Classifier.classes());
  }
  replayTrace(Events, Observer);
}

/// What a traced verdict's timing decorator measured.
struct DecoratedSamples {
  std::vector<double> Access, Task, Lock;
  double CallbackSeconds = 0;
  double ConstructMs = 0;
};

/// Loads and decodes \p Path and replays it into a fresh \p Kind engine
/// built through the registry with \p Opts: the body of checkTraceFile,
/// keeping the engine for its key set and counters. Spans mark each stage
/// when the recorder is on; with a non-null \p Decorated the engine also
/// sits behind a timing decorator whose samples land in *Decorated.
Verdict checkFile(const std::string &Path, ToolKind Kind,
                  const ToolOptions &Opts, bool WantKeys,
                  DecoratedSamples *Decorated = nullptr,
                  uint32_t ParentSpan = 0) {
  Verdict V;
  Span File("trace.file", ParentSpan);
  std::string Bytes;
  {
    Span Load("trace.load");
    Bytes = readFile(Path);
  }
  std::optional<Trace> Events;
  {
    Span Decode("trace.decode");
    Events = parseTraceAuto(Bytes);
  }
  if (!Events)
    return V;
  V.Events = Events->size();
  const ToolRegistration *Reg = ToolRegistry::instance().find(Kind);
  if (!Reg || !Reg->Factory)
    return V;
  std::unique_ptr<CheckerTool> Tool;
  {
    Span Construct("checker.construct");
    double Ms = timeIt([&] { Tool = Reg->Factory(Opts, nullptr); }) * 1e3;
    if (Decorated)
      Decorated->ConstructMs = Ms;
  }
  {
    Span Replay("checker.replay");
    if (Decorated) {
      TimingObserver Decorator(*Tool);
      Decorator.setParentSpan(Replay.id());
      replayInto(*Events, *Tool, Decorator);
      Decorated->Access = Decorator.samples(CallbackClass::Access);
      Decorated->Task = Decorator.samples(CallbackClass::Task);
      Decorated->Lock = Decorator.samples(CallbackClass::Lock);
      Decorated->CallbackSeconds = Decorator.estimatedSeconds();
    } else {
      replayInto(*Events, *Tool, *Tool);
    }
  }
  V.Ok = true;
  V.Violations = Tool->numViolations();
  if (WantKeys)
    V.Keys = Tool->violationKeys();
  if (Decorated)
    Tool->visitStats([&](const char *Key, double X) { V.Stats[Key] = X; });
  return V;
}

/// Options for oracle replays: every finding retained, so the key set is
/// complete (the shipped default keeps the first 4096 reports, which on a
/// wide trace would make the set depend on report order).
ToolOptions oracleOptions() {
  ToolOptions Opts;
  Opts.MaxRetainedReports = std::numeric_limits<size_t>::max();
  return Opts;
}

/// Time to decode-and-replay \p Path into an observer that does nothing:
/// the unchecked baseline of a trace verdict.
double uncheckedSeconds(const std::string &Path, uint64_t &Events) {
  Timer T;
  std::optional<Trace> Decoded = parseTraceAuto(readFile(Path));
  CountingObserver Counter;
  if (Decoded)
    replayTrace(*Decoded, Counter);
  double Seconds = T.elapsedSeconds();
  Events = Decoded ? Decoded->size() : 0;
  return Seconds;
}

/// dpst.par_ns on a trace: Par() query cost on the tree the default
/// engine builds while replaying \p Path (0 if that engine builds none).
double parNsOf(const std::string &Path, SplitMix64 &Rng) {
  std::optional<Trace> Events = parseTraceAuto(readFile(Path));
  const ToolRegistration *Reg =
      ToolRegistry::instance().find(BatchOptions().Tool);
  if (!Events || !Reg || !Reg->Factory)
    return 0;
  ToolOptions Opts;
  std::unique_ptr<CheckerTool> Tool = Reg->Factory(Opts, nullptr);
  replayInto(*Events, *Tool, *Tool);
  auto *Checker = dynamic_cast<AtomicityChecker *>(Tool.get());
  return Checker ? timeParQueries(Checker->dpst(), Opts, Rng) : 0;
}

//===----------------------------------------------------------------------===//
// References
//===----------------------------------------------------------------------===//

/// Reference file of \p Workload at \p Seed: one line per trace,
/// "<name> <events> <content hash> <hex address>...", the BasicChecker
/// location set of the trace file with that hash.
std::string refsPath(const std::string &Dir, const char *Workload,
                     uint64_t Seed) {
  return Dir + "/" + Workload + "-seed" + std::to_string(Seed) + ".txt";
}

struct Reference {
  uint64_t Events = 0;
  uint64_t Hash = 0;
  KeySet Keys;
};

/// FNV-1a of a trace file's bytes: ties a committed reference to the
/// exact input it was computed on.
uint64_t contentHash(const std::string &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes)
    Hash = (Hash ^ C) * 0x100000001b3ULL;
  return Hash;
}

std::map<std::string, Reference> loadRefs(const std::string &Path) {
  std::map<std::string, Reference> Refs;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Name, Key;
    Reference Ref;
    if (!(Fields >> Name >> Ref.Events >> std::hex >> Ref.Hash))
      continue;
    while (Fields >> Key)
      Ref.Keys.insert(std::stoull(Key, nullptr, 16));
    Refs[Name] = Ref;
  }
  return Refs;
}

std::string refLine(const std::string &Name, const Reference &Ref) {
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), " %" PRIx64, Ref.Hash);
  std::string Line = Name + " " + std::to_string(Ref.Events) + Hex;
  for (MemAddr Key : Ref.Keys) {
    std::snprintf(Hex, sizeof(Hex), " %" PRIx64, uint64_t(Key));
    Line += Hex;
  }
  return Line;
}

/// BasicChecker's location set for \p Path: the committed one when the
/// reference file has one for this exact file, computed otherwise (another
/// seed, or inputs that changed since the references were written).
Reference basicReference(const std::map<std::string, Reference> &Committed,
                         const std::string &Name, const std::string &Path) {
  uint64_t Hash = contentHash(readFile(Path));
  if (auto It = Committed.find(Name);
      It != Committed.end() && It->second.Hash == Hash)
    return It->second;
  Verdict Basic = checkFile(Path, ToolKind::Basic, oracleOptions(), true);
  return {Basic.Events, Hash, Basic.Keys};
}

/// " {a b c ...}" — the first few addresses of a location set.
std::string keysText(const KeySet &Keys) {
  std::string Text = " {";
  char Hex[24];
  size_t Shown = 0;
  for (MemAddr Key : Keys) {
    if (Shown++ == 8) {
      Text += " ...";
      break;
    }
    std::snprintf(Hex, sizeof(Hex), "%s%" PRIx64, Shown > 1 ? " " : "",
                  uint64_t(Key));
    Text += Hex;
  }
  return Text + "} (" + std::to_string(Keys.size()) + ")";
}

//===----------------------------------------------------------------------===//
// trace-fleet
//===----------------------------------------------------------------------===//

/// runBatch options at the fleet's worker count: the default engine when
/// \p Checked, otherwise ToolKind::None (load and decode only).
BatchOptions fleetBatch(bool Checked) {
  BatchOptions Opts;
  Opts.NumWorkers = FleetWorkers;
  if (!Checked)
    Opts.Tool = ToolKind::None;
  return Opts;
}

/// Per-trace verified outcome of the default engine, whose location set
/// must equal the BasicChecker reference.
struct FleetTruth {
  std::vector<uint64_t> Violations, Events;
};

FleetTruth verifyFleet(const Config &Cfg,
                       const std::vector<std::string> &Paths, Result &R) {
  auto Committed = loadRefs(refsPath(Cfg.RefsDir, "trace-fleet", Cfg.Seed));
  FleetTruth Truth;
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::string Name = fleetName(unsigned(I));
    Verdict Engine =
        checkFile(Paths[I], BatchOptions().Tool, oracleOptions(), true);
    Reference Ref = basicReference(Committed, Name, Paths[I]);
    R.check(Engine.Ok && Engine.Events == Ref.Events &&
                Engine.Keys == Ref.Keys,
            Name + ": engine locations" + keysText(Engine.Keys) +
                " vs reference" + keysText(Ref.Keys));
    Truth.Violations.push_back(Engine.Violations);
    Truth.Events.push_back(Ref.Events);
  }
  return Truth;
}

void checkBatch(Result &R, const BatchResult &Batch, const FleetTruth &Truth) {
  for (size_t I = 0; I < Batch.Traces.size(); ++I) {
    const BatchTraceResult &T = Batch.Traces[I];
    R.check(T.ok() && T.NumEvents == Truth.Events[I] &&
                T.NumViolations == Truth.Violations[I],
            fleetName(unsigned(I)) + ": batch verdict " +
                std::to_string(T.NumViolations) + " violation(s), verified " +
                std::to_string(Truth.Violations[I]) +
                (T.ok() ? "" : " " + T.Error));
  }
}

Result fleetUntraced(const Config &Cfg) {
  Result R;
  Calibration Cal(Cfg, FleetWorkers);
  std::vector<std::string> Paths;
  R.single("setup_s", "s", timeSetup(Cfg, Cal, [&] {
             Paths = writeFleet(Cfg);
             runBatch(Paths, fleetBatch(true));
           }));

  // Every checked batch is followed by a calibration chunk on as many
  // threads; the batch's times are scaled by that chunk's speed.
  std::vector<BatchResult> Checked;
  std::vector<double> CheckedWall, PassPerCal, Rates, TraceMs, RawWall;
  std::vector<CalWindow> Windows;
  runRounds(Cfg, 5, [&](unsigned) {
    BatchResult C = runBatch(Paths, fleetBatch(true));
    CalWindow Window;
    Cal.run(FleetCalUnits, Window);
    double Speed = Window.factor(), Wall = C.WallMs * 1e-3 * Speed;
    CheckedWall.push_back(Wall);
    PassPerCal.push_back(C.WallMs * 1e-3 / Window.wall());
    Rates.push_back(double(C.TotalEvents) / Wall);
    RawWall.push_back(C.WallMs * 1e-3);
    Windows.push_back(Window);
    for (BatchTraceResult &T : C.Traces) {
      TraceMs.push_back(T.WallMs * Speed);
      T.Path.clear(); // kept for the verdict check only
    }
    Checked.push_back(std::move(C));
  });

  R.single("peak_rss_mb", "MiB", peakRssMiB());
  if (Cfg.RssProbe)
    return R;

  // Verdicts, checked outside the timed region.
  FleetTruth Truth = verifyFleet(Cfg, Paths, R);
  for (const BatchResult &Batch : Checked)
    checkBatch(R, Batch, Truth);

  R.series("slowdown_x", "x", PassPerCal);
  R.series("checked_pass_s", "s", CheckedWall);
  R.series("verdict_events_per_s", "ev/s", Rates);
  R.series("verdict_ms.p50", "ms", TraceMs);
  R.Notes.push_back(hostNote(median(RawWall), Windows));
  char Tail[160];
  std::snprintf(Tail, sizeof(Tail),
                "verdict_ms.p99 = %.4f ms over %zu per-trace verdicts",
                quantile(TraceMs, 0.99), TraceMs.size());
  R.Notes.push_back(Tail);
  return R;
}

Result fleetTraced(const Config &Cfg) {
  Result R;
  SplitMix64 Rng(Cfg.Seed);
  std::vector<std::string> Paths = writeFleet(Cfg);
  runBatch(Paths, fleetBatch(true));
  FleetTruth Truth = verifyFleet(Cfg, Paths, R);
  SpanRecorder::get().enable();

  std::vector<double> TracedWall, BatchWall, NoneWall, Tasks, Steals, Busy;
  std::vector<double> DecodeMs, CheckMs, ConstructMs, ClassifyMs, ReplayNs;
  std::vector<double> Access, TaskNs, LockNs, CallbackShare;
  std::vector<double> DecodeRate, ParNs;
  std::map<std::string, double> FleetStats;
  double FleetEvents = 0;

  runRounds(Cfg, 3, [&](unsigned Round) {
    // A fleet batch records about a thousand spans; keeping one round in
    // four keeps the trace file to a few MiB without changing the timing.
    SpanRecorder::get().enable(Round % 4 == 0);
    for (unsigned Step = 0; Step < 3; ++Step) {
      unsigned Which = (Round + Step) % 3;
      if (Which == 0) {
        // The traced batch: runBatch's shape (one runtime task per trace,
        // pre-sized result slots) with a span around every stage.
        std::vector<Verdict> Slots(Paths.size());
        std::vector<DecoratedSamples> Samples(Paths.size());
        Span Batch("fleet.batch");
        Timer T;
        {
          TaskRuntime::Options RtOpts;
          RtOpts.NumThreads = FleetWorkers;
          TaskRuntime RT(RtOpts);
          uint32_t BatchId = Batch.id();
          BatchOptions Opts = fleetBatch(true);
          RT.run([&] {
            for (size_t I = 0; I < Paths.size(); ++I)
              spawn([&, I] {
                Slots[I] = checkFile(Paths[I], Opts.Tool, Opts.Checker, false,
                                     &Samples[I], BatchId);
              });
          });
        }
        double Wall = T.elapsedSeconds();
        TracedWall.push_back(Wall);
        double Callback = 0;
        FleetStats.clear();
        for (size_t I = 0; I < Paths.size(); ++I) {
          R.check(Slots[I].Ok && Slots[I].Violations == Truth.Violations[I],
                  fleetName(unsigned(I)) + ": traced verdict " +
                      std::to_string(Slots[I].Violations) + ", verified " +
                      std::to_string(Truth.Violations[I]));
          const DecoratedSamples &S = Samples[I];
          Access.insert(Access.end(), S.Access.begin(), S.Access.end());
          TaskNs.insert(TaskNs.end(), S.Task.begin(), S.Task.end());
          LockNs.insert(LockNs.end(), S.Lock.begin(), S.Lock.end());
          ConstructMs.push_back(S.ConstructMs);
          Callback += S.CallbackSeconds;
          for (auto &[Key, V] : Slots[I].Stats)
            FleetStats[Key] += V;
        }
        CallbackShare.push_back(Callback / (Wall * FleetWorkers));
      } else if (Which == 1) {
        double TasksBefore = counterValue(metrics::names::RuntimeTasksTotal);
        double StealsBefore =
            counterValue(metrics::names::RuntimeStealsTotal);
        BatchResult C = runBatch(Paths, fleetBatch(true));
        checkBatch(R, C, Truth);
        Tasks.push_back(counterValue(metrics::names::RuntimeTasksTotal) -
                        TasksBefore);
        Steals.push_back(counterValue(metrics::names::RuntimeStealsTotal) -
                         StealsBefore);
        BatchWall.push_back(C.WallMs * 1e-3);
        double Sum = 0;
        for (const BatchTraceResult &T : C.Traces) {
          DecodeMs.push_back(T.DecodeMs);
          CheckMs.push_back(T.CheckMs);
          Sum += T.WallMs;
        }
        Busy.push_back(Sum / (FleetWorkers * C.WallMs));
        FleetEvents = double(C.TotalEvents);
      } else {
        NoneWall.push_back(runBatch(Paths, fleetBatch(false)).WallMs *
                           1e-3);
      }
    }
    // Per-trace stage costs outside any batch, on this thread.
    double DecodedEvents = 0, DecodeSeconds = 0;
    for (const std::string &Path : Paths) {
      std::string Bytes = readFile(Path);
      std::optional<Trace> Events;
      DecodeSeconds += timeIt([&] { Events = decodeTrace(Bytes); });
      if (!Events)
        continue;
      DecodedEvents += double(Events->size());
      TraceClassifier Classifier;
      {
        Span Classify("analysis.classify");
        ClassifyMs.push_back(
            timeIt([&] { replayTrace(*Events, Classifier); }) * 1e3);
      }
      CountingObserver Counter;
      double Replay = timeIt([&] { replayTrace(*Events, Counter); });
      ReplayNs.push_back(Replay * 1e9 / double(Events->size()));
    }
    DecodeRate.push_back(DecodedEvents / DecodeSeconds);
    ParNs.push_back(parNsOf(Paths[Round % Paths.size()], Rng));
  });

  double Accesses = FleetStats["reads"] + FleetStats["writes"];
  auto PerAccess = [&](double V) { return Accesses > 0 ? V / Accesses : 0; };
  R.series("runtime.pass_s", "s", NoneWall);
  R.series("runtime.tasks", "count", Tasks);
  R.series("runtime.steals", "count", Steals);
  R.single("instrument.events", "count", FleetEvents);
  R.single("analysis.skip_fraction", "ratio",
           PerAccess(FleetStats["pre_seq_skips"] +
                     FleetStats["pre_site_skips"]));
  R.series("analysis.classify_ms", "ms", ClassifyMs);
  R.series("checker.access_ns.p50", "ns", Access);
  R.single("checker.access_ns.p99", "ns", quantile(Access, 0.99));
  R.series("checker.task_ns.p50", "ns", TaskNs);
  R.series("checker.lock_ns.p50", "ns", LockNs);
  R.series("checker.callback_share", "ratio", CallbackShare);
  R.single("checker.cache_hit_fraction", "ratio",
           PerAccess(FleetStats["cache_hits"]));
  R.single("checker.lca_queries_per_access", "ratio",
           PerAccess(FleetStats["lca_queries"]));
  R.single("checker.locations", "count", FleetStats["locations"]);
  R.single("checker.dpst_nodes", "count", FleetStats["dpst_nodes"]);
  R.series("checker.construct_ms", "ms", ConstructMs);
  R.series("trace.decode_ms.p50", "ms", DecodeMs);
  R.series("trace.check_ms.p50", "ms", CheckMs);
  R.series("trace.replay_ns_per_event", "ns", ReplayNs);
  // Offline, delivering an event to an observer is replay dispatch.
  R.series("instrument.hook_ns", "ns", ReplayNs);
  R.series("dpst.par_ns", "ns", ParNs);
  R.series("trace.worker_busy_fraction", "ratio", Busy);
  R.series("trace.decode_events_per_s", "ev/s", DecodeRate);
  R.derived("obs.tracing_overhead", "ratio",
            median(TracedWall) / median(BatchWall) - 1);
  R.Notes.push_back("untraced batch (runBatch) " +
                    std::to_string(median(BatchWall)) + " s, traced batch " +
                    std::to_string(median(TracedWall)) + " s");
  return R;
}

//===----------------------------------------------------------------------===//
// wide-trace
//===----------------------------------------------------------------------===//

struct Engine {
  const char *Name;
  const char *SpanName;
  ToolKind Kind;
};
constexpr Engine WideEngines[] = {
    {"atomicity", "verdict.atomicity", ToolKind::Atomicity},
    {"velodrome", "verdict.velodrome", ToolKind::Velodrome},
    {"vclock", "verdict.vclock", ToolKind::VClock}};
constexpr size_t NumWideEngines = sizeof(WideEngines) / sizeof(Engine);

/// Oracle replays of the wide trace; returns the verified violation count
/// per engine.
std::vector<uint64_t> verifyWide(const Config &Cfg, const std::string &Path,
                                 Result &R) {
  std::vector<Verdict> V;
  for (const Engine &E : WideEngines)
    V.push_back(checkFile(Path, E.Kind, oracleOptions(), true));
  auto Committed = loadRefs(refsPath(Cfg.RefsDir, "wide-trace", Cfg.Seed));
  Reference Ref = basicReference(Committed, "wide", Path);
  R.check(V[0].Ok && V[0].Events == Ref.Events && V[0].Keys == Ref.Keys,
          "wide: atomicity locations" + keysText(V[0].Keys) +
              " vs BasicChecker" + keysText(Ref.Keys));
  R.check(V[1].Ok && V[2].Ok && V[1].Keys == V[2].Keys &&
              V[1].Violations == V[2].Violations,
          "wide: velodrome " + std::to_string(V[1].Violations) +
              " cycle(s) at" + keysText(V[1].Keys) + " vs vclock " +
              std::to_string(V[2].Violations) + " at" + keysText(V[2].Keys));
  std::vector<uint64_t> Counts;
  for (const Verdict &X : V)
    Counts.push_back(X.Violations);
  return Counts;
}

/// checkTraceFile options for wide-trace engine \p E: the shipped
/// defaults, only the engine chosen.
BatchOptions wideOptions(size_t E) {
  BatchOptions Opts;
  Opts.Tool = WideEngines[E].Kind;
  return Opts;
}

/// One untraced verdict through the program's own checkTraceFile, checked
/// against the verified violation count once that is known.
struct WideVerdict {
  size_t Engine = 0;
  BatchTraceResult Result;
};

void checkWide(Result &R, const WideVerdict &V,
               const std::vector<uint64_t> &Verified) {
  R.check(V.Result.ok() && V.Result.NumViolations == Verified[V.Engine],
          std::string("wide: ") + WideEngines[V.Engine].Name + " reported " +
              std::to_string(V.Result.NumViolations) + ", verified " +
              std::to_string(Verified[V.Engine]) + " " + V.Result.Error);
}

Result wideUntraced(const Config &Cfg) {
  Result R;
  Calibration Cal(Cfg, 1);
  std::string Path;
  // Set-up generates, writes and decodes the trace. A warm-up verdict is
  // left out: its time moved by a third between two otherwise agreeing
  // sets of runs, and the verdicts repeat in every round anyway.
  R.single("setup_s", "s", timeSetup(Cfg, Cal, [&] {
             Path = writeWide(Cfg);
             parseTraceAuto(readFile(Path));
           }));

  // Each engine's verdicts are followed by a calibration chunk; a round's
  // verdicts are scaled by the speed of its chunks. The cheap atomicity
  // verdict runs five times back to back and its sample is their mean:
  // single verdicts fell into two clusters (12-13 ms and 17-21 ms), so a
  // median over them jumped between clusters from run to run, and a chunk
  // between them (its memory walk evicts the caches) spread them further.
  // Engines rotate which goes first.
  std::vector<std::vector<double>> Seconds(NumWideEngines);
  std::vector<WideVerdict> Verdicts;
  std::vector<double> PassSeconds, PassPerCal, RawPass;
  std::vector<CalWindow> Windows;
  uint64_t Events = 0;
  runRounds(Cfg, 3, [&](unsigned Round) {
    std::vector<std::vector<double>> Raw(NumWideEngines);
    CalWindow Window;
    for (size_t Step = 0; Step < NumWideEngines; ++Step) {
      size_t E = (Round + Step) % NumWideEngines;
      const unsigned Reps = E == 0 ? 5 : 1;
      for (unsigned Rep = 0; Rep < Reps; ++Rep) {
        WideVerdict V{E, {}};
        Raw[E].push_back(
            timeIt([&] { V.Result = checkTraceFile(Path, wideOptions(E)); }));
        Events = V.Result.NumEvents;
        Verdicts.push_back(std::move(V));
      }
      Cal.run(WideCalUnits * Reps, Window);
    }
    double Speed = Window.factor(), Pass = 0;
    for (size_t E = 0; E < NumWideEngines; ++E) {
      double Mean = 0;
      for (double S : Raw[E])
        Mean += S / double(Raw[E].size());
      Seconds[E].push_back(Mean * Speed);
      Pass += Mean;
    }
    PassSeconds.push_back(Pass * Speed);
    PassPerCal.push_back(Pass / Window.wall());
    RawPass.push_back(Pass);
    Windows.push_back(Window);
  });

  R.single("peak_rss_mb", "MiB", peakRssMiB());
  if (Cfg.RssProbe)
    return R;

  std::vector<uint64_t> Verified = verifyWide(Cfg, Path, R);
  for (const WideVerdict &V : Verdicts)
    checkWide(R, V, Verified);

  // As for the kernels: the pass sums each engine's median.
  std::vector<double> Rates, AtomicityMs;
  double Pass = 0;
  for (size_t E = 0; E < NumWideEngines; ++E)
    Pass += median(Seconds[E]);
  for (double S : PassSeconds)
    Rates.push_back(double(NumWideEngines * Events) / S);
  for (double S : Seconds[0])
    AtomicityMs.push_back(S * 1e3);
  R.series("slowdown_x", "x", PassPerCal);
  R.derived("checked_pass_s", "s", Pass, PassSeconds);
  R.derived("verdict_events_per_s", "ev/s",
            double(NumWideEngines * Events) / Pass, Rates);
  R.series("verdict_ms.p50", "ms", AtomicityMs);
  R.Notes.push_back(hostNote(median(RawPass), Windows));
  for (size_t E = 0; E < NumWideEngines; ++E) {
    char Line[96];
    std::snprintf(Line, sizeof(Line), "verdict_s.%s = %.4f s (%zu rounds)",
                  WideEngines[E].Name, median(Seconds[E]), Seconds[E].size());
    R.Notes.push_back(Line);
  }
  return R;
}

Result wideTraced(const Config &Cfg) {
  Result R;
  SplitMix64 Rng(Cfg.Seed);
  std::string Path = writeWide(Cfg);
  checkTraceFile(Path, wideOptions(0));
  std::vector<uint64_t> Verified = verifyWide(Cfg, Path, R);
  SpanRecorder::get().enable();

  std::vector<std::vector<double>> Plain(NumWideEngines),
      Traced(NumWideEngines), Access(NumWideEngines);
  std::vector<double> TaskNs, LockNs, ConstructMs, CallbackShare, None,
      DecodeRate, ClassifyMs, ReplayNs, ParNs;
  std::map<std::string, double> Stats[NumWideEngines];
  uint64_t Events = 0;

  runRounds(Cfg, 2, [&](unsigned Round) {
    Span RoundSpan("bench.round");
    for (size_t Step = 0; Step < NumWideEngines; ++Step) {
      size_t E = (Round + Step) % NumWideEngines;
      WideVerdict Undecorated{E, {}};
      Plain[E].push_back(timeIt(
          [&] { Undecorated.Result = checkTraceFile(Path, wideOptions(E)); }));
      checkWide(R, Undecorated, Verified);
      Verdict V;
      DecoratedSamples S;
      Span EngineSpan(WideEngines[E].SpanName);
      Traced[E].push_back(timeIt([&] {
        V = checkFile(Path, WideEngines[E].Kind, ToolOptions(), false, &S,
                      EngineSpan.id());
      }));
      R.check(V.Violations == Verified[E],
              std::string("wide: traced ") + WideEngines[E].Name + " verdict");
      Access[E].insert(Access[E].end(), S.Access.begin(), S.Access.end());
      Stats[E] = V.Stats;
      if (E == 0) {
        TaskNs.insert(TaskNs.end(), S.Task.begin(), S.Task.end());
        LockNs.insert(LockNs.end(), S.Lock.begin(), S.Lock.end());
        ConstructMs.push_back(S.ConstructMs);
        CallbackShare.push_back(S.CallbackSeconds / Traced[E].back());
      }
    }
    None.push_back(uncheckedSeconds(Path, Events));
    std::string Bytes = readFile(Path);
    std::optional<Trace> Decoded;
    DecodeRate.push_back(
        double(Events) / timeIt([&] { Decoded = decodeTrace(Bytes); }));
    if (Decoded) {
      TraceClassifier Classifier;
      Span Classify("analysis.classify");
      ClassifyMs.push_back(
          timeIt([&] { replayTrace(*Decoded, Classifier); }) * 1e3);
      CountingObserver Counter;
      ReplayNs.push_back(timeIt([&] { replayTrace(*Decoded, Counter); }) *
                         1e9 / double(Decoded->size()));
    }
    ParNs.push_back(parNsOf(Path, Rng));
  });

  double Accesses = Stats[0]["reads"] + Stats[0]["writes"];
  auto PerAccess = [&](double V) { return Accesses > 0 ? V / Accesses : 0; };
  double PlainSum = 0, TracedSum = 0;
  for (size_t E = 0; E < NumWideEngines; ++E) {
    PlainSum += median(Plain[E]);
    TracedSum += median(Traced[E]);
    R.series(std::string("verdict_s.") + WideEngines[E].Name, "s", Plain[E]);
  }
  R.series("runtime.pass_s", "s", None);
  R.single("instrument.events", "count", double(Events));
  R.single("analysis.skip_fraction", "ratio",
           PerAccess(Stats[0]["pre_seq_skips"] + Stats[0]["pre_site_skips"]));
  R.series("analysis.classify_ms", "ms", ClassifyMs);
  R.series("checker.access_ns.p50", "ns", Access[0]);
  R.single("checker.access_ns.p99", "ns", quantile(Access[0], 0.99));
  R.series("checker.task_ns.p50", "ns", TaskNs);
  R.series("checker.lock_ns.p50", "ns", LockNs);
  R.series("checker.callback_share", "ratio", CallbackShare);
  R.single("checker.cache_hit_fraction", "ratio",
           PerAccess(Stats[0]["cache_hits"]));
  R.single("checker.lca_queries_per_access", "ratio",
           PerAccess(Stats[0]["lca_queries"]));
  R.single("checker.locations", "count", Stats[0]["locations"]);
  R.single("checker.dpst_nodes", "count", Stats[0]["dpst_nodes"]);
  R.series("checker.construct_ms", "ms", ConstructMs);
  R.series("trace.replay_ns_per_event", "ns", ReplayNs);
  R.series("instrument.hook_ns", "ns", ReplayNs);
  R.series("dpst.par_ns", "ns", ParNs);
  R.series("trace.decode_events_per_s", "ev/s", DecodeRate);
  R.series("checker.velodrome.access_ns.p50", "ns", Access[1]);
  R.series("checker.vclock.access_ns.p50", "ns", Access[2]);
  R.single("checker.velodrome.edges", "count", Stats[1]["edges"]);
  R.single("checker.vclock.edges", "count", Stats[2]["edges"]);
  R.single("checker.vclock.propagations", "count", Stats[2]["propagations"]);
  R.derived("obs.tracing_overhead", "ratio", TracedSum / PlainSum - 1);
  R.Notes.push_back("untraced verdicts (3 engines) " +
                    std::to_string(PlainSum) + " s, traced " +
                    std::to_string(TracedSum) + " s");
  return R;
}

} // namespace

Result perfbench::runTraceFleet(const Config &Cfg) {
  return Cfg.Traced ? fleetTraced(Cfg) : fleetUntraced(Cfg);
}

Result perfbench::runWideTrace(const Config &Cfg) {
  return Cfg.Traced ? wideTraced(Cfg) : wideUntraced(Cfg);
}

bool perfbench::writeTraceRefs(const Config &Cfg) {
  std::vector<std::string> Paths = writeFleet(Cfg);
  std::string FleetOut = refsPath(Cfg.WriteRefs, "trace-fleet", Cfg.Seed);
  std::ofstream Fleet(FleetOut);
  for (size_t I = 0; I < Paths.size(); ++I)
    Fleet << refLine(fleetName(unsigned(I)),
                     basicReference({}, fleetName(unsigned(I)), Paths[I]))
          << "\n";
  std::ofstream Wide(refsPath(Cfg.WriteRefs, "wide-trace", Cfg.Seed));
  Wide << refLine("wide", basicReference({}, "wide", writeWide(Cfg))) << "\n";
  return bool(Fleet.flush()) && bool(Wide.flush());
}
