//===- perfbench/cpp/main.cpp - Benchmark entry point ---------------------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Runs one workload of the TaskCheck benchmark and prints one line
/// "PERFBENCH_RESULT {json}" with the verdict tally and every metric of the
/// run's mode (median, quartiles, sample count). perfbench/run.py builds
/// this binary, calls it and renders the result; see perfbench/README.md.
///
///   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///             --data=DIR --refs=DIR [--trace-out=FILE]
///   perfbench --rss-probe --workload=NAME --seed=N --data=DIR --refs=DIR
///   perfbench --write-refs=DIR --seed=N --data=DIR
///
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "Bench.h"
#include "Spans.h"
#include "support/ArgParse.h"

using namespace perfbench;

namespace {

struct MetricName {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every untraced run reports. One more,
/// peak_rss_mb, comes from separate --rss-probe processes (run.py).
constexpr MetricName EndToEnd[] = {
    {"setup_s", "s"},
    {"slowdown_x", "x"},
    {"checked_pass_s", "s"},
    {"verdict_events_per_s", "ev/s"},
    {"verdict_ms.p50", "ms"},
};

/// The per-layer metrics every traced run reports. Counts and ratios of
/// a layer the workload does not exercise read 0; every time here is
/// measured on every workload. Layer times that only some workloads have
/// (trace decode, classification, per-engine verdicts) are reported next
/// to these but not listed in BENCHMARK.json (see README.md).
constexpr MetricName PerLayer[] = {
    {"runtime.pass_s", "s"},
    {"runtime.tasks", "count"},
    {"runtime.steals", "count"},
    {"instrument.events", "count"},
    {"instrument.hook_ns", "ns"},
    {"analysis.skip_fraction", "ratio"},
    {"checker.access_ns.p50", "ns"},
    {"checker.access_ns.p99", "ns"},
    {"checker.task_ns.p50", "ns"},
    {"checker.lock_ns.p50", "ns"},
    {"checker.callback_share", "ratio"},
    {"checker.cache_hit_fraction", "ratio"},
    {"checker.lca_queries_per_access", "ratio"},
    {"checker.locations", "count"},
    {"checker.dpst_nodes", "count"},
    {"checker.construct_ms", "ms"},
    {"dpst.par_ns", "ns"},
    {"trace.worker_busy_fraction", "ratio"},
    {"checker.velodrome.edges", "count"},
    {"checker.vclock.edges", "count"},
    {"checker.vclock.propagations", "count"},
    {"obs.tracing_overhead", "ratio"},
};

/// Writes \p Text as a JSON string literal.
std::string quoted(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

/// Moves the metrics named in \p Names from \p From into \p To. With
/// \p ZeroFill a count or ratio the workload did not produce reads 0; any
/// other missing metric is a bug.
template <size_t N>
bool selectMetrics(std::map<std::string, Metric> &From,
                   std::map<std::string, Metric> &To,
                   const MetricName (&Names)[N], bool ZeroFill) {
  for (const MetricName &M : Names) {
    auto It = From.find(M.Name);
    if (It == From.end()) {
      std::string_view Unit = M.Unit;
      if (!ZeroFill || (Unit != "count" && Unit != "ratio")) {
        std::fprintf(stderr, "error: workload did not report %s\n", M.Name);
        return false;
      }
      To[M.Name] = Metric{M.Unit, 0, Summary()};
      continue;
    }
    if (It->second.Unit != M.Unit) {
      std::fprintf(stderr, "error: %s reported in %s, expected %s\n", M.Name,
                   It->second.Unit.c_str(), M.Unit);
      return false;
    }
    To[M.Name] = It->second;
    From.erase(It);
  }
  return true;
}

std::string metricsJson(const std::map<std::string, Metric> &Metrics) {
  std::string Json = "{";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    Json += (First ? "" : ",") + quoted(Name) + ":{\"value\":" +
            number(M.Value) + ",\"unit\":" + quoted(M.Unit) +
            ",\"median\":" + number(M.Stats.Median) + ",\"q1\":" +
            number(M.Stats.Q1) + ",\"q3\":" + number(M.Stats.Q3) +
            ",\"n\":" + std::to_string(M.Stats.N) + "}";
    First = false;
  }
  return Json + "}";
}

void printResult(const Config &Cfg, const Result &R,
                 const std::map<std::string, Metric> &Metrics,
                 const std::map<std::string, Metric> &Reported,
                 const std::vector<LayerTime> &Layers) {
  std::string Json = "{\"workload\":" + quoted(Cfg.Workload) +
                     ",\"seed\":" + std::to_string(Cfg.Seed) +
                     ",\"trace\":" + (Cfg.Traced ? "1" : "0") +
                     ",\"correct\":" + (R.Correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(R.Attempted) +
                     ",\"failed\":" + std::to_string(R.Failed) +
                     ",\"metrics\":" + metricsJson(Metrics) +
                     ",\"reported\":" + metricsJson(Reported) +
                     ",\"layers\":[";
  bool First = true;
  for (const LayerTime &L : Layers) {
    Json += std::string(First ? "" : ",") + "{\"name\":" + quoted(L.Name) +
            ",\"spans\":" + std::to_string(L.Spans) +
            ",\"sample_every\":" + std::to_string(L.SampleEvery) +
            ",\"total_ms\":" + number(L.TotalMs) +
            ",\"self_ms\":" + number(L.SelfMs) + "}";
    First = false;
  }
  Json += "],\"notes\":[";
  First = true;
  for (const std::string &Note : R.Notes) {
    Json += (First ? "" : ",") + quoted(Note);
    First = false;
  }
  Json += "]}";
  std::printf("PERFBENCH_RESULT %s\n", Json.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  unsigned Trace = 0;
  avc::ArgParser Parser;
  Parser.stringOption("workload", Cfg.Workload)
      .u64Option("seed", Cfg.Seed)
      .doubleOption("seconds", Cfg.Seconds)
      .unsignedOption("trace", Trace)
      .stringOption("data", Cfg.DataDir)
      .stringOption("refs", Cfg.RefsDir)
      .stringOption("trace-out", Cfg.TraceOut)
      .stringOption("write-refs", Cfg.WriteRefs)
      .flag("rss-probe", Cfg.RssProbe);
  if (!Parser.parse(Argc, Argv))
    return 2;
  Cfg.Traced = Trace != 0;
  if (Cfg.DataDir.empty()) {
    std::fprintf(stderr, "error: --data=DIR is required\n");
    return 2;
  }
  if (!Cfg.WriteRefs.empty())
    return writeTraceRefs(Cfg) ? 0 : 1;

  Result R;
  unsigned Workers = 1;
  if (Cfg.Workload == "kernels-1w") {
    R = runKernels(Cfg, Workers);
  } else if (Cfg.Workload == "kernels-4w") {
    Workers = 4;
    R = runKernels(Cfg, Workers);
  } else if (Cfg.Workload == "trace-fleet") {
    Workers = 4;
    R = runTraceFleet(Cfg);
  } else if (Cfg.Workload == "wide-trace") {
    R = runWideTrace(Cfg);
  } else {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (kernels-1w, kernels-4w, "
                 "trace-fleet, wide-trace)\n",
                 Cfg.Workload.c_str());
    return 2;
  }

  if (Cfg.RssProbe) {
    std::printf("PERFBENCH_RSS %.17g\n", R.Metrics["peak_rss_mb"].Value);
    return 0;
  }
  std::map<std::string, Metric> Metrics, Reported;
  std::vector<LayerTime> Layers;
  if (Cfg.Traced) {
    if (!selectMetrics(R.Metrics, Metrics, PerLayer, true))
      return 1;
    Reported = std::move(R.Metrics);
    Layers = SpanRecorder::get().layerTimes(Workers);
    double Overhead = Metrics["obs.tracing_overhead"].Value;
    if (!Cfg.TraceOut.empty() &&
        !SpanRecorder::get().writeChromeTrace(Cfg.TraceOut, Overhead * 100)) {
      std::fprintf(stderr, "error: cannot write %s\n", Cfg.TraceOut.c_str());
      return 1;
    }
  } else if (!selectMetrics(R.Metrics, Metrics, EndToEnd, false)) {
    return 1;
  }
  printResult(Cfg, R, Metrics, Reported, Layers);
  return 0;
}
