// End-to-end training benchmark.
//
//   e2e_bench --workload <lenet_fda|fleet_codec|wide_sync> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 repeats {set-up, DistributedTrainer::Run} until --seconds have
// passed (at least two runs) and reports the end-to-end metrics: median
// train_s and setup_s, round-time p50/p90 pooled over every round of every
// run, peak RSS, and the run's bytes and steps to the accuracy target and
// its test accuracy there.
// --trace 1 alternates untraced and traced runs for three quarters of that
// time (at most 8 s less), writes the traced run's round spans to
// --trace-dir, replays every layer's public call at the workload's shapes
// in the rest and reports the per-layer split.
//
// Every run must reach the target, and all runs of an invocation must agree
// exactly on steps/bytes/syncs to target and on the evaluation history (the
// determinism contract). The last stdout line is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "layer_replay.h"
#include "round_timer.h"
#include "tensor/simd_dispatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kMaxRuns = 200;
// Set-up is short next to a run and noisy, so each run of --trace 0 times
// this many set-ups (the last one feeds the run). Spread over the whole
// window, their median follows the host the runs saw.
constexpr int kSetupsPerRun = 4;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 50.0;
  int trace = 0;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      args->has_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

// The host and build a result was measured on.
void PrintStamp(const Workload& w) {
  const char* threads_env = std::getenv("FEDRA_NUM_THREADS");
  const char* rev = std::getenv("E2E_SOURCE_REV");
  std::printf(
      "stamp {\"nproc\": %ld, \"FEDRA_NUM_THREADS\": \"%s\", "
      "\"pool_threads\": %zu, \"simd\": \"%s\", \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), threads_env ? threads_env : "",
      fedra::GlobalThreadPool().num_threads(),
      fedra::simd::LevelName(fedra::simd::ActiveLevel()), __VERSION__,
      E2E_BUILD_TYPE, rev ? rev : "unknown");
  std::printf("workload %s %s\n", w.name.c_str(), ConfigJson(w).c_str());
}

// A short untimed run that creates the thread pool and every lazily
// allocated scratch buffer the timed runs would otherwise pay for.
void WarmUp(const Workload& w) {
  Workload warm = w;
  warm.trainer.max_steps = std::min<size_t>(warm.trainer.max_steps, 20);
  warm.trainer.eval_every_steps = warm.trainer.max_steps;
  warm.trainer.accuracy_target = 1.1;
  auto prepared = Prepare(warm);
  FEDRA_CHECK_OK(prepared.status());
  FEDRA_CHECK_OK(prepared->trainer->Run(prepared->policy.get()).status());
}

// Outcome bookkeeping shared by both modes.
struct Outcomes {
  int attempted = 0;
  int failed = 0;
  bool deterministic = true;
  bool have_reference = false;
  fedra::TrainResult reference;

  void Add(const fedra::StatusOr<fedra::TrainResult>& result) {
    ++attempted;
    if (!result.ok()) {
      ++failed;
      std::printf("run %d failed: %s\n", attempted,
                  result.status().ToString().c_str());
      return;
    }
    if (!result->reached_target) {
      ++failed;
      std::printf("run %d missed the target (final accuracy %.4f)\n",
                  attempted, result->final_test_accuracy);
    }
    if (!have_reference) {
      reference = *result;
      have_reference = true;
    } else if (!SameOutcome(reference, *result)) {
      deterministic = false;
      std::printf("run %d differs from run 1\n", attempted);
    }
  }

  bool correct() const {
    return failed == 0 && deterministic && have_reference &&
           reference.bytes_to_target > 0 && reference.steps_to_target > 0;
  }

  void Print() const {
    std::printf(
        "outcome runs_attempted %d runs_failed %d deterministic %s "
        "reached %s steps_to_target %zu syncs_to_target %llu "
        "bytes_to_target %llu final_test_accuracy %.4f\n",
        attempted, failed, deterministic ? "yes" : "no",
        reference.reached_target ? "yes" : "no", reference.steps_to_target,
        static_cast<unsigned long long>(reference.syncs_to_target),
        static_cast<unsigned long long>(reference.bytes_to_target),
        reference.final_test_accuracy);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Outcomes& outcomes, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcomes.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcomes.attempted);
  json += ", \"failed\": " + std::to_string(outcomes.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct TimedRun {
  std::vector<double> setup_s;
  double train_s = 0.0;
  std::vector<RoundSpan> spans;
  ModelSnapshot snapshot;
};

// One set-up, its wall time appended to `times`.
Prepared TimedPrepare(const Workload& w, std::vector<double>* times) {
  const Clock::time_point t0 = Clock::now();
  auto prepared = Prepare(w);
  times->push_back(SecondsSince(t0));
  FEDRA_CHECK_OK(prepared.status());
  return std::move(prepared).value();
}

// `setups` timed set-ups, then one timed Run() on the last, optionally
// through the RoundTimer (which then also snapshots the cohort at
// `snapshot_step`, when nonzero).
TimedRun RunOnce(const Workload& w, bool timed_rounds, Outcomes* outcomes,
                 int setups = 1, size_t snapshot_step = 0) {
  TimedRun run;
  for (int i = 1; i < setups; ++i) {
    TimedPrepare(w, &run.setup_s);
  }
  Prepared prepared = TimedPrepare(w, &run.setup_s);
  RoundTimer timer(prepared.policy.get(), snapshot_step);
  fedra::SyncPolicy* policy =
      timed_rounds ? static_cast<fedra::SyncPolicy*>(&timer)
                   : prepared.policy.get();
  const Clock::time_point t1 = Clock::now();
  fedra::StatusOr<fedra::TrainResult> result =
      prepared.trainer->Run(policy);
  run.train_s = SecondsSince(t1);
  outcomes->Add(result);
  run.spans = timer.spans();
  run.snapshot = timer.snapshot();
  return run;
}

int EndToEnd(const Workload& w, double seconds) {
  Outcomes outcomes;
  std::vector<double> setup;
  std::vector<double> train;
  std::vector<double> round_ms;
  double peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  while (outcomes.attempted < 2 ||
         (SecondsSince(start) < seconds && outcomes.attempted < kMaxRuns)) {
    TimedRun run =
        RunOnce(w, /*timed_rounds=*/true, &outcomes, kSetupsPerRun);
    if (outcomes.attempted == 1) {
      // The footprint of one set-up + Run(): later runs only add allocator
      // fragmentation, which grows with how many runs fit in the window.
      peak_rss_mb = PeakRssMiB();
    }
    setup.insert(setup.end(), run.setup_s.begin(), run.setup_s.end());
    train.push_back(run.train_s);
    for (const RoundSample& r : ClassifyRounds(run.spans, w.trainer)) {
      round_ms.push_back(r.ms);
    }
  }
  outcomes.Print();
  std::printf("samples runs %zu rounds %zu setups %zu\n", train.size(),
              round_ms.size(), setup.size());
  std::printf("train_s per run:");
  for (double t : train) {
    std::printf(" %.4f", t);
  }
  std::printf("\nsetup_s per set-up:");
  for (double t : setup) {
    std::printf(" %.4f", t);
  }
  std::printf("\n");
  const fedra::TrainResult& ref = outcomes.reference;
  PrintResult(
      outcomes,
      {{"train_s", Median(train), "s"},
       {"round_ms_p50", Quantile(round_ms, 0.5), "ms"},
       {"round_ms_p90", Quantile(round_ms, 0.9), "ms"},
       {"setup_s", Median(setup), "s"},
       {"peak_rss_mb", peak_rss_mb, "MB"},
       {"bytes_to_target_mb",
        static_cast<double>(ref.bytes_to_target) / kMiB, "MB"},
       {"steps_to_target", static_cast<double>(ref.steps_to_target),
        "steps"},
       {"test_accuracy", ref.final_test_accuracy, "ratio"}});
  return 0;
}

void WriteSpans(const std::string& path, const std::vector<RoundSpan>& spans,
                const std::vector<RoundSample>& rounds) {
  std::ofstream out(path);
  if (!out) {
    std::printf("cannot write trace %s\n", path.c_str());
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().enter_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const RoundSpan& s = spans[i];
    out << "{\"span\": \"policy.maybe_sync\", \"step\": " << s.step
        << ", \"start_ns\": " << s.enter_ns - origin
        << ", \"end_ns\": " << s.exit_ns - origin
        << ", \"synced\": " << (s.synced ? "true" : "false")
        << ", \"participants\": " << s.participants;
    if (i > 0 && i - 1 < rounds.size()) {
      out << ", \"round_kind\": \"" << RoundKindName(rounds[i - 1].kind)
          << "\", \"round_ms\": " << rounds[i - 1].ms;
    }
    out << "}\n";
  }
}

int Traced(const Workload& w, double seconds, const std::string& trace_dir) {
  Outcomes outcomes;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<RoundSpan> spans;  // the last traced run's
  ModelSnapshot snapshot;
  // The replay's budget comes out of the window, so a traced invocation
  // takes about as long as an untraced one.
  const double replay_budget = std::clamp(0.25 * seconds, 2.0, 8.0);
  const double run_seconds = std::max(0.0, seconds - replay_budget);
  const Clock::time_point start = Clock::now();
  while (outcomes.attempted < 2 ||
         (SecondsSince(start) < run_seconds &&
          outcomes.attempted < kMaxRuns)) {
    TimedRun plain = RunOnce(w, /*timed_rounds=*/false, &outcomes);
    untraced.push_back(plain.train_s);
    // Snapshot the cohort halfway to the target, as the policy sees it.
    const size_t mid = std::max<size_t>(
        1, outcomes.reference.steps_to_target / 2);
    TimedRun timed = RunOnce(w, /*timed_rounds=*/true, &outcomes, 1, mid);
    traced.push_back(timed.train_s);
    spans = std::move(timed.spans);
    snapshot = std::move(timed.snapshot);
  }
  outcomes.Print();
  const fedra::TrainResult& ref = outcomes.reference;
  const std::vector<RoundSample> rounds = ClassifyRounds(spans, w.trainer);
  const std::string path = trace_dir + "/" + w.name + "-seed" +
                           std::to_string(w.seed) + ".jsonl";
  WriteSpans(path, spans, rounds);
  std::printf("trace %s (%zu spans)\n", path.c_str(), spans.size());

  // Counts the wrapper saw, plus the per-round work the policy documents.
  const bool fda = UsesMonitor(w);
  LayerCounts counts;
  std::vector<double> call_us;
  std::vector<double> sync_call_us;
  double policy_s = 0.0;
  for (const RoundSpan& s : spans) {
    const double us = static_cast<double>(s.exit_ns - s.enter_ns) * 1e-3;
    policy_s += us * 1e-6;
    (s.synced ? sync_call_us : call_us).push_back(us);
    counts.worker_steps += static_cast<uint64_t>(s.participants);
    ++counts.policy_calls;
    if (s.synced) {
      ++counts.model_syncs;
      if (w.trainer.sync_compression.enabled()) {
        counts.compressed_deltas += static_cast<uint64_t>(s.participants);
      }
    }
    if (fda) {
      counts.monitored_states += static_cast<uint64_t>(s.participants);
    }
  }
  counts.check_ins = ref.comm.check_in_syncs;
  counts.eval_points = ref.history.size();
  std::vector<double> participants;
  for (const RoundSpan& s : spans) {
    participants.push_back(s.participants);
  }
  counts.participants = static_cast<int>(Median(participants));

  std::vector<double> plain_ms;
  std::vector<double> rotation_ms;
  std::map<RoundKind, size_t> kinds;
  for (const RoundSample& r : rounds) {
    ++kinds[r.kind];
    if (r.kind == RoundKind::kPlain) {
      plain_ms.push_back(r.ms);
    } else if (r.kind == RoundKind::kRotation) {
      rotation_ms.push_back(r.ms);
    }
  }
  std::printf("rounds plain %zu sync %zu rotation %zu eval %zu\n",
              kinds[RoundKind::kPlain], kinds[RoundKind::kSync],
              kinds[RoundKind::kRotation], kinds[RoundKind::kEval]);

  const double traced_s = Median(traced);
  const std::vector<LayerTime> layers =
      ReplayLayers(w, counts, snapshot, replay_budget);
  std::vector<Metric> metrics;
  double coverage = 0.0;
  for (const LayerTime& layer : layers) {
    metrics.push_back({layer.name, layer.per_call, layer.unit});
    if (!layer.in_coverage) {
      continue;
    }
    const double seconds_total = layer.per_call *
                                 (layer.unit == "ms" ? 1e-3 : 1e-6) *
                                 static_cast<double>(layer.calls);
    const double share = seconds_total / traced_s;
    coverage += share;
    metrics.push_back({layer.name + ".calls",
                       static_cast<double>(layer.calls), "count"});
    metrics.push_back({layer.name + ".share", share, "ratio"});
  }
  const double rotation_extra =
      rotation_ms.empty() || plain_ms.empty()
          ? 0.0
          : Median(rotation_ms) - Median(plain_ms);
  const double syncs = static_cast<double>(counts.model_syncs);
  const double calls = static_cast<double>(counts.policy_calls);
  metrics.push_back({"core.rotation_round_ms", rotation_extra, "ms"});
  metrics.push_back({"policy.call_us", Median(call_us), "us"});
  metrics.push_back({"policy.sync_call_us", Median(sync_call_us), "us"});
  metrics.push_back({"policy.share", policy_s / traced_s, "ratio"});
  metrics.push_back({"policy.calls", calls, "count"});
  metrics.push_back({"policy.syncs", syncs, "count"});
  metrics.push_back(
      {"policy.sync_ratio", calls > 0 ? syncs / calls : 0.0, "ratio"});
  metrics.push_back({"comm.allreduce_calls",
                     static_cast<double>(ref.comm.allreduce_calls), "count"});
  metrics.push_back({"comm.bytes_local_state",
                     static_cast<double>(ref.comm.bytes_local_state),
                     "bytes"});
  metrics.push_back({"comm.bytes_model_sync",
                     static_cast<double>(ref.comm.bytes_model_sync),
                     "bytes"});
  metrics.push_back({"comm.check_in_syncs",
                     static_cast<double>(ref.comm.check_in_syncs), "count"});
  metrics.push_back(
      {"comm.retries", static_cast<double>(ref.comm.retries), "count"});
  metrics.push_back({"comm.dropped_messages",
                     static_cast<double>(ref.comm.dropped_messages),
                     "count"});
  metrics.push_back(
      {"eval.points", static_cast<double>(ref.history.size()), "count"});
  metrics.push_back({"trace.train_s", traced_s, "s"});
  metrics.push_back({"trace.coverage", coverage, "ratio"});
  metrics.push_back(
      {"trace.overhead", traced_s / Median(untraced) - 1.0, "ratio"});
  std::printf("samples runs %zu traced %zu untraced %zu\n",
              traced.size() + untraced.size(), traced.size(),
              untraced.size());
  PrintResult(outcomes, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace 0|1] [--trace-dir <dir>]\n");
    return 2;
  }
  const uint64_t seed =
      args.has_seed ? args.seed : DefaultSeed(args.workload);
  auto workload = MakeWorkload(args.workload, seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  // Pin the pool before its lazy creation: the workload's thread count,
  // never above the host's cores.
  const long cores = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const long threads = std::min<long>(workload->threads, cores);
  setenv("FEDRA_NUM_THREADS", std::to_string(threads).c_str(), 1);
  PrintStamp(*workload);
  WarmUp(*workload);
  return args.trace == 1 ? Traced(*workload, args.seconds, args.trace_dir)
                         : EndToEnd(*workload, args.seconds);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
