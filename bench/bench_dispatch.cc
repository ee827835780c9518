// Cost-based hybrid CPU/GPU dispatch: the server prices every admitted run
// on BOTH backends from plan metadata alone (PlanWorkProfile ->
// CostEstimate, no execution) and sends it to the cheaper one. CPU-dispatched
// runs occupy simulated CPU lanes — zero device slots — and overlap GPU
// device time on the scheduler's clock, so a mixed workload's selective tail
// drains beside the GPU-bound heavies instead of queuing behind them.
//
// The workload interleaves the two regimes the cost model separates:
//   - HEAVY sequence scans (high tokens/doc): the CPU driver walks the full
//     expanded token stream, the GPU stays in the compressed domain -> GPU.
//   - CHEAP corpus passes — word counts and SELECTIVE Bloom-pruned keyword
//     probes — whose per-rule work is so small that the GPU's fixed
//     dispatch floor (launch rounds + alloc per document) dominates -> CPU.
//
// The device budget is sized to the largest GPU footprint (the sequence
// scan), so in all-GPU mode nothing co-resides with a resident heavy: the
// cheap tail serializes into waves between heavies, which is precisely the
// queue hybrid dispatch drains on CPU lanes instead.
//
// Three servers replay IDENTICAL submissions: forced all-GPU, forced
// all-CPU, and auto (hybrid). Hard gates:
//   1. Hybrid makespan strictly below BOTH pure modes — the dispatch gate.
//   2. Every ticket's merged AND per-document results bit-identical across
//      the three modes — the backend moves the schedule, never the answer.
//   3. No device budget ever exceeded, CPU lanes saturated under hybrid,
//      zero mid-run pool growths anywhere — the admission invariants.
//   4. Each document is prepared once: building the corpus builds two DAG
//      views per document (the compressor's Bloom pass and the corpus'
//      prepared record), and serving all four servers builds none.
//
// On success the numbers are emitted to BENCH_dispatch.json for CI to
// archive next to the log.

#include <algorithm>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "bench_util.h"

using namespace gtadoc;

namespace {

std::string JsonNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string JsonNum(uint64_t v) { return std::to_string(v); }

const char* BackendName(CorpusServer::RunBackend b) {
  return b == CorpusServer::RunBackend::kCpu ? "cpu" : "gpu";
}

struct ModeOutcome {
  std::string name;
  double makespan = 0;
  uint64_t gpu_runs = 0;
  uint64_t cpu_runs = 0;
  uint64_t peak_slots = 0;
  uint32_t peak_lanes = 0;
  uint64_t growths = 0;
  std::vector<CorpusServer::ServedRun> served;  ///< by submission index
};

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  const gpu::Platform platform = gpu::PascalPlatform();
  constexpr uint32_t kLanes = 2;

  // Heavy enough that sequence scans stay GPU-bound even under smoke
  // scaling: below ~6k tokens/doc the CPU's expanded-stream walk undercuts
  // the GPU's fixed floor and the heavy/selective contrast collapses.
  const uint64_t tokens_per_doc = std::max<uint64_t>(
      12000, static_cast<uint64_t>(40000.0 * scale));

  std::printf("HYBRID DISPATCH: %s + %s (%u CPU lanes)\n",
              platform.gpu.name.c_str(), platform.cpu.name.c_str(), kLanes);
  bench::PrintRule('=');

  MarkerCorpusSpec mspec;
  mspec.num_docs = 10;
  mspec.relevant = 3;
  mspec.num_markers = 2;
  mspec.files_per_doc = 2;
  mspec.tokens_per_doc = tokens_per_doc;
  mspec.seed = 29;
  const uint64_t builds_before_load = DagView::builds();
  auto built = BuildMarkerCorpus(mspec);
  if (!built.ok()) {
    std::fprintf(stderr, "GATE FAILED: marker corpus: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  MarkerCorpus mc = std::move(*built);
  const uint64_t load_builds = DagView::builds() - builds_before_load;
  const uint64_t builds_before_serving = DagView::builds();

  // The mixed workload: each round submits one GPU-bound heavy followed by
  // a CPU-won cheap tail (two word counts + one Bloom-pruned keyword
  // probe), so a pure-GPU server alternates heavies with cheap-tail waves.
  std::vector<CorpusServer::RunRequest> workload;
  for (int round = 0; round < 3; ++round) {
    CorpusServer::RunRequest heavy;
    heavy.task = Task::kSequenceCount;
    workload.push_back(heavy);
    CorpusServer::RunRequest words;
    words.task = Task::kWordCount;
    workload.push_back(words);
    workload.push_back(words);
    CorpusServer::RunRequest selective;
    selective.task = Task::kKeywordSearch;
    selective.query_words = {mc.markers[round % mc.markers.size()]};
    workload.push_back(selective);
  }

  CorpusServer::Options base;
  base.engine.gpu = platform.gpu;
  base.cpu = platform.cpu;
  base.scheduler.cpu_lanes = kLanes;

  // Size the device budget to the workload's largest GPU footprint: exactly
  // one heavy run resident at a time, so pure-GPU serving serializes the
  // heavies — the queue hybrid dispatch drains around.
  uint64_t max_footprint = 0;
  {
    auto probe = CorpusServer::Create(&mc.corpus, base);
    if (!probe.ok()) {
      std::fprintf(stderr, "GATE FAILED: probe server: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    auto tenant = (*probe)->OpenTenant({});
    CorpusServer::RunOptions force_gpu;
    force_gpu.backend = CorpusServer::RunBackend::kGpu;
    for (const CorpusServer::RunRequest& request : workload) {
      auto submitted = tenant->Submit(request, force_gpu);
      if (!submitted.ok() || !submitted->admitted()) {
        std::fprintf(stderr, "GATE FAILED: probe submit\n");
        return 1;
      }
      max_footprint =
          std::max(max_footprint, submitted->admission->footprint_slots);
    }
    if (!(*probe)->ServeUntilIdle().ok()) return 1;
  }
  base.device_slot_budget = max_footprint;

  const CorpusServer::RunBackend kModes[] = {
      CorpusServer::RunBackend::kGpu,
      CorpusServer::RunBackend::kCpu,
      CorpusServer::RunBackend::kAuto,
  };
  const char* kModeNames[] = {"all-gpu", "all-cpu", "hybrid"};

  std::vector<ModeOutcome> outcomes;
  for (size_t m = 0; m < 3; ++m) {
    auto server = CorpusServer::Create(&mc.corpus, base);
    if (!server.ok()) {
      std::fprintf(stderr, "GATE FAILED: %s server: %s\n", kModeNames[m],
                   server.status().ToString().c_str());
      return 1;
    }
    auto tenant = (*server)->OpenTenant({});
    CorpusServer::RunOptions run_options;
    run_options.backend = kModes[m];
    std::vector<CorpusServer::RunTicket> tickets;
    for (const CorpusServer::RunRequest& request : workload) {
      auto submitted = tenant->Submit(request, run_options);
      if (!submitted.ok() || !submitted->admitted()) {
        std::fprintf(stderr, "GATE FAILED: %s submit rejected\n",
                     kModeNames[m]);
        return 1;
      }
      tickets.push_back(*submitted->ticket);
    }
    ModeOutcome outcome;
    outcome.name = kModeNames[m];
    for (CorpusServer::RunTicket& ticket : tickets) {
      auto run = ticket.Await();
      if (!run.ok()) {
        std::fprintf(stderr, "GATE FAILED: %s serve: %s\n", kModeNames[m],
                     run.status().ToString().c_str());
        return 1;
      }
      outcome.served.push_back(std::move(*run));
    }
    // Makespan from the tickets themselves: Stats::makespan_seconds is the
    // scheduler clock at the last sync, which trails the final completion
    // when the queue empties before it is popped.
    for (const CorpusServer::ServedRun& run : outcome.served) {
      outcome.makespan = std::max(outcome.makespan, run.completion_seconds);
    }
    const CorpusServer::Stats& stats = (*server)->stats();
    outcome.gpu_runs = stats.gpu_backend.runs;
    outcome.cpu_runs = stats.cpu_backend.runs;
    outcome.peak_slots = stats.peak_admitted_slots;
    outcome.peak_lanes = stats.peak_cpu_lanes_in_use;
    outcome.growths = stats.mid_run_pool_growths;
    outcomes.push_back(std::move(outcome));
  }

  const uint64_t serving_builds = DagView::builds() - builds_before_serving;

  std::printf("%-10s %14s %10s %10s %16s %12s\n", "Mode", "makespan (ms)",
              "gpu runs", "cpu runs", "peak slots", "peak lanes");
  bench::PrintRule();
  for (const ModeOutcome& o : outcomes) {
    std::printf("%-10s %14.3f %10llu %10llu %16llu %12u\n", o.name.c_str(),
                o.makespan * 1e3,
                static_cast<unsigned long long>(o.gpu_runs),
                static_cast<unsigned long long>(o.cpu_runs),
                static_cast<unsigned long long>(o.peak_slots), o.peak_lanes);
  }
  bench::PrintRule();
  std::printf("Per-run dispatch (hybrid): ");
  for (const CorpusServer::ServedRun& run : outcomes[2].served) {
    std::printf("%s ", BackendName(run.admission.backend));
  }
  std::printf("\n");
  std::printf("DAG view builds: %llu while building %u documents, %llu while "
              "serving\n",
              static_cast<unsigned long long>(load_builds), mspec.num_docs,
              static_cast<unsigned long long>(serving_builds));

  const ModeOutcome& all_gpu = outcomes[0];
  const ModeOutcome& all_cpu = outcomes[1];
  const ModeOutcome& hybrid = outcomes[2];

  // Gate 1: the dispatch gate — hybrid strictly beats BOTH pure modes.
  if (!(hybrid.makespan < all_gpu.makespan &&
        hybrid.makespan < all_cpu.makespan)) {
    std::fprintf(stderr,
                 "GATE FAILED: hybrid makespan %.6f s not strictly below "
                 "all-gpu %.6f s and all-cpu %.6f s\n",
                 hybrid.makespan, all_gpu.makespan, all_cpu.makespan);
    return 1;
  }
  // The hybrid actually split the workload (otherwise the gate above is a
  // scheduling accident, not a dispatch win).
  if (hybrid.gpu_runs == 0 || hybrid.cpu_runs == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: hybrid never split (gpu=%llu cpu=%llu)\n",
                 static_cast<unsigned long long>(hybrid.gpu_runs),
                 static_cast<unsigned long long>(hybrid.cpu_runs));
    return 1;
  }

  // Gate 2: per-ticket bit-identity across all three modes.
  for (size_t r = 0; r < workload.size(); ++r) {
    for (size_t m = 1; m < outcomes.size(); ++m) {
      const BatchEngine::BatchRun& a = outcomes[0].served[r].batch;
      const BatchEngine::BatchRun& b = outcomes[m].served[r].batch;
      if (!a.merged.SameAs(b.merged) ||
          a.documents.size() != b.documents.size()) {
        std::fprintf(stderr,
                     "GATE FAILED: run %zu merged result diverged in %s\n", r,
                     outcomes[m].name.c_str());
        return 1;
      }
      for (size_t d = 0; d < a.documents.size(); ++d) {
        if (!a.documents[d].result.SameAs(b.documents[d].result)) {
          std::fprintf(
              stderr,
              "GATE FAILED: run %zu document %zu diverged in %s\n", r, d,
              outcomes[m].name.c_str());
          return 1;
        }
      }
    }
  }

  // Gate 3: admission invariants — budgets respected, lanes saturated under
  // hybrid, no mid-run growth anywhere.
  for (const ModeOutcome& o : outcomes) {
    if (o.peak_slots > base.device_slot_budget) {
      std::fprintf(stderr,
                   "GATE FAILED: %s peak %llu slots over budget %llu\n",
                   o.name.c_str(),
                   static_cast<unsigned long long>(o.peak_slots),
                   static_cast<unsigned long long>(base.device_slot_budget));
      return 1;
    }
    if (o.peak_lanes > kLanes) {
      std::fprintf(stderr, "GATE FAILED: %s peak lanes %u over %u\n",
                   o.name.c_str(), o.peak_lanes, kLanes);
      return 1;
    }
    if (o.growths != 0) {
      std::fprintf(stderr, "GATE FAILED: %s charged %llu mid-run growths\n",
                   o.name.c_str(),
                   static_cast<unsigned long long>(o.growths));
      return 1;
    }
  }
  if (hybrid.peak_lanes != kLanes) {
    std::fprintf(stderr,
                 "GATE FAILED: hybrid never saturated the lanes (peak %u of "
                 "%u)\n",
                 hybrid.peak_lanes, kLanes);
    return 1;
  }

  // Gate 4: documents are prepared once, at load; serving rebuilds nothing.
  if (load_builds != 2ull * mspec.num_docs || serving_builds != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: DAG view builds %llu at load (want %llu) and "
                 "%llu while serving (want 0)\n",
                 static_cast<unsigned long long>(load_builds),
                 2ull * mspec.num_docs,
                 static_cast<unsigned long long>(serving_builds));
    return 1;
  }

  bench::PrintRule('=');
  std::printf(
      "Gates passed: hybrid %.3f ms < all-gpu %.3f ms (%.2fx) and < all-cpu "
      "%.3f ms (%.2fx); all %zu tickets bit-identical across modes; budget "
      "respected, lanes saturated, zero mid-run growths; zero DAG view "
      "builds while serving.\n",
      hybrid.makespan * 1e3, all_gpu.makespan * 1e3,
      all_gpu.makespan / hybrid.makespan, all_cpu.makespan * 1e3,
      all_cpu.makespan / hybrid.makespan, workload.size());

  std::string json = "{\n";
  json += "  \"bench\": \"dispatch\",\n";
  json += "  \"gpu\": \"" + platform.gpu.name + "\",\n";
  json += "  \"cpu\": \"" + platform.cpu.name + "\",\n";
  json += "  \"scale\": " + JsonNum(scale) + ",\n";
  json += "  \"tokens_per_doc\": " + JsonNum(uint64_t{tokens_per_doc}) + ",\n";
  json += "  \"cpu_lanes\": " + JsonNum(uint64_t{kLanes}) + ",\n";
  json +=
      "  \"device_slot_budget\": " + JsonNum(base.device_slot_budget) + ",\n";
  json += "  \"runs\": " + JsonNum(uint64_t{workload.size()}) + ",\n";
  json += "  \"dag_builds_load\": " + JsonNum(load_builds) + ",\n";
  json += "  \"dag_builds_serving\": " + JsonNum(serving_builds) + ",\n";
  json += "  \"modes\": [\n";
  for (size_t m = 0; m < outcomes.size(); ++m) {
    const ModeOutcome& o = outcomes[m];
    json += "    {\"mode\": \"" + o.name + "\", ";
    json += "\"makespan_seconds\": " + JsonNum(o.makespan) + ", ";
    json += "\"gpu_runs\": " + JsonNum(o.gpu_runs) + ", ";
    json += "\"cpu_runs\": " + JsonNum(o.cpu_runs) + ", ";
    json += "\"peak_admitted_slots\": " + JsonNum(o.peak_slots) + ", ";
    json += "\"peak_cpu_lanes\": " + JsonNum(uint64_t{o.peak_lanes}) + "}";
    json += m + 1 < outcomes.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"hybrid_vs_gpu_speedup\": " +
          JsonNum(all_gpu.makespan / hybrid.makespan) + ",\n";
  json += "  \"hybrid_vs_cpu_speedup\": " +
          JsonNum(all_cpu.makespan / hybrid.makespan) + "\n";
  json += "}\n";

  const char* json_path = "BENCH_dispatch.json";
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "GATE FAILED: could not write %s\n", json_path);
    return 1;
  }
  return 0;
}
