// servebench: the serving benchmark of this repository.
//
// Drives CorpusServer through its public session API (OpenTenant ->
// TenantHandle::Submit -> RunTicket::Await) on one named workload and checks
// every served answer against the uncompressed reference. It reports every
// end-to-end metric on two clocks: the host wall clock (what the program
// costs to run) and the simulated clock of the modelled GPU/CPU platform.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-file <path>]
//
// Load model: a closed loop with one client. Each workload repeats a fixed
// request mix as a burst — Submit the whole burst, then Await every ticket
// in order. (An open loop cannot be expressed: the scheduler stamps submit
// times from its own simulated clock.)
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice (untraced, then traced), reports the per-layer ledger of the traced
// run, replays every document once through the layers' public calls for
// per-layer unit costs, and writes the spans as Chrome trace-event JSON.
//
// Simulated metrics, counters and the sim_fingerprint are computed over a
// fixed window of the first `Workload::window` bursts (ingest: requests), so
// they are identical for every run of one seed and binary. Host metrics
// cover every burst after the first (warm-up) until --seconds of measured
// host wall time and at least kMinHostSamples requests have been served.
// The process runs on one CPU, and every end-to-end host figure is given at
// the reference speed of HostScale (ledger.h), sampled between bursts, so
// the drifting speed of a shared host cancels out.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A served answer that differs from its reference exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analytics/server.h"
#include "format/dag.h"
#include "gpu/platform.h"
#include "gtadoc/engine.h"
#include "ledger.h"
#include "tadoc/cpu_engine.h"
#include "workloads.h"

namespace servebench {
namespace {

using gtadoc::CorpusServer;
using gtadoc::Status;

/// Percentiles need ten samples beyond them: p95 needs 200.
constexpr size_t kMinHostSamples = 200;
/// Set-ups timed per run for setup_s (burst workloads; ingest sets up a
/// document on every request).
constexpr int kSetupReps = 9;
/// Hard cap on the measured phases of one run (split between the two phases
/// of a trace run), so a run ends inside 180 seconds even on a slow machine.
constexpr double kPhaseCapSeconds = 140;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Simulated-clock figures and counters of the fixed ledger window.
struct Window {
  uint64_t requests = 0;
  double sim_makespan = 0;
  std::vector<double> sim_latency;
  std::vector<double> queue_wait;
  double admission_sim = 0;
  double plan_sim = 0;
  double upload_sim = 0;
  double overlap_saved_sim = 0;
  double gather_sim = 0;
  double batch_host = 0;
  double submit_host = 0;
  double await_host = 0;
  double est_err_gpu = 0;
  double est_err_cpu = 0;
  double gpu_doc_host = 0;
  double gpu_init_sim = 0;
  double gpu_traversal_sim = 0;
  uint64_t gpu_init_ops = 0;
  uint64_t gpu_traversal_ops = 0;
  double cpu_doc_host = 0;
  double cpu_sim = 0;
  uint64_t cpu_ops = 0;
  uint64_t gpu_device_runs = 0;
  uint64_t devices_touched = 0;
  // CorpusServer::Stats at the window's end (ingest: summed over servers).
  uint64_t rejected = 0;
  uint64_t docs_skipped = 0;
  uint64_t docs_executed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t gpu_runs = 0;
  uint64_t cpu_runs = 0;
  uint64_t backfills = 0;
  uint64_t mid_run_growths = 0;
  uint64_t peak_slots = 0;
  uint32_t peak_lanes = 0;
  double peak_slot_frac = 0;
  double busy_imbalance = 0;
};

struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  double cap_seconds = kPhaseCapSeconds;  ///< the phase stops after this
  double wall_seconds = 0;  ///< measured host wall time (warm-up excluded)
  double host_seconds = 0;  ///< the same at HostScale's reference speed
  uint64_t host_requests = 0;
  std::vector<double> host_latency;  ///< at the reference speed
  Window window;
  uint64_t window_filled = 0;  ///< bursts (ingest: requests) in the window
  std::vector<SetupTimes> setups;  ///< ingest: every request's set-up
  std::vector<double> setup_seconds;  ///< ingest: each at the reference speed
  std::vector<double> gauge_samples;  ///< HostScale samples of the phase
};

/// Folds one served run into the window ledger.
void AddServed(const CorpusServer::ServedRun& run, Window* w) {
  ++w->requests;
  const double duration = run.completion_seconds - run.start_seconds;
  w->sim_latency.push_back(duration + run.queue_wait_seconds);
  w->queue_wait.push_back(run.queue_wait_seconds);
  w->admission_sim += run.admission.admission_seconds;
  const gtadoc::RunTiming& t = run.batch.timing;
  w->plan_sim += t.plan_seconds;
  w->upload_sim += t.upload_seconds;
  w->overlap_saved_sim += t.overlap_saved_seconds;
  w->gather_sim += run.gather_seconds;
  w->batch_host += t.wall_seconds;
  const bool cpu = run.admission.backend == CorpusServer::RunBackend::kCpu;
  const double estimate = run.admission.backend_estimate_seconds;
  if (estimate > 0 && duration > 0) {
    const double err = std::fabs(std::log(estimate / duration));
    double* max_err = cpu ? &w->est_err_cpu : &w->est_err_gpu;
    *max_err = std::max(*max_err, err);
  }
  for (const auto& doc : run.batch.documents) {
    if (doc.skipped) continue;
    if (cpu) {
      w->cpu_doc_host += doc.timing.wall_seconds;
      w->cpu_sim += doc.timing.init_seconds + doc.timing.traversal_seconds;
      w->cpu_ops += doc.timing.init_ops + doc.timing.traversal_ops;
    } else {
      w->gpu_doc_host += doc.timing.wall_seconds;
      w->gpu_init_sim += doc.timing.init_seconds;
      w->gpu_traversal_sim += doc.timing.traversal_seconds;
      w->gpu_init_ops += doc.timing.init_ops;
      w->gpu_traversal_ops += doc.timing.traversal_ops;
    }
  }
  if (!cpu && run.admission.documents_to_execute > 0) {
    ++w->gpu_device_runs;
    if (run.device_durations.empty()) {
      ++w->devices_touched;
    } else {
      for (double d : run.device_durations) w->devices_touched += d > 0;
    }
  }
}

/// Folds a server's counters into the window (ingest sums many servers).
void AddStats(const CorpusServer& server, Window* w) {
  const CorpusServer::Stats& s = server.stats();
  w->rejected += s.rejected;
  w->docs_skipped += s.documents_skipped;
  w->docs_executed += s.documents_executed;
  w->cache_hits += s.plan_cache.hits;
  w->cache_misses += s.plan_cache.misses;
  w->cache_evictions += s.plan_cache.evictions;
  w->gpu_runs += s.gpu_backend.runs;
  w->cpu_runs += s.cpu_backend.runs;
  w->backfills += s.backfills;
  w->mid_run_growths += s.mid_run_pool_growths;
  w->peak_slots = std::max(w->peak_slots, s.peak_admitted_slots);
  w->peak_lanes = std::max(w->peak_lanes, s.peak_cpu_lanes_in_use);
  const uint64_t budget = server.options().device_slot_budget;
  double max_busy = 0;
  double sum_busy = 0;
  for (const auto& device : s.devices) {
    if (budget > 0) {
      w->peak_slot_frac =
          std::max(w->peak_slot_frac,
                   static_cast<double>(device.peak_admitted_slots) /
                       static_cast<double>(budget));
    }
    max_busy = std::max(max_busy, device.busy_seconds);
    sum_busy += device.busy_seconds;
  }
  if (sum_busy > 0) {
    w->busy_imbalance =
        std::max(w->busy_imbalance,
                 max_busy * static_cast<double>(s.devices.size()) / sum_busy);
  }
}

/// Checks one served answer against its reference digest.
bool Verify(CorpusServer::ServedRun* run, const std::string& reference,
            const std::string& context) {
  gtadoc::Canonicalize(&run->batch.merged);
  const std::string digest = run->batch.merged.Digest();
  if (digest == reference) return true;
  std::fprintf(stderr, "MISMATCH %s: served %s, reference %s\n",
               context.c_str(), digest.c_str(), reference.c_str());
  return false;
}

bool PhaseDone(const Phase& p, size_t window, double seconds,
               double phase_start) {
  if (HostNow() - phase_start > p.cap_seconds) return true;
  return p.window_filled >= window && p.wall_seconds >= seconds &&
         p.host_latency.size() >= kMinHostSamples;
}

/// Burst workloads: one server, bursts until the phase is done.
Status RunBursts(const Workload& w, CorpusServer* server, double seconds,
                 Tracer* tracer, Phase* p) {
  auto tenant = server->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  HostScale gauge;
  const double phase_start = HostNow();
  for (size_t b = 0; !PhaseDone(*p, w.window, seconds, phase_start); ++b) {
    const bool in_window = b < w.window;
    std::vector<double> latency;
    double paused = 0;  // the benchmark's own verification, not measured
    const double t0 = HostNow();
    {
      Tracer::Scope burst_span(tracer, "burst");
      std::vector<std::pair<size_t, CorpusServer::RunTicket>> tickets;
      double submit_host = 0;
      for (size_t slot = 0; slot < w.burst.size(); ++slot) {
        ++p->attempted;
        auto submitted =
            Timed(tracer, "server.TenantHandle::Submit", &submit_host,
                  [&] { return tenant->Submit(w.burst[slot]); });
        if (!submitted.ok() || !submitted->admitted()) {
          ++p->failed;
          continue;
        }
        tickets.push_back({slot, *submitted->ticket});
      }
      double await_host = 0;
      for (auto& [slot, ticket] : tickets) {
        auto served = Timed(tracer, "server.RunTicket::Await", &await_host,
                            [&] { return ticket.Await(); });
        const double done = HostNow() - t0 - paused;
        const double v0 = HostNow();
        if (!served.ok()) {
          ++p->failed;
        } else {
          latency.push_back(done);
          if (!Verify(&*served, w.reference[slot],
                      w.name + " burst " + std::to_string(b) + " slot " +
                          std::to_string(slot))) {
            ++p->mismatches;
          }
          if (in_window) {
            AddServed(*served, &p->window);
            p->window.sim_makespan = std::max(p->window.sim_makespan,
                                              served->completion_seconds);
          }
        }
        paused += HostNow() - v0;
      }
      if (in_window) {
        p->window.submit_host += submit_host;
        p->window.await_host += await_host;
      }
    }
    const double burst_wall = HostNow() - t0 - paused;
    const double scale = gauge.Next();
    if (in_window) {
      ++p->window_filled;
      if (p->window_filled == w.window) AddStats(*server, &p->window);
    }
    if (b == 0) continue;  // warm-up burst: simulated window only
    p->wall_seconds += burst_wall;
    p->host_seconds += burst_wall * scale;
    p->host_requests += latency.size();
    for (double t : latency) p->host_latency.push_back(t * scale);
  }
  p->gauge_samples = gauge.samples();
  return Status::OK();
}

/// ingest_first_query: every request sets up a one-document server from
/// token streams and answers one query on it.
Status RunIngest(const Workload& w, double seconds, Tracer* tracer,
                 Phase* p) {
  HostScale gauge;
  const double phase_start = HostNow();
  const size_t slots = w.burst.size();
  for (size_t i = 0; !PhaseDone(*p, w.window, seconds, phase_start); ++i) {
    const size_t doc = i % w.docs.size();
    const size_t slot = i % slots;
    const bool in_window = i < w.window;
    ++p->attempted;
    if (in_window) ++p->window_filled;
    SetupTimes setup;
    double submit_host = 0;
    double await_host = 0;
    gtadoc::Result<CorpusServer::ServedRun> served =
        Status::Internal("request not admitted");
    Serving serving;
    const double t0 = HostNow();
    {
      Tracer::Scope request_span(tracer, "request");
      auto built = SetUp({&w.docs[doc]}, w.num_words, w.options, tracer,
                         &setup);
      if (!built.ok()) return built.status();
      serving = std::move(*built);
      auto tenant = serving.server->OpenTenant({});
      if (!tenant.ok()) return tenant.status();
      auto submitted =
          Timed(tracer, "server.TenantHandle::Submit", &submit_host,
                [&] { return tenant->Submit(w.burst[slot]); });
      if (submitted.ok() && submitted->admitted()) {
        served = Timed(tracer, "server.RunTicket::Await", &await_host,
                       [&] { return submitted->ticket->Await(); });
      }
    }
    const double latency = HostNow() - t0;
    const double scale = gauge.Next();
    p->setups.push_back(setup);
    p->setup_seconds.push_back(setup.total * scale);
    if (!served.ok()) {
      ++p->failed;
      continue;
    }
    if (!Verify(&*served, w.reference[doc * slots + slot],
                w.name + " request " + std::to_string(i))) {
      ++p->mismatches;
    }
    if (in_window) {
      AddServed(*served, &p->window);
      p->window.sim_makespan += served->completion_seconds;
      p->window.submit_host += submit_host;
      p->window.await_host += await_host;
      AddStats(*serving.server, &p->window);
    }
    if (i == 0) continue;  // warm-up request
    p->wall_seconds += latency;
    p->host_seconds += latency * scale;
    ++p->host_requests;
    p->host_latency.push_back(latency * scale);
  }
  p->gauge_samples = gauge.samples();
  return Status::OK();
}

/// The simulated end-to-end figures of a window.
struct SimFigures {
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

SimFigures Sim(const Window& w) {
  SimFigures f;
  f.qps = w.sim_makespan > 0 ? static_cast<double>(w.requests) / w.sim_makespan
                             : 0;
  f.p50_ms = Percentile(w.sim_latency, 0.50) * 1e3;
  f.p95_ms = Percentile(w.sim_latency, 0.95) * 1e3;
  return f;
}

std::string FingerprintOf(const Window& w, double bytes_per_token) {
  const SimFigures sim = Sim(w);
  Fingerprint fp;
  fp.Add("sim_qps", sim.qps);
  fp.Add("sim_latency_p50_ms", sim.p50_ms);
  fp.Add("sim_latency_p95_ms", sim.p95_ms);
  fp.Add("container_bytes_per_token", bytes_per_token);
  fp.Add("requests", w.requests);
  fp.Add("admission_sim", w.admission_sim);
  fp.Add("plan_sim", w.plan_sim);
  fp.Add("upload_sim", w.upload_sim);
  fp.Add("overlap_saved_sim", w.overlap_saved_sim);
  fp.Add("gather_sim", w.gather_sim);
  fp.Add("gpu_init_sim", w.gpu_init_sim);
  fp.Add("gpu_traversal_sim", w.gpu_traversal_sim);
  fp.Add("gpu_init_ops", w.gpu_init_ops);
  fp.Add("gpu_traversal_ops", w.gpu_traversal_ops);
  fp.Add("cpu_sim", w.cpu_sim);
  fp.Add("cpu_ops", w.cpu_ops);
  fp.Add("docs_skipped", w.docs_skipped);
  fp.Add("docs_executed", w.docs_executed);
  fp.Add("cache_hits", w.cache_hits);
  fp.Add("cache_misses", w.cache_misses);
  fp.Add("cache_evictions", w.cache_evictions);
  fp.Add("gpu_runs", w.gpu_runs);
  fp.Add("cpu_runs", w.cpu_runs);
  fp.Add("backfills", w.backfills);
  fp.Add("rejected", w.rejected);
  fp.Add("peak_slots", w.peak_slots);
  return fp.Hex();
}

double HostQps(const Phase& p) {
  return p.host_seconds > 0
             ? static_cast<double>(p.host_requests) / p.host_seconds
             : 0;
}

/// Sizes the device budget from an unmetered probe of one burst: at least
/// the largest GPU footprint (nothing is rejected) and half the burst's
/// summed GPU footprint (runs queue and backfill).
Status SizeBudget(const gtadoc::PartitionedCorpus* corpus, Workload* w) {
  auto probe = CorpusServer::Create(corpus, w->options);
  if (!probe.ok()) return probe.status();
  auto tenant = (*probe)->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  uint64_t largest = 0;
  uint64_t sum = 0;
  for (const auto& request : w->burst) {
    auto submitted = tenant->Submit(request);
    if (!submitted.ok()) return submitted.status();
    if (!submitted->admitted()) return Status::Internal("probe rejected");
    if (submitted->admission->backend != CorpusServer::RunBackend::kGpu) {
      continue;
    }
    largest = std::max(largest, submitted->admission->footprint_slots);
    sum += submitted->admission->footprint_slots;
  }
  w->options.device_slot_budget = std::max(largest, sum / 2);
  return Status::OK();
}

/// Per-layer unit costs from one replay of every document through the
/// layers' public calls (document d runs the burst's request d mod size).
struct Replay {
  double dag_build_us = 0;
  double bloom_s = 0;  ///< ComputeRuleBlooms summed over the documents
  double bloom_mask_us = 0;
  double gtadoc_create_us = 0;
  double gtadoc_plan_us = 0;
  double gtadoc_run_us = 0;
  double tadoc_create_us = 0;
  double tadoc_run_us = 0;
};

Status RunReplay(const Workload& w, const gtadoc::PartitionedCorpus& corpus,
                 Tracer* tracer, Replay* r) {
  Tracer::Scope replay_span(tracer, "replay");
  const size_t n = corpus.partitions.size();
  double mask_s = 0;
  for (const auto& request : w.burst) {
    const gtadoc::QuerySpec query =
        gtadoc::ResolveQueryDefaults(request, w.options.engine);
    auto kernel = gtadoc::TaskRegistry::Get(request.task);
    if (!kernel.ok()) return kernel.status();
    Timed(tracer, "server.BloomExecuteMask", &mask_s, [&] {
      return gtadoc::BloomExecuteMask(corpus, **kernel,
                                      gtadoc::MakeTaskInput(query));
    });
  }
  r->bloom_mask_us = mask_s / static_cast<double>(w.burst.size()) * 1e6;

  double dag_s = 0, gt_create_s = 0, gt_plan_s = 0, gt_run_s = 0;
  double cpu_create_s = 0, cpu_run_s = 0;
  for (size_t d = 0; d < n; ++d) {
    const gtadoc::Grammar& g = corpus.partitions[d];
    const auto& request = w.burst[d % w.burst.size()];
    const gtadoc::QuerySpec query =
        gtadoc::ResolveQueryDefaults(request, w.options.engine);
    auto dag = Timed(tracer, "format.DagView::Build", &dag_s,
                     [&] { return gtadoc::DagView::Build(g); });
    if (!dag.ok()) return dag.status();
    gtadoc::Grammar copy = g;
    Status bloom = Timed(tracer, "format.ComputeRuleBlooms", &r->bloom_s,
                         [&] { return gtadoc::ComputeRuleBlooms(&copy); });
    if (!bloom.ok()) return bloom;

    gtadoc::GTadocEngine::Options gopt = w.options.engine;
    static_cast<gtadoc::QuerySpec&>(gopt) = query;
    auto engine = Timed(tracer, "gtadoc.GTadocEngine::Create", &gt_create_s,
                        [&] { return gtadoc::GTadocEngine::Create(&g, gopt); });
    if (!engine.ok()) return engine.status();
    auto plan = Timed(tracer, "gtadoc.GTadocEngine::PlanOnly", &gt_plan_s,
                      [&] { return (*engine)->PlanOnly(request.task); });
    if (!plan.ok()) return plan.status();
    auto run = Timed(tracer, "gtadoc.GTadocEngine::Run", &gt_run_s,
                     [&] { return (*engine)->Run(request.task); });
    if (!run.ok()) return run.status();

    gtadoc::CpuTadocOptions copt;
    static_cast<gtadoc::QuerySpec&>(copt) = query;
    copt.cpu = w.options.cpu;
    auto cpu = Timed(tracer, "tadoc.CpuTadocEngine::Create", &cpu_create_s,
                     [&] { return gtadoc::CpuTadocEngine::Create(&g, copt); });
    if (!cpu.ok()) return cpu.status();
    auto cpu_run = Timed(tracer, "tadoc.CpuTadocEngine::Run", &cpu_run_s,
                         [&] { return cpu->Run(request.task); });
    if (!cpu_run.ok()) return cpu_run.status();
    if (!cpu_run->result.SameAs(run->result)) {
      return Status::Internal("replay: CPU and GPU engines disagree on " +
                              std::string(gtadoc::TaskName(request.task)));
    }
  }
  const double per_doc = 1e6 / static_cast<double>(n);
  r->dag_build_us = dag_s * per_doc;
  r->gtadoc_create_us = gt_create_s * per_doc;
  r->gtadoc_plan_us = gt_plan_s * per_doc;
  r->gtadoc_run_us = gt_run_s * per_doc;
  r->tadoc_create_us = cpu_create_s * per_doc;
  r->tadoc_run_us = cpu_run_s * per_doc;
  return Status::OK();
}

/// One reported metric: name, value, unit and the clock it was read on.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  ///< host | sim | size | count
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  [%-5s] %-34s %16.6g %s\n", m.clock.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "servebench: %s\n",
                 made.status().ToString().c_str());
    return 2;
  }
  Workload w = std::move(*made);
  BuildReferences(&w);

  const gtadoc::gpu::Platform platform = gtadoc::gpu::PascalPlatform();
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "simulated platform: gpu::PascalPlatform() = %s + %s. Simulated "
      "figures come from an unvalidated cost model: there is no hardware "
      "reference, so no error figure is given.\n",
      platform.gpu.name.c_str(), platform.cpu.name.c_str());
  std::printf(
      "load: closed loop, 1 client; %s of %zu request(s), Submit all then "
      "Await in order; sim window = first %zu %s\n",
      w.ingest ? "each request ingests one new document and rotates over"
               : "bursts",
      w.burst.size(), w.window, w.ingest ? "requests" : "bursts");

  Tracer tracer(args.trace);
  Tracer untraced(false);

  // Set-up: token streams -> ready server, several times; median reported.
  // Ingest sets up a document on every request: its set-ups are those of
  // the measured phase.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_seconds;  // each at the reference speed
  std::vector<double> setup_gauge;
  Serving serving;
  if (!w.ingest) {
    std::vector<const Document*> docs;
    for (const Document& doc : w.docs) docs.push_back(&doc);
    HostScale gauge;
    // Set-up 0 warms the allocator and is not timed.
    for (int rep = 0; rep <= kSetupReps; ++rep) {
      SetupTimes t;
      serving = Serving();
      auto built = SetUp(docs, w.num_words, w.options, &tracer, &t);
      if (!built.ok()) {
        std::fprintf(stderr, "servebench: set-up: %s\n",
                     built.status().ToString().c_str());
        return 2;
      }
      serving = std::move(*built);
      const double scale = gauge.Next();
      if (rep == 0) continue;
      setups.push_back(t);
      setup_seconds.push_back(t.total * scale);
    }
    setup_gauge = gauge.samples();
    if (w.size_budget) {
      Status st = SizeBudget(serving.corpus.get(), &w);
      if (!st.ok()) {
        std::fprintf(stderr, "servebench: budget probe: %s\n",
                     st.ToString().c_str());
        return 2;
      }
    }
  }

  // Measured phase(s). Trace mode runs an untraced phase first (for the
  // tracing overhead) and takes the ledger from the traced one.
  auto run_phase = [&](double seconds, Tracer* t, Phase* p) -> Status {
    if (w.ingest) return RunIngest(w, seconds, t, p);
    auto server = CorpusServer::Create(serving.corpus.get(), w.options);
    if (!server.ok()) return server.status();
    return RunBursts(w, server->get(), seconds, t, p);
  };
  Phase phase;
  Phase traced;
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) phase.cap_seconds = traced.cap_seconds = kPhaseCapSeconds / 2;
  Status st = run_phase(phase_seconds, &untraced, &phase);
  if (st.ok() && args.trace) st = run_phase(phase_seconds, &tracer, &traced);
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: serving: %s\n", st.ToString().c_str());
    return 2;
  }

  if (w.ingest) {
    setups = phase.setups;
    setup_seconds = phase.setup_seconds;
  }
  // Container size per input token: of the corpus (every corpus set-up is
  // identical), or over the window's ingested documents.
  const size_t sized = w.ingest ? std::min(w.window, setups.size()) : 1;
  uint64_t container_bytes = 0;
  uint64_t tokens = 0;
  for (size_t i = 0; i < sized; ++i) {
    container_bytes += setups[i].container_bytes;
    tokens += setups[i].tokens;
  }
  const double bytes_per_token =
      static_cast<double>(container_bytes) / static_cast<double>(tokens);
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  const double setup_s = Median(setup_seconds);
  const std::string fingerprint = FingerprintOf(phase.window, bytes_per_token);
  const bool windows_filled =
      phase.window_filled == w.window &&
      (!args.trace || traced.window_filled == w.window);
  if (!windows_filled) {
    std::fprintf(stderr, "servebench: the %zu-%s window did not complete\n",
                 w.window, w.ingest ? "request" : "burst");
  }
  bool correct =
      phase.mismatches == 0 && traced.mismatches == 0 && windows_filled;
  if (args.trace) {
    const std::string traced_fp =
        FingerprintOf(traced.window, bytes_per_token);
    if (traced_fp != fingerprint) {
      std::fprintf(stderr,
                   "servebench: sim_fingerprint differs between the untraced "
                   "(%s) and traced (%s) runs of one seed\n",
                   fingerprint.c_str(), traced_fp.c_str());
      correct = false;
    }
  }
  const uint64_t attempted = phase.attempted + traced.attempted;
  const uint64_t failed = phase.failed + traced.failed;
  std::printf(
      "correctness: %llu mismatching answer(s) against the uncompressed "
      "reference digests; failed_frac = %.6g (%llu failed of %llu "
      "attempted)\n",
      static_cast<unsigned long long>(phase.mismatches + traced.mismatches),
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted));
  std::printf("sim_fingerprint workload=%s seed=%llu %s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), fingerprint.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const SimFigures sim = Sim(phase.window);
    metrics = {
        {"setup_s", setup_s, "s", "host"},
        {"host_qps", HostQps(phase), "1/s", "host"},
        {"host_latency_p50_ms", Percentile(phase.host_latency, 0.50) * 1e3,
         "ms", "host"},
        {"host_latency_p95_ms", Percentile(phase.host_latency, 0.95) * 1e3,
         "ms", "host"},
        {"sim_qps", sim.qps, "1/s", "sim"},
        {"sim_latency_p50_ms", sim.p50_ms, "ms", "sim"},
        {"sim_latency_p95_ms", sim.p95_ms, "ms", "sim"},
        {"success_frac",
         attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0.0,
         "fraction", "count"},
        {"peak_rss_mb", PeakRssMb(), "MiB", "host"},
        {"container_bytes_per_token", bytes_per_token, "B/token", "size"},
    };
    std::printf(
        "samples: setup %zu set-ups; host %llu requests over %.3f s of wall "
        "time (warm-up excluded), %.3f s at the reference speed; sim %llu "
        "requests in the window\n",
        setups.size(), static_cast<unsigned long long>(phase.host_requests),
        phase.wall_seconds, phase.host_seconds,
        static_cast<unsigned long long>(phase.window.requests));
    std::vector<double> gauge = phase.gauge_samples;
    gauge.insert(gauge.end(), setup_gauge.begin(), setup_gauge.end());
    std::printf(
        "host speed: end-to-end host figures are at the reference speed, at "
        "which the HostScale gauge takes %.3f ms; this run's %zu gauge "
        "samples: min %.3f, median %.3f, max %.3f ms; wall-clock host_qps "
        "%.6g 1/s\n",
        HostScale::kReferenceSeconds * 1e3, gauge.size(),
        Percentile(gauge, 0) * 1e3, Median(gauge) * 1e3,
        Percentile(gauge, 1) * 1e3,
        phase.wall_seconds > 0 ? phase.host_requests / phase.wall_seconds
                               : 0.0);
    PrintMetrics("end-to-end metrics:", metrics);
  } else {
    Replay replay;
    Serving replay_corpus;
    const gtadoc::PartitionedCorpus* corpus = serving.corpus.get();
    if (w.ingest) {
      std::vector<const Document*> docs;
      for (const Document& doc : w.docs) docs.push_back(&doc);
      SetupTimes ignored;
      auto built = SetUp(docs, w.num_words, w.options, &untraced, &ignored);
      if (!built.ok()) {
        std::fprintf(stderr, "servebench: replay set-up: %s\n",
                     built.status().ToString().c_str());
        return 2;
      }
      replay_corpus = std::move(*built);
      corpus = replay_corpus.corpus.get();
    }
    st = RunReplay(w, *corpus, &tracer, &replay);
    if (!st.ok()) {
      std::fprintf(stderr, "servebench: replay: %s\n", st.ToString().c_str());
      return 2;
    }
    // Set-up stages per set-up: burst workloads set up the whole corpus,
    // ingest one document per request (the traced run's requests).
    if (w.ingest) setups = traced.setups;
    const double per_setup =
        w.ingest ? 1.0 / static_cast<double>(w.docs.size()) : 1.0;
    std::vector<double> tokens_per_s;
    for (const SetupTimes& t : setups) {
      tokens_per_s.push_back(static_cast<double>(t.tokens) / t.compress);
    }
    const Window& win = traced.window;
    const double skip_total =
        static_cast<double>(win.docs_skipped + win.docs_executed);
    const double lookups =
        static_cast<double>(win.cache_hits + win.cache_misses);
    metrics = {
        {"sequitur.compress_host_s", median_of(&SetupTimes::compress), "s",
         "host"},
        {"sequitur.tokens_per_host_s", Median(tokens_per_s), "1/s", "host"},
        {"format.bloom_host_s", replay.bloom_s * per_setup, "s", "host"},
        {"format.serialize_host_s", median_of(&SetupTimes::serialize), "s",
         "host"},
        {"format.parse_host_s", median_of(&SetupTimes::parse), "s", "host"},
        {"format.dag_build_host_us_per_doc", replay.dag_build_us, "us",
         "host"},
        {"server.submit_host_s", win.submit_host, "s", "host"},
        {"server.await_host_s", win.await_host, "s", "host"},
        {"server.serve_overhead_host_s", win.await_host - win.batch_host, "s",
         "host"},
        {"server.bloom_skip_ratio",
         skip_total > 0 ? win.docs_skipped / skip_total : 0, "ratio", "count"},
        {"server.bloom_mask_host_us", replay.bloom_mask_us, "us", "host"},
        {"server.rejections", static_cast<double>(win.rejected), "count",
         "count"},
        {"server.gpu_runs", static_cast<double>(win.gpu_runs), "count",
         "count"},
        {"server.cpu_runs", static_cast<double>(win.cpu_runs), "count",
         "count"},
        {"server.estimate_log_err_max.gpu", win.est_err_gpu, "ln", "sim"},
        {"server.estimate_log_err_max.cpu", win.est_err_cpu, "ln", "sim"},
        {"server.admission_sim_s", win.admission_sim, "s", "sim"},
        {"run_plan.cache_hit_ratio", lookups > 0 ? win.cache_hits / lookups : 0,
         "ratio", "count"},
        {"run_plan.cache_misses", static_cast<double>(win.cache_misses),
         "count", "count"},
        {"run_plan.cache_evictions", static_cast<double>(win.cache_evictions),
         "count", "count"},
        {"run_plan.plan_sim_s", win.plan_sim, "s", "sim"},
        {"scheduler.queue_wait_sim_ms_p95",
         Percentile(win.queue_wait, 0.95) * 1e3, "ms", "sim"},
        {"scheduler.backfills", static_cast<double>(win.backfills), "count",
         "count"},
        {"scheduler.peak_slot_frac", win.peak_slot_frac, "ratio", "count"},
        {"scheduler.peak_cpu_lanes", static_cast<double>(win.peak_lanes),
         "count", "count"},
        {"batch.host_s", win.batch_host, "s", "host"},
        {"batch.upload_sim_s", win.upload_sim, "s", "sim"},
        {"batch.overlap_saved_sim_s", win.overlap_saved_sim, "s", "sim"},
        {"batch.mid_run_pool_growths", static_cast<double>(win.mid_run_growths),
         "count", "count"},
        {"gtadoc.doc_host_s", win.gpu_doc_host, "s", "host"},
        {"gtadoc.init_sim_s", win.gpu_init_sim, "s", "sim"},
        {"gtadoc.traversal_sim_s", win.gpu_traversal_sim, "s", "sim"},
        {"gtadoc.init_ops", static_cast<double>(win.gpu_init_ops), "ops",
         "sim"},
        {"gtadoc.traversal_ops", static_cast<double>(win.gpu_traversal_ops),
         "ops", "sim"},
        {"gtadoc.create_host_us_per_doc", replay.gtadoc_create_us, "us",
         "host"},
        {"gtadoc.plan_host_us_per_doc", replay.gtadoc_plan_us, "us", "host"},
        {"gtadoc.run_host_us_per_doc", replay.gtadoc_run_us, "us", "host"},
        {"tadoc.doc_host_s", win.cpu_doc_host, "s", "host"},
        {"tadoc.sim_s", win.cpu_sim, "s", "sim"},
        {"tadoc.ops", static_cast<double>(win.cpu_ops), "ops", "sim"},
        {"tadoc.create_host_us_per_doc", replay.tadoc_create_us, "us", "host"},
        {"tadoc.run_host_us_per_doc", replay.tadoc_run_us, "us", "host"},
        {"sharding.devices_per_run",
         win.gpu_device_runs > 0
             ? static_cast<double>(win.devices_touched) / win.gpu_device_runs
             : 0,
         "devices", "count"},
        {"sharding.busy_imbalance", win.busy_imbalance, "ratio", "sim"},
        {"sharding.gather_sim_s", win.gather_sim, "s", "sim"},
        {"gpu.peak_admitted_slots", static_cast<double>(win.peak_slots),
         "slots", "count"},
        {"trace.overhead_host_qps", HostQps(traced) - HostQps(phase), "1/s",
         "host"},
    };
    std::printf(
        "per-layer ledger: host and sim figures cover the %zu-%s window of "
        "the traced run; set-up stages are medians over %zu set-up(s); *_us "
        "unit costs come from one replay of every document; "
        "trace.overhead_host_qps = traced - untraced host_qps (%.6g - "
        "%.6g)\n",
        w.window, w.ingest ? "request" : "burst", setups.size(),
        HostQps(traced), HostQps(phase));
    PrintMetrics("per-layer metrics:", metrics);
    if (!args.trace_file.empty()) {
      if (!tracer.WriteChromeTrace(args.trace_file)) {
        std::fprintf(stderr, "servebench: cannot write %s\n",
                     args.trace_file.c_str());
        return 2;
      }
      std::printf("chrome trace: %s (%zu spans)\n", args.trace_file.c_str(),
                  tracer.spans().size());
    }
  }
  PrintResultJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (!servebench::PinToOneCpu()) {
    std::fprintf(stderr,
                 "servebench: warning: cannot pin the process to one CPU\n");
  }
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <mixed_hybrid|"
                 "selective_sharded|ingest_first_query> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  return servebench::Run(args);
}
