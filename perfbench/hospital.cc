// hospital-x2: single-analyst CoDive sessions (B = 3) run to convergence
// on Hospital at scale 2 (20k rows, ~2000 injected errors), in process,
// without journal or service. Search, correlation ranking and applying
// rules dominate here; posting scans are light.
#include <algorithm>

#include "common.h"
#include "core/session_journal.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "errorgen/injector.h"

namespace falcon::perfbench {
namespace {

// The Hospital instance MakeCleaningWorkload("Hospital", 2) builds, with
// the workload seed fed to both the generator and the error injector.
StatusOr<CleaningWorkload> BuildHospital(size_t rows, uint64_t seed) {
  FALCON_ASSIGN_OR_RETURN(Dataset ds, MakeHospital(rows, seed));
  ds.error_spec.seed = seed;
  FALCON_ASSIGN_OR_RETURN(DirtyInstance dirty,
                          InjectErrors(ds.clean, ds.error_spec));
  CleaningWorkload w;
  w.name = ds.name;
  w.clean = std::move(ds.clean);
  w.dirty = std::move(dirty.dirty);
  w.errors = dirty.errors.size();
  w.patterns = dirty.injected_patterns.size();
  w.snapshot_id = NextWorkloadSnapshotId();
  return w;
}

struct Instance {
  CleaningWorkload workload;
  uint32_t clean_crc = 0;
  bool seen = false;  ///< A session on it finished; reference below set.
  SessionMetrics reference;
  uint32_t final_crc = 0;
};

}  // namespace

Status RunHospital(const RunConfig& config, Report* report) {
  const size_t rows = config.smoke ? 1000 : 20000;
  // Several instances per run, so a run's figures do not hinge on one
  // seed's error layout.
  const size_t num_instances = config.smoke ? 1 : 16;

  std::vector<Instance> instances(num_instances);
  std::vector<double> setup_ms;
  for (size_t i = 0; i < num_instances; ++i) {
    uint64_t seed = MixSeed(config.seed, i) & 0xffffffffu;
    double t0 = NowMs();
    FALCON_ASSIGN_OR_RETURN(instances[i].workload, BuildHospital(rows, seed));
    setup_ms.push_back(NowMs() - t0);
    instances[i].clean_crc = TableContentsCrc(instances[i].workload.clean);
  }
  report->Detail("rows", static_cast<double>(rows));
  report->Detail("instances", static_cast<double>(num_instances));
  report->Detail("errors_instance0",
                 static_cast<double>(instances[0].workload.errors));

  SessionOptions options;
  options.budget = 3;

  Tracer tracer(config.trace);
  LayerTotals layers;
  std::vector<double> untraced_steps;
  std::vector<double> session_s;
  double cpu0 = ProcessCpuMs();
  // A traced run alternates untraced and traced sessions over the same
  // instances: the pairs must agree bit for bit, and their difference is
  // the tracing overhead.
  const size_t per_instance = config.trace ? 2 : 1;
  const size_t min_sessions = num_instances * per_instance;
  const double deadline = NowMs() + config.seconds * 1e3;
  for (size_t k = 0; k < min_sessions || NowMs() < deadline; ++k) {
    Instance& inst = instances[(k / per_instance) % num_instances];
    const bool traced = config.trace && k % 2 == 1;
    Table working = inst.workload.dirty.Clone();
    AnalystSession session(&inst.workload.clean, &working, options,
                           traced ? &tracer : nullptr);
    double session_ms = 0.0;
    bool ok = true;
    size_t steps = 0;
    while (!session.finished()) {
      ++report->attempted;
      StatusOr<double> ms = session.Step();
      if (!ms.ok()) {
        ++report->failed;
        report->Gate(false, "hospital step failed: " + ms.status().ToString());
        ok = false;
        break;
      }
      if (traced) {
        if (steps == 0) layers.first_step_ms.push_back(*ms);
        layers.step_ms += *ms;
        ++layers.steps;
      } else {
        untraced_steps.push_back(*ms);
      }
      session_ms += *ms;
      ++steps;
    }
    if (!ok) break;
    const SessionMetrics& m = session.metrics();
    uint32_t crc = TableContentsCrc(working);
    report->Gate(m.converged && crc == inst.clean_crc,
                 "hospital session converges to the clean table");
    if (!inst.seen) {
      inst.seen = true;
      inst.reference = m;
      inst.final_crc = crc;
    } else {
      report->Gate(SameCounters(m, inst.reference) && crc == inst.final_crc,
                   traced ? "traced session equals the untraced one"
                          : "repeated session is bit-identical");
    }
    if (traced) {
      layers.AddSessionMetrics(m);
      layers.questions += session.questions();
      layers.valid_answers += session.valid_answers();
    } else {
      session_s.push_back(session_ms / 1e3);
    }
  }
  double cpu_ms = ProcessCpuMs() - cpu0;

  size_t interactions = 0;
  for (const Instance& inst : instances) {
    interactions += inst.reference.TotalCost();
  }
  report->Detail("step_samples", static_cast<double>(untraced_steps.size()));
  report->Detail("sessions", static_cast<double>(session_s.size()));
  report->Detail("tail_percentile", 99);
  report->Detail("tail_supported",
                 untraced_steps.size() >= 1000 ? 1.0 : 0.0);

  if (!config.trace) {
    report->Metric("setup_s", Median(setup_ms) / 1e3, "s");
    report->Metric("step_p50_ms", Median(untraced_steps), "ms");
    report->Metric("step_tail_ms", Percentile(untraced_steps, 0.99), "ms");
    report->Metric("session_s", Median(session_s), "s");
    report->Metric("interactions", static_cast<double>(interactions),
                   "count");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return Status::Ok();
  }

  report->Metric("datagen.workload_ms", Median(setup_ms), "ms");
  EmitSessionLayers(layers, tracer, report);
  double untraced_mean = Mean(untraced_steps);
  double traced_mean =
      layers.step_ms / static_cast<double>(std::max<size_t>(layers.steps, 1));
  report->Metric("trace.overhead_ms", traced_mean - untraced_mean, "ms");
  report->Metric("service.cpu_ms_per_step",
                 cpu_ms / static_cast<double>(std::max<size_t>(
                              untraced_steps.size() + layers.steps, 1)),
                 "ms");
  FALCON_RETURN_IF_ERROR(
      EmitJournalProbes(instances[0].workload.dirty, config, report).status());
  if (!config.trace_out.empty()) {
    FALCON_RETURN_IF_ERROR(tracer.WriteJsonLines(config.trace_out));
  }
  return Status::Ok();
}

}  // namespace falcon::perfbench
