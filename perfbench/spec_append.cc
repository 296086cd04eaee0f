// spec-1m-append: 1M-row datagen/spec tables (the fig8 default spec, with
// spec seeds derived from the workload seed). Each session runs a fixed
// schedule of CoDive episodes interleaved with streamed append batches, so
// writes sit beside reads. Datagen, posting scans and lattice builds over
// large bitmaps do most of the work; append maintenance runs here and
// nowhere else.
#include <algorithm>
#include <optional>
#include <sstream>

#include "common.h"
#include "core/session_journal.h"
#include "datagen/spec.h"

namespace falcon::perfbench {
namespace {

// The fig8 default spec: domains scale with the row count so predicate
// groups keep ~2k rows; derived fields give the injector exact FDs.
std::string SpecJson(size_t rows, uint64_t seed, size_t batches,
                     size_t batch_rows) {
  size_t domain = std::max<size_t>(rows / 2000, 8);
  std::ostringstream os;
  os << "{\"name\": \"fig8\", \"seed\": " << seed << ", \"rows\": " << rows
     << ", \"fields\": ["
     << "{\"name\": \"id\", \"dist\": \"unique\", \"prefix\": \"R\"},"
     << "{\"name\": \"city\", \"dist\": \"zipf\", \"domain\": " << domain
     << ", \"skew\": 1.0, \"prefix\": \"City\"},"
     << "{\"name\": \"state\", \"dist\": \"derived\", \"parents\": [\"city\"],"
     << " \"domain\": " << std::max<size_t>(domain / 10, 4)
     << ", \"prefix\": \"St\"},"
     << "{\"name\": \"zip\", \"dist\": \"uniform\", \"domain\": " << domain
     << ", \"prefix\": \"Z\"},"
     << "{\"name\": \"area\", \"dist\": \"derived\", \"parents\": [\"zip\"],"
     << " \"domain\": " << std::max<size_t>(domain / 20, 4)
     << ", \"prefix\": \"A\"},"
     << "{\"name\": \"flag\", \"dist\": \"dictionary\","
     << " \"values\": [\"yes\", \"no\", \"maybe\"]}],"
     << "\"errors\": {\"rules\": [{\"lhs\": [\"city\"], \"rhs\": \"state\","
     << " \"patterns\": 5, \"errors_per_pattern\": 20}],"
     << " \"random_errors\": 100, \"seed\": 5},"
     << "\"append\": {\"batches\": " << batches
     << ", \"rows_per_batch\": " << batch_rows
     << ", \"error_rate\": 0.0005}}";
  return os.str();
}

struct Setup {
  std::optional<SpecWorkload> spec;
  std::vector<SpecAppendChunk> chunks;
  size_t initial_dirty = 0;
  size_t appended_errors = 0;
};

StatusOr<Setup> BuildSetup(const GeneratorSpec& spec, double* workload_ms) {
  Setup s;
  double t0 = NowMs();
  FALCON_ASSIGN_OR_RETURN(SpecWorkload w, MakeSpecWorkload(spec));
  *workload_ms = NowMs() - t0;
  for (size_t b = 0; b < spec.append.batches; ++b) {
    FALCON_ASSIGN_OR_RETURN(
        SpecAppendChunk chunk,
        w.generator.AppendBatchChunk(spec.rows + b * spec.append.rows_per_batch,
                                     spec.append.rows_per_batch));
    s.appended_errors += chunk.errors;
    s.chunks.push_back(std::move(chunk));
  }
  s.initial_dirty = w.workload.dirty.CountDiffCells(w.workload.clean);
  s.spec.emplace(std::move(w));
  return s;
}

/// What the sessions of a run add up to, over all its instances.
struct Samples {
  std::vector<double> untraced_steps;
  std::vector<double> session_s;
  size_t append_rows = 0;
  double append_ms = 0.0;
  size_t interactions = 0;
};

/// Cleans one instance with back-to-back sessions until `deadline`: at
/// least one session, or two in a traced run, where every second session
/// is traced.
Status RunSessions(const RunConfig& config, const Setup& setup,
                   size_t episodes_per_batch, double deadline,
                   Tracer* tracer, LayerTotals* layers, Samples* samples,
                   Report* report) {
  const CleaningWorkload& base = setup.spec->workload;
  SessionOptions options;
  options.budget = 3;
  std::optional<SessionMetrics> reference;
  uint32_t reference_crc = 0;
  const size_t min_sessions = config.trace ? 2 : 1;
  for (size_t k = 0; k < min_sessions || NowMs() < deadline; ++k) {
    const bool traced = config.trace && k % 2 == 1;
    Table clean = base.clean.Clone();
    Table working = base.dirty.Clone();
    AnalystSession session(&clean, &working, options,
                           traced ? tracer : nullptr);
    double session_ms = 0.0;
    size_t steps = 0;
    Status failure;
    auto step = [&]() -> Status {
      ++report->attempted;
      StatusOr<double> ms = session.Step();
      if (!ms.ok()) return ms.status();
      if (traced) {
        if (steps == 0) layers->first_step_ms.push_back(*ms);
        layers->step_ms += *ms;
        ++layers->steps;
      } else {
        samples->untraced_steps.push_back(*ms);
      }
      session_ms += *ms;
      ++steps;
      return Status::Ok();
    };
    for (size_t b = 0; b < setup.chunks.size() && failure.ok(); ++b) {
      for (size_t e = 0; e < episodes_per_batch && failure.ok(); ++e) {
        failure = step();
      }
      if (!failure.ok()) break;
      // Ground truth grows first (AppendBatch's contract); that upkeep is
      // the benchmark's, not the analyst's, so it stays out of the timing.
      clean.AppendBatch(setup.chunks[b].clean);
      ++report->attempted;
      StatusOr<double> ms = session.Append(setup.chunks[b].dirty);
      if (!ms.ok()) {
        failure = ms.status();
        break;
      }
      session_ms += *ms;
      if (traced) {
        layers->append_ms.push_back(*ms);
      } else {
        samples->append_ms += *ms;
        samples->append_rows += setup.chunks[b].dirty.front().size();
      }
    }
    if (!failure.ok()) {
      ++report->failed;
      report->Gate(false, "spec session failed: " + failure.ToString());
      return Status::Ok();
    }
    const SessionMetrics& m = session.metrics();
    size_t remaining = working.CountDiffCells(clean);
    report->Gate(remaining + m.cells_repaired ==
                         setup.initial_dirty + setup.appended_errors &&
                     m.initial_errors ==
                         setup.initial_dirty + setup.appended_errors,
                 "dirty cells = initial + appended - repaired");
    if (!reference.has_value()) {
      reference = m;
      samples->interactions += m.TotalCost();
      if (config.trace) reference_crc = TableContentsCrc(working);
    } else {
      report->Gate(SameCounters(m, *reference),
                   "repeated session counters are identical");
      if (traced && k == 1) {
        report->Gate(TableContentsCrc(working) == reference_crc,
                     "traced session table equals the untraced one");
      }
    }
    if (traced) {
      layers->AddSessionMetrics(m);
      layers->questions += session.questions();
      layers->valid_answers += session.valid_answers();
    } else {
      samples->session_s.push_back(session_ms / 1e3);
    }
  }
  return Status::Ok();
}

}  // namespace

Status RunSpecAppend(const RunConfig& config, Report* report) {
  const size_t rows = config.smoke ? 20000 : 1000000;
  const size_t batches = 4;
  const size_t batch_rows = rows / 20;
  // Episodes between appends. A session's 32 episodes are 32 distinct
  // steps, so the median does not hinge on a handful of them; the first
  // step (profiler + first scans) is 1/32 of the samples, so p99 lands
  // inside that group with margin on both sides.
  const size_t episodes_per_batch = 8;
  // A run cleans several instances, one after another, each with its own
  // spec seed derived from the workload seed, and pools their samples, so
  // its figures do not hinge on one instance's data and error layout. The
  // measured time is split evenly between them.
  const size_t instances = config.smoke ? 1 : 3;

  auto make_spec = [&](size_t i) {
    uint64_t seed = MixSeed(config.seed, 200 + i) & 0xffffffffu;
    return GeneratorSpec::Parse(SpecJson(rows, seed, batches, batch_rows));
  };
  std::vector<double> setup_ms;
  std::vector<double> workload_ms;
  auto build = [&](const GeneratorSpec& spec) -> StatusOr<Setup> {
    double wl_ms = 0.0;
    double t0 = NowMs();
    FALCON_ASSIGN_OR_RETURN(Setup setup, BuildSetup(spec, &wl_ms));
    setup_ms.push_back(NowMs() - t0);
    workload_ms.push_back(wl_ms);
    return setup;
  };

  Tracer tracer(config.trace);
  LayerTotals layers;
  Samples samples;
  size_t initial_errors = 0;
  size_t appended_errors = 0;
  uint32_t first_crc = 0;
  double cpu_ms = 0.0;  // Process CPU while sessions ran.
  for (size_t i = 0; i < instances; ++i) {
    FALCON_ASSIGN_OR_RETURN(GeneratorSpec spec, make_spec(i));
    FALCON_ASSIGN_OR_RETURN(Setup setup, build(spec));
    if (i == 0) first_crc = TableContentsCrc(setup.spec->workload.dirty);
    initial_errors += setup.initial_dirty;
    appended_errors += setup.appended_errors;
    const double deadline =
        NowMs() + config.seconds * 1e3 / static_cast<double>(instances);
    double cpu0 = ProcessCpuMs();
    FALCON_RETURN_IF_ERROR(RunSessions(config, setup, episodes_per_batch,
                                       deadline, &tracer, &layers, &samples,
                                       report));
    cpu_ms += ProcessCpuMs() - cpu0;
    if (config.trace && i == 0) {
      FALCON_RETURN_IF_ERROR(
          EmitJournalProbes(setup.spec->workload.dirty, config, report)
              .status());
    }
  }
  // Generating the first instance again must give the same table; the
  // rebuild is one more set-up sample.
  {
    FALCON_ASSIGN_OR_RETURN(GeneratorSpec spec, make_spec(0));
    FALCON_ASSIGN_OR_RETURN(Setup again, build(spec));
    report->Gate(TableContentsCrc(again.spec->workload.dirty) == first_crc,
                 "spec generation is deterministic");
  }
  const std::vector<double>& untraced_steps = samples.untraced_steps;
  report->Detail("rows", static_cast<double>(rows));
  report->Detail("instances", static_cast<double>(instances));
  report->Detail("initial_errors", static_cast<double>(initial_errors));
  report->Detail("appended_errors", static_cast<double>(appended_errors));
  report->Detail("step_samples", static_cast<double>(untraced_steps.size()));
  report->Detail("sessions", static_cast<double>(samples.session_s.size()));
  report->Detail("tail_percentile", 99);
  report->Detail("tail_supported", untraced_steps.size() >= 1000 ? 1.0 : 0.0);

  if (!config.trace) {
    report->Metric("setup_s", Median(setup_ms) / 1e3, "s");
    report->Metric("step_p50_ms", Median(untraced_steps), "ms");
    report->Metric("step_tail_ms", Percentile(untraced_steps, 0.99), "ms");
    report->Metric("session_s", Median(samples.session_s), "s");
    report->Metric("interactions", static_cast<double>(samples.interactions),
                   "count");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Detail("append_rows_per_s",
                   static_cast<double>(samples.append_rows) /
                       (samples.append_ms / 1e3));
    return Status::Ok();
  }

  report->Metric("datagen.workload_ms", Median(workload_ms), "ms");
  EmitSessionLayers(layers, tracer, report);
  double traced_mean =
      layers.step_ms / static_cast<double>(std::max<size_t>(layers.steps, 1));
  report->Metric("trace.overhead_ms", traced_mean - Mean(untraced_steps),
                 "ms");
  report->Metric("service.cpu_ms_per_step",
                 cpu_ms / static_cast<double>(std::max<size_t>(
                              untraced_steps.size() + layers.steps, 1)),
                 "ms");
  if (!config.trace_out.empty()) {
    FALCON_RETURN_IF_ERROR(tracer.WriteJsonLines(config.trace_out));
  }
  return Status::Ok();
}

}  // namespace falcon::perfbench
