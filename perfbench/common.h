// Shared plumbing of the FALCON benchmark: run configuration, the result
// report, latency statistics, the in-memory span tracer and the decorators
// that time calls into the session's search and oracle layers from outside
// the library, plus the unit-cost probes of the journal and CRC layers.
//
// Everything here drives FALCON through its public headers only; tracing
// inside the library is deliberately out of scope (see README.md).
#ifndef FALCON_PERFBENCH_COMMON_H_
#define FALCON_PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/oracle.h"
#include "core/search.h"
#include "core/session.h"
#include "relational/table.h"

namespace falcon::perfbench {

/// One benchmark invocation, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time of the run (setup excluded).
  bool trace = false;     ///< Traced run: per-layer metrics instead of e2e.
  bool smoke = false;     ///< Tiny inputs for the benchmark's own tests.
  std::string trace_out;  ///< Spans are written here when the run ends.
  std::string work_dir;   ///< Scratch space for journals and sockets.
};

/// Monotonic wall clock in nanoseconds / milliseconds.
int64_t NowNs();
double NowMs();
/// Process CPU time (user + system) in milliseconds.
double ProcessCpuMs();
/// getrusage max RSS of this process in MiB.
double PeakRssMb();

/// Deterministic 64-bit mix (SplitMix64) for deriving sub-seeds.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Collects the result of one run: metrics with units, operation counts,
/// correctness gates and free-form detail (sample counts, provenance).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  bool HasMetric(const std::string& name) const;
  /// Records a correctness gate; a false gate makes the run incorrect.
  void Gate(bool ok, const std::string& what);
  void Detail(const std::string& key, double value);
  void DetailText(const std::string& key, const std::string& value);

  size_t attempted = 0;
  size_t failed = 0;

  bool correct() const { return gate_failures_.empty(); }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson() const;
  /// Everything else: detail values and gate outcomes, one JSON object.
  std::string DetailJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> detail_;
  std::vector<std::pair<std::string, std::string>> detail_text_;
  std::vector<std::string> gate_failures_;
  size_t gates_ = 0;
};

/// In-memory span recorder. A span has a name, an id, the id of the span
/// that caused it (0 for roots), and its start and end. Spans opened with
/// Begin nest by a stack, so calls made while a span is open become its
/// children. Not thread-safe: one tracer per driving thread.
class Tracer {
 public:
  struct Span {
    const char* name;  ///< A string literal.
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (0 when
  /// tracing is off).
  uint64_t Begin(const char* name);
  void End(uint64_t id);
  /// Records a finished span with an explicit parent (spans whose start
  /// and end are observed on different events, such as client requests).
  uint64_t Record(const char* name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns);

  size_t Count(std::string_view name) const;
  double TotalMs(std::string_view name) const;
  /// Σ over spans named `name` of their duration minus the part of it
  /// covered by their child spans.
  double SelfMs(std::string_view name) const;

  /// Writes every span as one JSON object per line.
  Status WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< Indexes into spans_ of open spans.
};

/// UserOracle that times every answer as an "oracle.answer" span and
/// counts valid answers. Built as (clean, mistake_prob, seed + 1) it
/// answers bit-identically to the session's internal oracle.
class TracedOracle : public UserOracle {
 public:
  TracedOracle(const Table* clean, double mistake_prob, uint64_t seed,
               Tracer* tracer)
      : UserOracle(clean, mistake_prob, seed), tracer_(tracer) {}

  Answered AnswerEx(const Lattice& lattice, NodeId n) override;

  size_t valid_answers() const { return valid_; }

 private:
  Tracer* tracer_;
  size_t valid_ = 0;
};

/// SearchAlgorithm decorator: each episode's search runs inside a
/// "search" span, so search self time = span − oracle answers inside it.
class TracedSearch : public SearchAlgorithm {
 public:
  TracedSearch(std::unique_ptr<SearchAlgorithm> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void OnSessionStart(size_t session_index) override {
    inner_->OnSessionStart(session_index);
  }
  void Run(LatticeSearchContext& ctx) override;

 private:
  std::unique_ptr<SearchAlgorithm> inner_;
  Tracer* tracer_;
};

/// One in-process CoDive analyst session over (clean, working). With a
/// tracer the session gets the traced oracle and search decorators and
/// every call runs inside a span; without one it is exactly what a user of
/// the library would build.
class AnalystSession {
 public:
  AnalystSession(const Table* clean, Table* working, SessionOptions options,
                 Tracer* tracer);

  /// One RunSteps(1) call; returns its wall time in ms.
  StatusOr<double> Step();
  /// One AppendBatch call; returns its wall time in ms.
  StatusOr<double> Append(
      const std::vector<std::vector<ValueId>>& dirty_chunk);

  bool finished() const { return session_->finished(); }
  const SessionMetrics& metrics() const { return session_->metrics(); }
  /// Oracle questions and valid answers (traced sessions only).
  size_t questions() const;
  size_t valid_answers() const;

 private:
  Tracer* tracer_;
  std::unique_ptr<TracedOracle> oracle_;
  std::unique_ptr<SearchAlgorithm> algorithm_;
  std::unique_ptr<CleaningSession> session_;
};

/// True when the interaction counters of two runs agree.
bool SameCounters(const SessionMetrics& a, const SessionMetrics& b);

/// Cumulative per-layer accounting over the traced sessions of a run.
struct LayerTotals {
  size_t steps = 0;
  double step_ms = 0.0;  ///< Σ traced RunSteps(1) wall time.
  std::vector<double> first_step_ms;
  double build_ms = 0.0;  ///< Σ SessionMetrics::lattice_build_ms.
  double scan_ms = 0.0;
  double delta_ms = 0.0;
  size_t posting_hits = 0;
  size_t posting_probes = 0;
  double resident_mb = 0.0;  ///< Largest end-of-session posting residency.
  size_t nodes_materialized = 0;
  size_t nodes_total = 0;
  size_t memo_hits = 0;
  size_t memo_probes = 0;
  size_t questions = 0;
  size_t valid_answers = 0;
  std::vector<double> append_ms;  ///< AppendBatch calls (wall).
  double append_maintain_ms = 0.0;
  size_t rows_appended = 0;

  void AddSessionMetrics(const SessionMetrics& m);
};

/// Emits the session-layer per-layer metrics (search, oracle, lattice,
/// postings, first step, append, unattributed share) from `totals` and the
/// tracer's spans.
void EmitSessionLayers(const LayerTotals& totals, const Tracer& tracer,
                       Report* report);

/// Unit-cost probes of the journal and CRC layers at `table`'s size:
/// `crc.table_ms`, `journal.checkpoint_ms` and `crc.concurrent_speedup`.
/// Returns the checkpoint cost in ms.
StatusOr<double> EmitJournalProbes(const Table& table,
                                   const RunConfig& config, Report* report);

/// Total bytes of the regular files directly inside `dir`.
size_t DirectoryBytes(const std::string& dir);

/// The workloads; each fills `report` with the end-to-end metrics, or with
/// the per-layer metrics when `config.trace` is set.
Status RunHospital(const RunConfig& config, Report* report);
Status RunSpecAppend(const RunConfig& config, Report* report);
Status RunService(const RunConfig& config, Report* report);

/// The per-layer metric names every traced run emits (with units), and the
/// end-to-end names every untraced run emits. run.py's smoke mode checks
/// the output against BENCHMARK.json; main.cc checks it against these.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace falcon::perfbench

#endif  // FALCON_PERFBENCH_COMMON_H_
