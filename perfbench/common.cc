#include "common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/json.h"
#include "core/session_journal.h"

namespace falcon::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowMs() { return static_cast<double>(NowNs()) / 1e6; }

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

// ---- Report ---------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : metrics_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

bool Report::HasMetric(const std::string& name) const {
  for (const auto& entry : metrics_) {
    if (entry.first == name) return true;
  }
  return false;
}

void Report::Gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) {
    gate_failures_.push_back(what);
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
}

void Report::Detail(const std::string& key, double value) {
  detail_.emplace_back(key, value);
}

void Report::DetailText(const std::string& key, const std::string& value) {
  detail_text_.emplace_back(key, value);
}

std::string Report::ResultJson() const {
  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, vu] : metrics_) {
    JsonValue m = JsonValue::Object();
    m.Set("value", vu.first);
    m.Set("unit", vu.second);
    metrics.Set(name, std::move(m));
  }
  JsonValue r = JsonValue::Object();
  r.Set("correct", correct());
  r.Set("attempted", attempted);
  r.Set("failed", failed);
  r.Set("metrics", std::move(metrics));
  return r.Serialize();
}

std::string Report::DetailJson() const {
  JsonValue d = JsonValue::Object();
  for (const auto& [k, v] : detail_text_) d.Set(k, v);
  for (const auto& [k, v] : detail_) d.Set(k, v);
  d.Set("gates_checked", gates_);
  JsonValue failures = JsonValue::Array();
  for (const std::string& f : gate_failures_) failures.Append(f);
  d.Set("gate_failures", std::move(failures));
  JsonValue wrapper = JsonValue::Object();
  wrapper.Set("detail", std::move(d));
  return wrapper.Serialize();
}

// ---- Tracer ---------------------------------------------------------------

uint64_t Tracer::Begin(const char* name) {
  if (!enabled_) return 0;
  uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  uint64_t id = next_id_++;
  open_.push_back(spans_.size());
  spans_.push_back({name, id, parent, NowNs(), 0});
  return id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  // Spans close innermost-first; a mismatched id is a bug in the caller.
  if (open_.empty() || spans_[open_.back()].id != id) {
    std::fprintf(stderr, "tracer: span %llu closed out of order\n",
                 static_cast<unsigned long long>(id));
    std::abort();
  }
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

uint64_t Tracer::Record(const char* name, uint64_t parent, int64_t start_ns,
                        int64_t end_ns) {
  if (!enabled_) return 0;
  uint64_t id = next_id_++;
  spans_.push_back({name, id, parent, start_ns, end_ns});
  return id;
}

size_t Tracer::Count(std::string_view name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

double Tracer::TotalMs(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total / 1e6;
}

double Tracer::SelfMs(std::string_view name) const {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  int64_t self = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    self += s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
  }
  return static_cast<double>(self) / 1e6;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write trace to " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

// ---- Decorators -----------------------------------------------------------

UserOracle::Answered TracedOracle::AnswerEx(const Lattice& lattice,
                                            NodeId n) {
  uint64_t span = tracer_->Begin("oracle.answer");
  Answered a = UserOracle::AnswerEx(lattice, n);
  tracer_->End(span);
  if (a.valid) ++valid_;
  return a;
}

void TracedSearch::Run(LatticeSearchContext& ctx) {
  uint64_t span = tracer_->Begin("search");
  inner_->Run(ctx);
  tracer_->End(span);
}

AnalystSession::AnalystSession(const Table* clean, Table* working,
                               SessionOptions options, Tracer* tracer)
    : tracer_(tracer) {
  algorithm_ = MakeSearchAlgorithm(SearchKind::kCoDive);
  if (tracer_ != nullptr) {
    oracle_ = std::make_unique<TracedOracle>(
        clean, options.question_mistake_prob, options.seed + 1, tracer_);
    options.oracle = oracle_.get();
    algorithm_ =
        std::make_unique<TracedSearch>(std::move(algorithm_), tracer_);
  }
  session_ = std::make_unique<CleaningSession>(clean, working,
                                               algorithm_.get(), options);
}

StatusOr<double> AnalystSession::Step() {
  uint64_t span = tracer_ != nullptr ? tracer_->Begin("session.step") : 0;
  double t0 = NowMs();
  StatusOr<SessionMetrics> m = session_->RunSteps(1);
  double ms = NowMs() - t0;
  if (tracer_ != nullptr) tracer_->End(span);
  if (!m.ok()) return m.status();
  return ms;
}

StatusOr<double> AnalystSession::Append(
    const std::vector<std::vector<ValueId>>& dirty_chunk) {
  uint64_t span = tracer_ != nullptr ? tracer_->Begin("session.append") : 0;
  double t0 = NowMs();
  Status st = session_->AppendBatch(dirty_chunk);
  double ms = NowMs() - t0;
  if (tracer_ != nullptr) tracer_->End(span);
  if (!st.ok()) return st;
  return ms;
}

size_t AnalystSession::questions() const {
  return oracle_ != nullptr ? oracle_->questions() : 0;
}

size_t AnalystSession::valid_answers() const {
  return oracle_ != nullptr ? oracle_->valid_answers() : 0;
}

bool SameCounters(const SessionMetrics& a, const SessionMetrics& b) {
  return a.user_updates == b.user_updates &&
         a.user_answers == b.user_answers &&
         a.initial_errors == b.initial_errors &&
         a.cells_repaired == b.cells_repaired &&
         a.queries_applied == b.queries_applied &&
         a.converged == b.converged && a.rows_appended == b.rows_appended;
}

void LayerTotals::AddSessionMetrics(const SessionMetrics& m) {
  build_ms += m.lattice_build_ms;
  scan_ms += m.posting_scan_ms;
  delta_ms += m.posting_delta_ms;
  posting_hits += m.posting_hits + m.posting_shared_hits;
  posting_probes += m.posting_hits + m.posting_misses +
                    m.posting_shared_hits + m.posting_shared_misses;
  resident_mb = std::max(
      resident_mb, static_cast<double>(m.posting_resident_bytes) / 1048576.0);
  nodes_materialized += m.nodes_materialized;
  nodes_total += m.nodes_total;
  memo_hits += m.lattice_memo_hits + m.lattice_memo_shared_hits;
  memo_probes += m.lattice_memo_hits + m.lattice_memo_misses +
                 m.lattice_memo_shared_hits;
  append_maintain_ms += m.append_maintain_ms;
  rows_appended += m.rows_appended;
}

void EmitSessionLayers(const LayerTotals& t, const Tracer& tracer,
                       Report* report) {
  auto ratio = [](double num, double den) {
    return den <= 0.0 ? 0.0 : num / den;
  };
  double steps = static_cast<double>(std::max<size_t>(t.steps, 1));
  double search_self = tracer.SelfMs("search");
  double oracle = tracer.TotalMs("oracle.answer");
  report->Metric("session.first_step_ms", Median(t.first_step_ms), "ms");
  report->Metric("search.self_ms", search_self / steps, "ms");
  report->Metric("search.episodes",
                 static_cast<double>(tracer.Count("search")), "count");
  report->Metric("oracle.answer_ms", oracle / steps, "ms");
  report->Metric("oracle.questions", static_cast<double>(t.questions),
                 "count");
  report->Metric("oracle.valid_share",
                 ratio(static_cast<double>(t.valid_answers),
                       static_cast<double>(t.questions)),
                 "share");
  report->Metric("lattice.build_ms", t.build_ms / steps, "ms");
  report->Metric("lattice.materialized_share",
                 ratio(static_cast<double>(t.nodes_materialized),
                       static_cast<double>(t.nodes_total)),
                 "share");
  report->Metric("memo.hit_rate",
                 ratio(static_cast<double>(t.memo_hits),
                       static_cast<double>(t.memo_probes)),
                 "share");
  report->Metric("posting.scan_ms", t.scan_ms / steps, "ms");
  report->Metric("posting.delta_ms", t.delta_ms / steps, "ms");
  report->Metric("posting.hit_rate",
                 ratio(static_cast<double>(t.posting_hits),
                       static_cast<double>(t.posting_probes)),
                 "share");
  report->Metric("posting.resident_mb", t.resident_mb, "MB");
  double step_ms = t.step_ms / steps;
  report->Metric("step.traced_ms", step_ms, "ms");
  // The disjoint parts of a step timed here: lattice build (posting scans
  // nest inside it), search self time and oracle answers. Everything else
  // (correlation ranking, the manual fix, worklist upkeep, the first
  // step's profiler) is unattributed until the library traces itself.
  double attributed = t.build_ms / steps + search_self / steps + oracle / steps;
  report->Metric("step.unattributed_share",
                 ratio(step_ms - attributed, step_ms), "share");
  if (!t.append_ms.empty()) {
    double append_total = std::accumulate(t.append_ms.begin(),
                                          t.append_ms.end(), 0.0);
    report->Metric("session.append_ms", Mean(t.append_ms), "ms");
    report->Metric("append.maintain_ms",
                   t.append_maintain_ms /
                       static_cast<double>(t.append_ms.size()),
                   "ms");
    report->Metric("append_rows_per_s",
                   ratio(static_cast<double>(t.rows_appended),
                         append_total / 1e3),
                   "1/s");
  }
}

// ---- Probes ---------------------------------------------------------------

namespace {

// Each probe repeats its call for at least `min_ms` and returns ms per call.
double ProbeTableCrcMs(const Table& table, double min_ms) {
  size_t calls = 0;
  uint32_t sink = 0;
  double t0 = NowMs();
  double elapsed = 0.0;
  do {
    sink ^= TableContentsCrc(table);
    ++calls;
    elapsed = NowMs() - t0;
  } while (elapsed < min_ms);
  static std::atomic<uint32_t> keep{0};
  keep.fetch_xor(sink, std::memory_order_relaxed);
  return elapsed / static_cast<double>(calls);
}

StatusOr<double> ProbeCheckpointMs(const Table& table, const std::string& dir,
                                   double min_ms) {
  std::string path = dir + "/probe.journal";
  FALCON_ASSIGN_OR_RETURN(SessionJournal journal,
                          SessionJournal::Open(path, /*truncate=*/true));
  size_t calls = 0;
  double t0 = NowMs();
  double elapsed = 0.0;
  do {
    // What a session's episode checkpoint does: CRC the whole table, then
    // append + fsync one kCheckpoint record.
    JournalRecord cp;
    cp.kind = JournalRecord::Kind::kCheckpoint;
    cp.user_updates = calls;
    cp.table_crc = TableContentsCrc(table);
    FALCON_RETURN_IF_ERROR(journal.Checkpoint(cp));
    ++calls;
    elapsed = NowMs() - t0;
  } while (elapsed < min_ms);
  std::remove(path.c_str());
  return elapsed / static_cast<double>(calls);
}

double ProbeConcurrentCrcSpeedup(const Table& table, size_t callers,
                                 double min_ms) {
  // Throughput (calls/ms) of `n` threads, each CRC-ing its own COW clone;
  // every clone reads the one ValuePool the table was interned into.
  auto throughput = [&](size_t n) {
    std::vector<Table> clones;
    for (size_t i = 0; i < n; ++i) clones.push_back(table.Clone());
    std::atomic<bool> stop{false};
    std::atomic<size_t> calls{0};
    std::vector<std::thread> threads;
    double t0 = NowMs();
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        do {
          (void)TableContentsCrc(clones[i]);
          calls.fetch_add(1, std::memory_order_relaxed);
        } while (!stop.load(std::memory_order_relaxed));
      });
    }
    while (NowMs() - t0 < min_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : threads) t.join();
    double elapsed = NowMs() - t0;
    return static_cast<double>(calls.load()) / elapsed;
  };
  double one = throughput(1);
  double many = throughput(std::max<size_t>(callers, 1));
  return one <= 0.0 ? 0.0 : many / one;
}

}  // namespace

StatusOr<double> EmitJournalProbes(const Table& table,
                                   const RunConfig& config, Report* report) {
  double min_ms = config.smoke ? 5.0 : 200.0;
  report->Metric("crc.table_ms", ProbeTableCrcMs(table, min_ms), "ms");
  FALCON_ASSIGN_OR_RETURN(double checkpoint_ms,
                          ProbeCheckpointMs(table, config.work_dir, min_ms));
  report->Metric("journal.checkpoint_ms", checkpoint_ms, "ms");
  size_t hw = std::max<unsigned>(std::thread::hardware_concurrency(), 2);
  report->Metric("crc.concurrent_speedup",
                 ProbeConcurrentCrcSpeedup(table, hw - 1, min_ms), "x");
  return checkpoint_ms;
}

size_t DirectoryBytes(const std::string& dir) {
  size_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    std::string path = dir + "/" + e->d_name;
    struct stat st {};
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<size_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"step_p50_ms", "ms"},
      {"step_tail_ms", "ms"},
      {"session_s", "s"},
      {"interactions", "count"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"datagen.workload_ms", "ms"},
      {"session.first_step_ms", "ms"},
      {"session.append_ms", "ms"},
      {"append.maintain_ms", "ms"},
      {"append_rows_per_s", "1/s"},
      {"search.self_ms", "ms"},
      {"search.episodes", "count"},
      {"oracle.answer_ms", "ms"},
      {"oracle.questions", "count"},
      {"oracle.valid_share", "share"},
      {"lattice.build_ms", "ms"},
      {"lattice.materialized_share", "share"},
      {"memo.hit_rate", "share"},
      {"posting.scan_ms", "ms"},
      {"posting.delta_ms", "ms"},
      {"posting.hit_rate", "share"},
      {"posting.resident_mb", "MB"},
      {"journal.checkpoint_ms", "ms"},
      {"crc.table_ms", "ms"},
      {"journal.bytes_per_step", "B"},
      {"service.handle_ms", "ms"},
      {"service.json_ms", "ms"},
      {"service.wait_ms", "ms"},
      {"service.cpu_ms_per_step", "ms"},
      {"service.open_ms", "ms"},
      {"service.rejected", "count"},
      {"shared.hit_rate", "share"},
      {"crc.concurrent_speedup", "x"},
      {"svc_max_rps", "1/s"},
      {"step.traced_ms", "ms"},
      {"step.unattributed_share", "share"},
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace falcon::perfbench
