// service-synth10k: an open loop of Poisson step arrivals against an
// in-process CleaningServer reached over a Unix socket. Journals are on,
// as for durable sessions; the server has nproc − 1 workers. One generator
// thread multiplexes nproc connections carrying twice as many analyst
// sessions, each cycling open → steps → close. Framing, queueing, the
// per-response status CRC, journal checkpoints and shared-pool contention
// run here and nowhere else.
//
// Latency is measured from each step's intended send time, so a stalled
// session delays (and is charged for) the arrivals queued behind it. The
// latency metrics come from the base rate; the capacity ladder climbs a
// fixed geometric ladder from there.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "common.h"
#include "common/json.h"
#include "common/socket.h"
#include "core/session_journal.h"
#include "datagen/workload.h"
#include "service/protocol.h"
#include "service/server.h"

namespace falcon::perfbench {
namespace {

constexpr const char* kDataset = "Synth10k";
/// The ladder: kLadderBase · 2^(i/4), i = 0, 1, … (ratio ≈ 1.19 ≤ √2).
constexpr double kLadderBase = 8.0;
constexpr double kLadderRatio = 1.189207115002721;  // 2^(1/4)
/// The base rate is rung kBaseRung (8 · 2^(-2/4) ≈ 5.7 steps/s), well
/// below the knee measured when the benchmark was written (README.md), so
/// that steps seldom overlap and the base-rate latency is mostly the
/// step's own work: overlapping steps slow each other down, and more so
/// the busier the host.
constexpr int kBaseRung = -2;
/// p95 step latency limit of the capacity ladder.
constexpr double kLimitMs = 100.0;

double RungRate(int rung) {
  return kLadderBase * std::pow(kLadderRatio, static_cast<double>(rung));
}

/// The serial in-process twin of one service session (same dataset and
/// seed): its table CRC and counters after each of its steps.
struct Snapshot {
  uint32_t crc = 0;
  SessionMetrics metrics;
};
using Reference = std::vector<Snapshot>;

StatusOr<Reference> RunReference(const CleaningWorkload& w, uint64_t seed,
                                 size_t max_steps, Tracer* tracer,
                                 LayerTotals* layers) {
  SessionOptions options;
  options.budget = 3;
  options.seed = seed;
  Table working = w.dirty.Clone();
  AnalystSession session(&w.clean, &working, options, tracer);
  Reference ref;
  while (ref.size() < max_steps && !session.finished()) {
    FALCON_ASSIGN_OR_RETURN(double ms, session.Step());
    if (layers != nullptr) {
      if (ref.empty()) layers->first_step_ms.push_back(ms);
      layers->step_ms += ms;
      ++layers->steps;
    }
    ref.push_back({TableContentsCrc(working), session.metrics()});
  }
  if (layers != nullptr) {
    layers->AddSessionMetrics(session.metrics());
    layers->questions += session.questions();
    layers->valid_answers += session.valid_answers();
  }
  return ref;
}

enum class Kind { kOpen, kStep, kClose, kPing };

/// A request in flight on one connection (responses arrive in order).
struct Pending {
  int slot = -1;
  Kind kind = Kind::kStep;
  int64_t send_ns = 0;
  int64_t due_ns = 0;  ///< Intended send time (steps).
  size_t record = 0;   ///< Index into the recorded request log.
};

struct Conn {
  FdHolder fd;
  std::string in;
  std::string out;
  std::deque<Pending> pending;
};

/// One analyst: a sequence of session incarnations over a seed pool.
struct Slot {
  enum class State { kOpening, kIdle, kStepping, kClosing };
  State state = State::kOpening;
  std::string id;
  uint64_t seed = 0;
  size_t incarnation = 0;
  size_t steps = 0;
  double served_ms = 0.0;  ///< Σ latencies of this incarnation's requests.
  std::deque<int64_t> due;  ///< Step arrivals not yet sent.
  JsonValue last_status;    ///< Body of the latest step response.
};

/// Latency samples of one measured window.
struct Window {
  std::vector<double> step_ms;       ///< From intended send time.
  std::vector<double> step_sent_ms;  ///< From actual send time.
  std::vector<double> late_ms;       ///< Generator lateness per arrival.
  std::vector<double> open_ms;
  size_t failed = 0;
  size_t arrivals = 0;
  size_t backlog_at_end = 0;  ///< Arrivals unserved when the last arrived.
  size_t undrained = 0;  ///< Arrivals still unserved at the drain deadline.
  double cpu_ms = 0.0;

  /// The rung passes: nothing failed, p95 within the limit, and no
  /// backlog beyond one queued step per session.
  bool Meets(double limit_ms, size_t sessions) const {
    return failed == 0 && undrained == 0 && backlog_at_end <= sessions &&
           Percentile(step_ms, 0.95) <= limit_ms;
  }
};

/// The open-loop generator and everything it talks to.
class LoadGenerator {
 public:
  LoadGenerator(const RunConfig& config, size_t connections, size_t sessions,
                size_t steps_per_session, std::vector<uint64_t> seed_pool,
                Tracer* tracer, Report* report)
      : config_(config),
        steps_per_session_(steps_per_session),
        seed_pool_(std::move(seed_pool)),
        tracer_(tracer),
        report_(report),
        conns_(connections),
        slots_(sessions),
        rng_(MixSeed(config.seed, 7)) {}

  /// Starts a server with a fresh journal directory, connects and opens
  /// every session. Returns the wall time in ms.
  StatusOr<double> Setup(size_t index) {
    double t0 = NowMs();
    std::string journal_dir =
        config_.work_dir + "/journal-" + std::to_string(index);
    mkdir(journal_dir.c_str(), 0755);
    ServerOptions opts;
    opts.unix_path = config_.work_dir + "/svc-" + std::to_string(index) +
                     ".sock";
    size_t hw = std::max<unsigned>(std::thread::hardware_concurrency(), 2);
    opts.workers = hw - 1;
    opts.limits.max_sessions = slots_.size() + conns_.size();
    opts.limits.journal_dir = journal_dir;
    server_ = std::make_unique<CleaningServer>(opts);
    FALCON_RETURN_IF_ERROR(server_->Start());
    journal_dir_ = journal_dir;
    for (Conn& c : conns_) {
      FALCON_ASSIGN_OR_RETURN(c.fd, ConnectUnix(opts.unix_path));
      FALCON_RETURN_IF_ERROR(SetNonBlocking(c.fd.fd()));
    }
    // Analysts arrive one after another: each open waits for the previous
    // one, so set-up time is the opens' work, not their contention.
    for (size_t s = 0; s < slots_.size(); ++s) {
      slots_[s] = Slot();
      slots_[s].incarnation = s;
      SendOpen(static_cast<int>(s));
      FALCON_RETURN_IF_ERROR(WaitUntil(
          [&] { return slots_[s].state == Slot::State::kIdle; }));
    }
    return NowMs() - t0;
  }

  /// Closes every session and stops the server.
  Status Teardown() {
    Status st = WaitUntil([&] { return AllIdle(); });
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].state == Slot::State::kIdle) {
        SendRequest(static_cast<int>(s), Kind::kClose, CloseRequest(s), 0);
        slots_[s].state = Slot::State::kClosing;
      }
    }
    closing_for_good_ = true;
    Status closed = WaitUntil([&] { return OutstandingRequests() == 0; });
    for (Conn& c : conns_) {
      c.fd.Close();
      c.in.clear();
      c.out.clear();
      c.pending.clear();
    }
    closing_for_good_ = false;
    if (server_ != nullptr) {
      server_->Stop();
      server_->Wait();
      server_.reset();
    }
    FALCON_RETURN_IF_ERROR(st);
    return closed;
  }

  /// Offers `arrivals` Poisson step arrivals at `rate`, then waits for
  /// them to be served (bounded). Latencies go into the returned window.
  Window Offer(double rate, size_t arrivals) {
    Window w;
    window_ = &w;
    std::exponential_distribution<double> gap(rate);
    int64_t next = NowNs() + static_cast<int64_t>(gap(rng_) * 1e9);
    double cpu0 = ProcessCpuMs();
    while (w.arrivals < arrivals) {
      int64_t now = NowNs();
      while (next <= now && w.arrivals < arrivals) {
        Slot& slot = slots_[w.arrivals % slots_.size()];
        slot.due.push_back(next);
        w.late_ms.push_back(static_cast<double>(now - next) / 1e6);
        ++w.arrivals;
        next += static_cast<int64_t>(gap(rng_) * 1e9);
      }
      DispatchIdle();
      if (w.arrivals == arrivals) break;
      int64_t wait_ns = next - now;
      Pump(static_cast<int>(std::clamp<int64_t>(wait_ns / 1000000, 0, 5)));
    }
    w.backlog_at_end = PendingArrivals();
    // Drain: the window's arrivals must all be served within a bound, or
    // the backlog is growing.
    const int64_t drain_deadline = NowNs() + 5'000'000'000;
    while (PendingArrivals() > 0 && NowNs() < drain_deadline) {
      DispatchIdle();
      Pump(1);
    }
    w.undrained = PendingArrivals();
    for (Slot& s : slots_) s.due.clear();
    w.cpu_ms = ProcessCpuMs() - cpu0;
    window_ = nullptr;
    return w;
  }

  /// Sends a ping and returns its response.
  StatusOr<JsonValue> Ping() {
    ping_response_.reset();
    JsonValue req = JsonValue::Object();
    req.Set("verb", "ping");
    SendRequest(-1, Kind::kPing, req, 0);
    FALCON_RETURN_IF_ERROR(
        WaitUntil([&] { return ping_response_.has_value(); }));
    return *ping_response_;
  }

  void set_references(std::map<uint64_t, Reference> refs) {
    references_ = std::move(refs);
  }
  /// Request lines sent (with live session ids), for the replay.
  const std::vector<std::string>& log() const { return log_; }
  /// Live response of each logged request ("" until it arrived).
  const std::vector<std::string>& log_responses() const {
    return log_responses_;
  }
  void set_recording(bool on) { recording_ = on; }
  void set_tracing(bool on) { tracing_ = on; }

  const std::string& journal_dir() const { return journal_dir_; }
  size_t checked_sessions() const { return checked_; }
  std::vector<double> session_served_s() const { return served_s_; }
  size_t live_steps() const {
    size_t n = 0;
    for (const Slot& s : slots_) n += s.steps;
    return n;
  }
  size_t rejected() const { return rejected_; }

 private:
  bool AllIdle() const {
    return std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
      return s.state == Slot::State::kIdle;
    });
  }

  size_t OutstandingRequests() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  size_t PendingArrivals() const {
    size_t n = 0;
    for (const Slot& s : slots_) {
      n += s.due.size() + (s.state == Slot::State::kStepping ? 1 : 0);
    }
    return n;
  }

  template <typename Pred>
  Status WaitUntil(Pred done) {
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (!done()) {
      if (NowNs() > deadline) {
        return Status::DeadlineExceeded("service did not answer in time");
      }
      if (!io_status_.ok()) return io_status_;
      Pump(5);
    }
    return io_status_;
  }

  JsonValue CloseRequest(size_t s) const {
    JsonValue req = JsonValue::Object();
    req.Set("verb", "close");
    req.Set("session", slots_[s].id);
    return req;
  }

  void SendOpen(int s) {
    Slot& slot = slots_[s];
    slot.seed = seed_pool_[slot.incarnation % seed_pool_.size()];
    slot.state = Slot::State::kOpening;
    slot.steps = 0;
    slot.served_ms = 0.0;
    JsonValue req = JsonValue::Object();
    req.Set("verb", "open_session");
    req.Set("dataset", kDataset);
    req.Set("scale", 1.0);
    req.Set("seed", static_cast<int64_t>(slot.seed));
    req.Set("budget", 3);
    req.Set("algorithm", "CoDive");
    SendRequest(s, Kind::kOpen, req, 0);
  }

  void DispatchIdle() {
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.state != Slot::State::kIdle || slot.due.empty()) continue;
      JsonValue req = JsonValue::Object();
      req.Set("verb", "step");
      req.Set("session", slot.id);
      req.Set("episodes", 1);
      slot.state = Slot::State::kStepping;
      SendRequest(static_cast<int>(s), Kind::kStep, req, slot.due.front());
    }
  }

  void SendRequest(int s, Kind kind, const JsonValue& req, int64_t due) {
    Conn& c = conns_[s < 0 ? 0 : static_cast<size_t>(s) % conns_.size()];
    std::string line = req.Serialize();
    Pending p;
    p.slot = s;
    p.kind = kind;
    p.due_ns = due;
    p.record = log_.size();
    if (recording_) {
      log_.push_back(line);
      log_responses_.emplace_back();
    } else {
      p.record = SIZE_MAX;
    }
    p.send_ns = NowNs();
    c.pending.push_back(p);
    c.out += line;
    c.out += '\n';
    Flush(c);
  }

  void Flush(Conn& c) {
    while (!c.out.empty()) {
      ssize_t n = send(c.fd.fd(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        io_status_ = Status::Unavailable("send to the server failed");
        return;
      }
    }
  }

  /// Waits up to `timeout_ms` for socket events and handles responses.
  void Pump(int timeout_ms) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd.fd();
      fds[i].events =
          static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
    }
    int rc = poll(fds.data(), fds.size(), timeout_ms);
    if (rc <= 0) return;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      while (true) {
        ssize_t n = recv(c.fd.fd(), buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          io_status_ = Status::Unavailable("server closed the connection");
        }
        break;
      }
      size_t pos = 0;
      while (true) {
        size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        OnResponse(c, c.in.substr(pos, nl - pos));
        pos = nl + 1;
      }
      c.in.erase(0, pos);
    }
  }

  void OnResponse(Conn& c, const std::string& line) {
    int64_t now = NowNs();
    if (c.pending.empty()) {
      io_status_ = Status::Internal("response without a request");
      return;
    }
    Pending p = c.pending.front();
    c.pending.pop_front();
    if (p.record != SIZE_MAX) log_responses_[p.record] = line;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    bool ok = parsed.ok() && parsed->GetBool("ok", false);
    if (!ok && parsed.ok() && parsed->GetString("code") == "UNAVAILABLE") {
      ++rejected_;
    }
    double sent_ms = static_cast<double>(now - p.send_ns) / 1e6;
    if (p.kind == Kind::kPing) {
      ping_response_ = ok ? *parsed : JsonValue();
      return;
    }
    Slot& slot = slots_[static_cast<size_t>(p.slot)];
    if (tracing_) {
      static const char* kNames[] = {"client.open", "client.step",
                                     "client.close", "client.ping"};
      tracer_->Record(kNames[static_cast<int>(p.kind)], 0,
                      p.kind == Kind::kStep ? p.due_ns : p.send_ns, now);
    }
    switch (p.kind) {
      case Kind::kOpen:
        if (!ok) {
          io_status_ = Status::Internal("open_session failed: " + line);
          return;
        }
        slot.id = parsed->GetString("session");
        slot.state = Slot::State::kIdle;
        slot.served_ms += sent_ms;
        if (window_ != nullptr) window_->open_ms.push_back(sent_ms);
        break;
      case Kind::kStep: {
        slot.due.pop_front();
        double due_ms = static_cast<double>(now - p.due_ns) / 1e6;
        ++report_->attempted;
        if (!ok) {
          ++report_->failed;
          if (window_ != nullptr) ++window_->failed;
          slot.state = Slot::State::kIdle;
          break;
        }
        if (window_ != nullptr) {
          window_->step_ms.push_back(due_ms);
          window_->step_sent_ms.push_back(sent_ms);
        }
        slot.served_ms += due_ms;
        ++slot.steps;
        slot.last_status = *parsed;
        if (slot.steps >= steps_per_session_ ||
            parsed->GetBool("finished", false)) {
          slot.state = Slot::State::kClosing;
          SendRequest(p.slot, Kind::kClose, CloseRequest(p.slot), 0);
        } else {
          slot.state = Slot::State::kIdle;
        }
        break;
      }
      case Kind::kClose:
        if (!ok) {
          io_status_ = Status::Internal("close failed: " + line);
          return;
        }
        slot.served_ms += sent_ms;
        if (slot.steps > 0) CheckSession(slot);
        if (!closing_for_good_) {
          // Sessions closed at teardown stopped short of their schedule;
          // they are checked but not timed as whole sessions.
          served_s_.push_back(slot.served_ms / 1e3);
          slot.incarnation += slots_.size();
          SendOpen(p.slot);
        } else {
          slot.state = Slot::State::kIdle;
          slot.steps = 0;
        }
        break;
      case Kind::kPing:
        break;
    }
  }

  /// A closed session's last status must equal its serial in-process twin
  /// stepped as often.
  void CheckSession(const Slot& slot) {
    ++checked_;
    auto it = references_.find(slot.seed);
    if (it == references_.end() || slot.steps > it->second.size()) {
      report_->Gate(false, "no serial twin for service session " + slot.id);
      return;
    }
    const Snapshot& ref = it->second[slot.steps - 1];
    const JsonValue* m = slot.last_status.Find("metrics");
    auto count = [&](const char* key) {
      return m == nullptr ? -1 : m->GetInt(key, -1);
    };
    bool same =
        m != nullptr &&
        static_cast<uint32_t>(slot.last_status.GetInt("table_crc", -1)) ==
            ref.crc &&
        count("user_updates") ==
            static_cast<int64_t>(ref.metrics.user_updates) &&
        count("user_answers") ==
            static_cast<int64_t>(ref.metrics.user_answers) &&
        count("cells_repaired") ==
            static_cast<int64_t>(ref.metrics.cells_repaired) &&
        count("queries_applied") ==
            static_cast<int64_t>(ref.metrics.queries_applied) &&
        count("initial_errors") ==
            static_cast<int64_t>(ref.metrics.initial_errors);
    report_->Gate(same, "service session " + slot.id + " (seed " +
                            std::to_string(slot.seed) +
                            ") equals its serial run");
  }

  const RunConfig& config_;
  const size_t steps_per_session_;
  const std::vector<uint64_t> seed_pool_;
  Tracer* tracer_;
  Report* report_;
  std::unique_ptr<CleaningServer> server_;
  std::string journal_dir_;
  std::vector<Conn> conns_;
  std::vector<Slot> slots_;
  std::mt19937_64 rng_;
  std::map<uint64_t, Reference> references_;
  Window* window_ = nullptr;
  Status io_status_;
  bool closing_for_good_ = false;
  bool recording_ = false;
  bool tracing_ = false;
  std::vector<std::string> log_;
  std::vector<std::string> log_responses_;
  std::optional<JsonValue> ping_response_;
  size_t checked_ = 0;
  size_t rejected_ = 0;
  std::vector<double> served_s_;
};

/// Replays the logged request sequence single-threaded through
/// HandleRequest on a fresh SessionManager with the same limits, timing
/// the JSON parse + serialize apart from the handler. Step responses must
/// carry the live table CRCs.
struct ReplayResult {
  std::vector<double> handle_ms;  ///< Step requests only.
  std::vector<double> json_ms;
  bool identical = true;
};

ReplayResult Replay(const std::vector<std::string>& lines,
                    const std::vector<std::string>& live,
                    const std::string& journal_dir, size_t max_sessions,
                    size_t max_requests) {
  ReplayResult r;
  ServiceLimits limits;
  limits.max_sessions = max_sessions;
  limits.journal_dir = journal_dir;
  SessionManager manager(limits);
  std::map<std::string, std::string> ids;  // live id → replay id
  for (size_t i = 0; i < lines.size() && i < max_requests; ++i) {
    double t0 = NowMs();
    StatusOr<JsonValue> req = JsonValue::Parse(lines[i]);
    double parse_ms = NowMs() - t0;
    if (!req.ok()) {
      r.identical = false;
      continue;
    }
    std::string verb = req->GetString("verb");
    StatusOr<JsonValue> live_resp = JsonValue::Parse(live[i]);
    if (verb != "open_session") {
      std::string live_id = req->GetString("session");
      req->Set("session", ids[live_id]);
    }
    double h0 = NowMs();
    JsonValue resp = HandleRequest(manager, *req);
    double handle_ms = NowMs() - h0;
    double s0 = NowMs();
    std::string out = resp.Serialize();
    double serialize_ms = NowMs() - s0;
    if (!live_resp.ok()) {
      r.identical = false;
      continue;
    }
    if (verb == "open_session") {
      ids[live_resp->GetString("session")] = resp.GetString("session");
    } else if (verb == "step") {
      r.handle_ms.push_back(handle_ms);
      r.json_ms.push_back(parse_ms + serialize_ms);
      r.identical &= resp.GetInt("table_crc", -1) ==
                         live_resp->GetInt("table_crc", -2) &&
                     out.size() > 0;
    }
  }
  manager.CloseAll();
  return r;
}

}  // namespace

Status RunService(const RunConfig& config, Report* report) {
  const size_t hw = std::max<unsigned>(std::thread::hardware_concurrency(), 2);
  const size_t connections = hw;
  const size_t sessions = 2 * hw;
  const size_t steps_per_session = config.smoke ? 3 : 10;
  const size_t setups = config.smoke ? 1 : 15;

  // Each analyst slot cycles through its own seeds; incarnation i of the
  // run uses pool[i mod |pool|], and every pool seed has a serial twin.
  std::vector<uint64_t> seed_pool;
  for (size_t i = 0; i < sessions; ++i) {
    seed_pool.push_back(1 + (MixSeed(config.seed, 100 + i) & 0x7fffffff));
  }

  // Serial twins, built before the server so the gate can run as sessions
  // complete. Traced runs time the library layers on these twins: they
  // run the very sessions the server runs, minus the journal.
  double wl0 = NowMs();
  FALCON_ASSIGN_OR_RETURN(CleaningWorkload workload,
                          MakeCleaningWorkload(kDataset, 1.0));
  double workload_ms = NowMs() - wl0;
  Tracer ref_tracer(config.trace);
  LayerTotals ref_layers;
  std::map<uint64_t, Reference> refs;
  size_t interactions = 0;
  for (uint64_t seed : seed_pool) {
    FALCON_ASSIGN_OR_RETURN(
        Reference ref,
        RunReference(workload, seed, steps_per_session,
                     config.trace ? &ref_tracer : nullptr,
                     config.trace ? &ref_layers : nullptr));
    interactions += ref.back().metrics.TotalCost();
    refs.emplace(seed, std::move(ref));
  }

  Tracer tracer(config.trace);
  LoadGenerator gen(config, connections, sessions, steps_per_session,
                    seed_pool, &tracer, report);
  gen.set_references(std::move(refs));

  const double base_rate = RungRate(kBaseRung);
  // The measured time runs at the base rate: ~250 steps in 45 s, so p95
  // has over 10 samples beyond it.
  const size_t base_arrivals = config.smoke
                                   ? 20
                                   : static_cast<size_t>(base_rate *
                                                         config.seconds);
  // Set up a fresh server several times and report the median set-up; the
  // measured window runs on the last server. A traced run splits it into
  // an untraced and a traced half.
  std::vector<double> setup_ms;
  for (size_t i = 0; i < setups; ++i) {
    const bool last = i + 1 == setups;
    gen.set_recording(last);
    StatusOr<double> ms = gen.Setup(i);
    if (!ms.ok()) {
      (void)gen.Teardown();  // Best effort; the setup error is the one.
      return ms.status();
    }
    setup_ms.push_back(*ms);
    if (!last) FALCON_RETURN_IF_ERROR(gen.Teardown());
  }
  Window base;
  Window traced_half;
  if (!config.trace) {
    base = gen.Offer(base_rate, base_arrivals);
  } else {
    base = gen.Offer(base_rate, base_arrivals / 2);
    gen.set_recording(false);
    gen.set_tracing(true);
    traced_half = gen.Offer(base_rate, base_arrivals / 2);
  }
  report->Detail("base_rate_per_s", base_rate);
  report->Detail("step_samples", static_cast<double>(base.step_ms.size()));
  report->Detail("tail_percentile", 95);
  report->Detail("tail_supported", base.step_ms.size() >= 200 ? 1.0 : 0.0);
  report->Detail("base_undrained", static_cast<double>(base.undrained));
  report->Detail("generator_late_p99_ms", Percentile(base.late_ms, 0.99));
  report->Detail("connections", static_cast<double>(connections));
  report->Detail("sessions", static_cast<double>(sessions));

  if (!config.trace) {
    std::vector<double> served = gen.session_served_s();
    FALCON_RETURN_IF_ERROR(gen.Teardown());
    report->Gate(gen.checked_sessions() > 0,
                 "service sessions were checked against serial twins");
    report->Metric("setup_s", Median(setup_ms) / 1e3, "s");
    report->Metric("step_p50_ms", Median(base.step_ms), "ms");
    report->Metric("step_tail_ms", Percentile(base.step_ms, 0.95), "ms");
    report->Metric("session_s", Median(served), "s");
    report->Metric("interactions", static_cast<double>(interactions),
                   "count");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return Status::Ok();
  }

  // ---- Traced run: per-layer metrics ---------------------------------------
  StatusOr<JsonValue> ping = gen.Ping();
  FALCON_RETURN_IF_ERROR(ping.status());
  size_t journal_bytes = DirectoryBytes(gen.journal_dir());
  size_t live_steps = gen.live_steps();

  // Capacity: climb the ladder from the base rate until a rung misses the
  // limit. Each rung offers 3 s of arrivals.
  double max_rps = base.Meets(kLimitMs, sessions) &&
                           traced_half.Meets(kLimitMs, sessions)
                       ? base_rate
                       : 0.0;
  const double rung_s = config.smoke ? 0.3 : 3.0;
  std::string rungs;
  for (int rung = kBaseRung + 1; max_rps > 0.0 && rung <= kBaseRung + 10;
       ++rung) {
    double rate = RungRate(rung);
    Window w = gen.Offer(rate, static_cast<size_t>(rate * rung_s));
    bool pass = w.Meets(kLimitMs, sessions);
    rungs += std::to_string(rate) + ":" +
             std::to_string(Percentile(w.step_ms, 0.95)) +
             (pass ? ":pass " : ":fail ");
    if (!pass) break;
    max_rps = rate;
  }
  report->DetailText("ladder", rungs);
  report->Metric("svc_max_rps", max_rps, "1/s");
  FALCON_RETURN_IF_ERROR(gen.Teardown());
  report->Gate(gen.checked_sessions() > 0,
               "service sessions were checked against serial twins");

  std::string replay_dir = config.work_dir + "/replay";
  mkdir(replay_dir.c_str(), 0755);
  ReplayResult replay = Replay(gen.log(), gen.log_responses(), replay_dir,
                               sessions + connections, 200);
  report->Gate(replay.identical && !replay.handle_ms.empty(),
               "HandleRequest replay reproduces the live table CRCs");

  report->Metric("datagen.workload_ms", workload_ms, "ms");
  EmitSessionLayers(ref_layers, ref_tracer, report);
  double handle_ms = Mean(replay.handle_ms);
  double json_ms = Mean(replay.json_ms);
  double sent_ms = Mean(traced_half.step_sent_ms);
  double wait_ms = sent_ms - handle_ms - json_ms;
  report->Metric("service.handle_ms", handle_ms, "ms");
  report->Metric("service.json_ms", json_ms, "ms");
  report->Metric("service.wait_ms", wait_ms, "ms");
  size_t steps_done = base.step_ms.size() + traced_half.step_ms.size();
  report->Metric("service.cpu_ms_per_step",
                 (base.cpu_ms + traced_half.cpu_ms) /
                     static_cast<double>(std::max<size_t>(steps_done, 1)),
                 "ms");
  std::vector<double> opens = base.open_ms;
  opens.insert(opens.end(), traced_half.open_ms.begin(),
               traced_half.open_ms.end());
  report->Metric("service.open_ms", Mean(opens), "ms");
  report->Metric("service.rejected", static_cast<double>(gen.rejected()),
                 "count");
  report->Metric("shared.hit_rate", ping->GetDouble("shared_hit_rate"),
                 "share");
  report->Metric("journal.bytes_per_step",
                 static_cast<double>(journal_bytes) /
                     static_cast<double>(std::max<size_t>(live_steps, 1)),
                 "B");
  FALCON_ASSIGN_OR_RETURN(double checkpoint_ms,
                          EmitJournalProbes(workload.dirty, config, report));
  // A service step = transport/queue wait + JSON + handler. The handler's
  // parts timed here are one episode checkpoint (probe) and the session
  // layers of the serial twin; the rest (status CRC, journal appends,
  // correlation ranking, locking) is unattributed.
  double twin_steps =
      static_cast<double>(std::max<size_t>(ref_layers.steps, 1));
  double core_ms = (ref_layers.build_ms + ref_tracer.SelfMs("search") +
                    ref_tracer.TotalMs("oracle.answer")) /
                   twin_steps;
  double attributed = wait_ms + json_ms + checkpoint_ms + core_ms;
  // These replace the twins' in-process step figures EmitSessionLayers set.
  report->Metric("step.traced_ms", sent_ms, "ms");
  report->Metric("step.unattributed_share",
                 sent_ms <= 0.0 ? 0.0 : (sent_ms - attributed) / sent_ms,
                 "share");
  report->Metric("trace.overhead_ms",
                 Mean(traced_half.step_ms) - Mean(base.step_ms), "ms");
  report->Detail("twin_core_step_ms", core_ms);
  if (!config.trace_out.empty()) {
    FALCON_RETURN_IF_ERROR(tracer.WriteJsonLines(config.trace_out));
  }
  return Status::Ok();
}

}  // namespace falcon::perfbench
