// Transport-layer tests for the epoll I/O loop: incremental line framing
// (partial lines across reads, several lines per read), response ordering
// over per-connection slots, read-deadline eviction mid-line, oversized
// line rejection, adaptive overload backoff, and the shutdown drain that
// resolves every queued request with a typed UNAVAILABLE.
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/socket.h"
#include "service/client.h"
#include "service/server.h"

namespace falcon {
namespace {

// Small enough that a full-convergence step finishes in well under a
// second; big enough (see kBlockingScale) to pin a worker while a burst
// of pings is framed and queued on the I/O thread.
constexpr double kScale = 0.02;
constexpr double kBlockingScale = 0.3;

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<size_t>(n);
  }
}

JsonValue ReadResponse(LineChannel& channel) {
  std::string line;
  bool eof = false;
  Status read = channel.ReadLine(&line, &eof);
  EXPECT_TRUE(read.ok()) << read.ToString();
  EXPECT_FALSE(eof);
  auto parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Object();
}

// A worker posts a response before it counts the request finished, so a
// client can read the answer while the server still reports the request
// in flight. Waiting for idle after a reply makes the next inflight count
// belong to the next request.
void WaitIdle(const CleaningServer& server) {
  for (int i = 0; i < 50000 && (server.inflight_requests() != 0 ||
                                server.queued_requests() != 0);
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.inflight_requests(), 0u);
  ASSERT_EQ(server.queued_requests(), 0u);
}

TEST(ServiceTransportTest, PartialLineAcrossManyReadsIsReassembled) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_partial_test.sock";
  options.workers = 1;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  // Drip one request in byte-sized chunks with pauses so the server sees
  // many reads, each ending mid-line, before the newline finally lands.
  const std::string request = "{\"verb\":\"ping\"}\n";
  for (size_t i = 0; i < request.size(); i += 3) {
    SendAll(conn->fd(), request.substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  LineChannel channel(std::move(conn).value());
  channel.set_read_deadline(10000, /*from_first_byte=*/false);
  JsonValue resp = ReadResponse(channel);
  EXPECT_TRUE(resp.GetBool("ok"));
  EXPECT_GE(resp.GetInt("max_sessions"), 1);

  server.Stop();
  server.Wait();
}

TEST(ServiceTransportTest, ManyLinesInOneReadAnsweredInOrder) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_batch_test.sock";
  options.workers = 2;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  // One send carrying four frames: ping, a parse error, a NOT_FOUND
  // status, ping. Responses must come back in exactly this order even
  // though the middle two complete on the I/O thread while the pings run
  // on workers (per-connection slots serialize the contiguous prefix).
  SendAll(conn->fd(),
          "{\"verb\":\"ping\"}\n"
          "this is not json\n"
          "{\"verb\":\"status\",\"session\":\"s-999\"}\n"
          "{\"verb\":\"ping\"}\n");
  LineChannel channel(std::move(conn).value());
  channel.set_read_deadline(10000, /*from_first_byte=*/false);

  JsonValue first = ReadResponse(channel);
  EXPECT_TRUE(first.GetBool("ok"));
  EXPECT_GE(first.GetInt("max_sessions"), 1);
  JsonValue second = ReadResponse(channel);
  EXPECT_FALSE(second.GetBool("ok"));
  EXPECT_EQ(second.GetString("code"), "INVALID_ARGUMENT");
  JsonValue third = ReadResponse(channel);
  EXPECT_FALSE(third.GetBool("ok"));
  EXPECT_EQ(third.GetString("code"), "NOT_FOUND");
  JsonValue fourth = ReadResponse(channel);
  EXPECT_TRUE(fourth.GetBool("ok"));
  EXPECT_GE(fourth.GetInt("max_sessions"), 1);

  server.Stop();
  server.Wait();
}

TEST(ServiceTransportTest, ReadDeadlineEvictsMidLineThenClosesConnection) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_deadline_test.sock";
  options.workers = 1;
  options.read_deadline_ms = 150;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  SendAll(conn->fd(), "{\"verb\":\"pi");  // Never finishes the line.
  LineChannel channel(std::move(conn).value());
  channel.set_read_deadline(10000, /*from_first_byte=*/false);
  JsonValue resp = ReadResponse(channel);
  EXPECT_FALSE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("code"), "DEADLINE_EXCEEDED");
  EXPECT_NE(resp.GetString("error").find("read deadline"),
            std::string::npos);
  // After the typed error the server hangs up: next read is EOF.
  std::string line;
  bool eof = false;
  Status read = channel.ReadLine(&line, &eof);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(eof);

  server.Stop();
  server.Wait();
}

TEST(ServiceTransportTest, OversizedLineClosesConnection) {
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_oversize_test.sock";
  options.workers = 1;
  options.max_line_bytes = 4096;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn.ok());
  // A single frame beyond max_line_bytes: the server drops the connection
  // without buffering the rest (no response — a client that floods gets a
  // hangup, not an error it could retry forever).
  std::string huge = "{\"verb\":\"ping\",\"pad\":\"";
  huge.append(8192, 'x');
  huge += "\"}\n";
  SendAll(conn->fd(), huge);
  LineChannel channel(std::move(conn).value());
  channel.set_read_deadline(10000, /*from_first_byte=*/false);
  std::string line;
  bool eof = false;
  Status read = channel.ReadLine(&line, &eof);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(eof);
  EXPECT_TRUE(line.empty());

  server.Stop();
  server.Wait();
}

TEST(ServiceTransportTest, RetryAfterHintScalesWithQueueDepth) {
  // One worker, a tiny global queue, and a long-running step pinning the
  // worker: a burst of pings framed in one read fills the queue (hint
  // grows with depth) and overflows it (hint capped at 4x the base).
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_backoff_test.sock";
  options.workers = 1;
  options.queue_limit = 4;
  options.session_queue_limit = 0;
  options.retry_after_ms = 20;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn_a = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn_a.ok());
  int fd_a = conn_a->fd();
  LineChannel chan_a(std::move(conn_a).value());
  chan_a.set_read_deadline(60000, /*from_first_byte=*/false);
  SendAll(fd_a,
          "{\"verb\":\"open_session\",\"dataset\":\"Synth10k\","
          "\"scale\":" + std::to_string(kBlockingScale) +
              ",\"seed\":7}\n");
  JsonValue opened = ReadResponse(chan_a);
  ASSERT_TRUE(opened.GetBool("ok")) << opened.Serialize();
  std::string id = opened.GetString("session");
  WaitIdle(server);
  SendAll(fd_a, "{\"verb\":\"step\",\"session\":\"" + id +
                    "\",\"episodes\":0}\n");
  // Wait until the step is provably executing (not merely queued, not
  // still unread in the socket): from here until it finishes the single
  // worker cannot drain pings.
  for (int i = 0; i < 50000 && server.inflight_requests() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.inflight_requests(), 1u);
  ASSERT_EQ(server.queued_requests(), 0u);

  // Eight pings in one send: the I/O thread frames and submits them
  // back-to-back, so four fill the queue and four are rejected.
  auto conn_b = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn_b.ok());
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "{\"verb\":\"ping\"}\n";
  SendAll(conn_b->fd(), burst);
  LineChannel chan_b(std::move(conn_b).value());
  chan_b.set_read_deadline(60000, /*from_first_byte=*/false);

  size_t served = 0;
  std::vector<int64_t> hints;
  for (int i = 0; i < 8; ++i) {
    JsonValue resp = ReadResponse(chan_b);
    if (resp.GetBool("ok")) {
      ++served;
    } else {
      EXPECT_EQ(resp.GetString("code"), "UNAVAILABLE");
      hints.push_back(resp.GetInt("retry_after_ms"));
    }
  }
  EXPECT_EQ(served, 4u);
  ASSERT_EQ(hints.size(), 4u);
  for (int64_t hint : hints) {
    // Full queue → base + 3*base*queued/limit = 4x the base hint.
    EXPECT_EQ(hint, 4 * options.retry_after_ms);
  }

  // The blocking step still completes and answers on connection A.
  JsonValue stepped = ReadResponse(chan_a);
  EXPECT_TRUE(stepped.GetBool("ok")) << stepped.Serialize();
  EXPECT_TRUE(stepped.GetBool("finished"));

  server.Stop();
  server.Wait();
}

TEST(ServiceTransportTest, StopResolvesQueuedRequestsWithUnavailable) {
  // Shutdown-drain regression: requests still queued when Stop() lands
  // must each get a typed UNAVAILABLE response — never a dropped promise
  // or a silent hangup — while the in-flight request finishes normally.
  ServerOptions options;
  options.unix_path = "/tmp/falcon_transport_drain_test.sock";
  options.workers = 1;
  options.queue_limit = 64;
  CleaningServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto conn_a = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn_a.ok());
  int fd_a = conn_a->fd();
  LineChannel chan_a(std::move(conn_a).value());
  chan_a.set_read_deadline(60000, /*from_first_byte=*/false);
  SendAll(fd_a,
          "{\"verb\":\"open_session\",\"dataset\":\"Synth10k\","
          "\"scale\":" + std::to_string(kBlockingScale) +
              ",\"seed\":11}\n");
  JsonValue opened = ReadResponse(chan_a);
  ASSERT_TRUE(opened.GetBool("ok")) << opened.Serialize();
  std::string id = opened.GetString("session");
  WaitIdle(server);
  SendAll(fd_a, "{\"verb\":\"step\",\"session\":\"" + id +
                    "\",\"episodes\":0}\n");
  for (int i = 0; i < 50000 && server.inflight_requests() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.inflight_requests(), 1u);
  ASSERT_EQ(server.queued_requests(), 0u);

  // Queue five pings behind the busy worker, then stop the server once
  // all five are visibly queued.
  auto conn_b = ConnectUnix(options.unix_path);
  ASSERT_TRUE(conn_b.ok());
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += "{\"verb\":\"ping\"}\n";
  SendAll(conn_b->fd(), burst);
  LineChannel chan_b(std::move(conn_b).value());
  chan_b.set_read_deadline(60000, /*from_first_byte=*/false);
  for (int i = 0; i < 20000 && server.queued_requests() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(server.queued_requests(), 5u);
  server.Stop();

  for (int i = 0; i < 5; ++i) {
    JsonValue resp = ReadResponse(chan_b);
    EXPECT_FALSE(resp.GetBool("ok"));
    EXPECT_EQ(resp.GetString("code"), "UNAVAILABLE");
    EXPECT_NE(resp.GetString("error").find("shutting down"),
              std::string::npos);
  }
  // The in-flight step was not abandoned: its response is flushed before
  // the I/O loop exits.
  JsonValue stepped = ReadResponse(chan_a);
  EXPECT_TRUE(stepped.GetBool("ok")) << stepped.Serialize();
  EXPECT_TRUE(stepped.GetBool("finished"));

  server.Wait();
}

}  // namespace
}  // namespace falcon
