// Loopback integration for the network layer: a NetServer-hosted
// UntrustedServer must be observationally identical to the in-process
// transport — byte-identical results and stored state — under single and
// concurrent clients, with pipelining, health checks, connection limits,
// idle reaping, and framing violations all behaving as specified.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "crypto/sha256_compress.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "protocol/messages.h"
#include "server/durable_store.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Value;
using rel::ValueType;

Schema TableSchema() {
  auto s = Schema::Create({
      {"key", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Relation BuildTable(const std::string& name, size_t n) {
  Relation table(name, TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("k" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 10))})
                    .ok());
  }
  return table;
}

Bytes ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return Bytes((std::istreambuf_iterator<char>(file)),
               std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The Outsource → Select → SelectBatch → Insert → DeleteWhere → Recall
/// sequence every comparison runs; deterministic given (master, seed).
struct OpResults {
  Status outsource;
  Relation select;
  std::vector<Relation> batch;
  Status insert;
  Result<size_t> deleted = Status::Internal("unset");
  Result<Relation> recall = Status::Internal("unset");
  bool all_ok = false;
};

OpResults RunCanonicalOps(client::Client* client, const std::string& name) {
  OpResults out;
  out.outsource = client->Outsource(BuildTable(name, 120));
  auto select = client->Select(name, "grp", Value::Int(4));
  std::vector<std::pair<std::string, Value>> queries;
  for (int g = 0; g < 10; ++g) queries.emplace_back("grp", Value::Int(g));
  auto batch = client->SelectBatch(name, queries);
  out.insert = client->Insert(
      name, {rel::Tuple({Value::Str("new1"), Value::Int(3)}),
             rel::Tuple({Value::Str("new2"), Value::Int(3)})});
  out.deleted = client->DeleteWhere(name, "grp", Value::Int(7));
  out.recall = client->Recall(name);

  out.all_ok = out.outsource.ok() && select.ok() && batch.ok() &&
               out.insert.ok() && out.deleted.ok() && out.recall.ok();
  if (select.ok()) out.select = std::move(*select);
  if (batch.ok()) out.batch = std::move(*batch);
  return out;
}

void ExpectSameResults(const OpResults& a, const OpResults& b) {
  ASSERT_TRUE(a.all_ok);
  ASSERT_TRUE(b.all_ok);
  EXPECT_TRUE(a.select.SameTuples(b.select));
  ASSERT_EQ(a.batch.size(), b.batch.size());
  for (size_t i = 0; i < a.batch.size(); ++i) {
    EXPECT_TRUE(a.batch[i].SameTuples(b.batch[i])) << "batch query " << i;
  }
  EXPECT_EQ(*a.deleted, *b.deleted);
  EXPECT_TRUE(a.recall->SameTuples(*b.recall));
  EXPECT_EQ(a.recall->size(), b.recall->size());
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(net::NetServerOptions options = {},
                   server::ServerRuntimeOptions runtime = {}) {
    served_server_ = std::make_unique<server::UntrustedServer>(runtime);
    net_server_ =
        std::make_unique<net::NetServer>(served_server_.get(), options);
    ASSERT_TRUE(net_server_->Start().ok());
    ASSERT_NE(net_server_->port(), 0);
  }

  std::shared_ptr<net::TcpTransport> Transport() {
    auto t = net::TcpTransport::Connect("127.0.0.1", net_server_->port());
    EXPECT_TRUE(t.ok()) << t.status();
    return *t;
  }

  std::unique_ptr<server::UntrustedServer> served_server_;
  std::unique_ptr<net::NetServer> net_server_;
};

TEST_F(NetServerTest, SocketDeploymentMatchesInProcessByteForByte) {
  StartServer();

  // Same master key + DRBG seed on both sides: ciphertexts, trapdoors and
  // therefore every result and the stored server state must agree to the
  // byte, proving the wire carries envelopes unchanged.
  crypto::HmacDrbg remote_rng("net-e2e", 1);
  client::Client remote(ToBytes("net master"), Transport()->AsTransport(),
                        &remote_rng);
  OpResults remote_results = RunCanonicalOps(&remote, "T");

  server::UntrustedServer twin_server;
  crypto::HmacDrbg local_rng("net-e2e", 1);
  client::Client local(
      ToBytes("net master"),
      [&](const Bytes& request) { return twin_server.HandleRequest(request); },
      &local_rng);
  OpResults local_results = RunCanonicalOps(&local, "T");

  ExpectSameResults(remote_results, local_results);

  // Byte-level: both servers persist to identical files.
  net_server_->Stop();
  std::string remote_path = TempPath("net_e2e_remote.dbph");
  std::string local_path = TempPath("net_e2e_local.dbph");
  ASSERT_TRUE(served_server_->SaveTo(remote_path).ok());
  ASSERT_TRUE(twin_server.SaveTo(local_path).ok());
  EXPECT_EQ(ReadFileBytes(remote_path), ReadFileBytes(local_path));
  std::remove(remote_path.c_str());
  std::remove(local_path.c_str());
}

TEST_F(NetServerTest, FourConcurrentClientsMatchInProcessBaseline) {
  server::ServerRuntimeOptions runtime;
  runtime.num_threads = 2;
  StartServer({}, runtime);

  constexpr size_t kClients = 4;
  std::vector<OpResults> remote_results(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &remote_results] {
      crypto::HmacDrbg rng("net-multi", i);
      client::Client client(ToBytes("master-" + std::to_string(i)),
                            Transport()->AsTransport(), &rng);
      remote_results[i] =
          RunCanonicalOps(&client, "T" + std::to_string(i));
    });
  }
  for (auto& thread : threads) thread.join();

  // The same four clients, sequentially, against an in-process twin.
  server::UntrustedServer twin_server(runtime);
  std::vector<OpResults> local_results(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    crypto::HmacDrbg rng("net-multi", i);
    client::Client client(
        ToBytes("master-" + std::to_string(i)),
        [&](const Bytes& request) {
          return twin_server.HandleRequest(request);
        },
        &rng);
    local_results[i] = RunCanonicalOps(&client, "T" + std::to_string(i));
  }
  for (size_t i = 0; i < kClients; ++i) {
    ExpectSameResults(remote_results[i], local_results[i]);
  }

  // Per-relation state is independent of how the four sessions interleaved
  // on the wire, so the persisted images must still be byte-identical.
  net_server_->Stop();
  std::string remote_path = TempPath("net_multi_remote.dbph");
  std::string local_path = TempPath("net_multi_local.dbph");
  ASSERT_TRUE(served_server_->SaveTo(remote_path).ok());
  ASSERT_TRUE(twin_server.SaveTo(local_path).ok());
  EXPECT_EQ(ReadFileBytes(remote_path), ReadFileBytes(local_path));
  std::remove(remote_path.c_str());
  std::remove(local_path.c_str());
}

TEST_F(NetServerTest, PingPongHealthCheck) {
  StartServer();
  auto transport = Transport();
  EXPECT_TRUE(transport->Ping().ok());
  EXPECT_TRUE(transport->Ping().ok());
  auto stats = net_server_->stats();
  EXPECT_EQ(stats.frames_in, 2u);
  EXPECT_EQ(stats.frames_out, 2u);
}

TEST_F(NetServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  // Fire 20 pings with distinct cookies in one burst, then collect; the
  // responses must come back in request order.
  constexpr uint64_t kCount = 20;
  Bytes burst;
  for (uint64_t i = 0; i < kCount; ++i) {
    protocol::Envelope ping;
    ping.type = protocol::MessageType::kPing;
    AppendUint64(&ping.payload, i);
    ASSERT_TRUE(net::AppendFrame(&burst, ping.Serialize()).ok());
  }
  ASSERT_TRUE(net::SendAll(fd->get(), burst.data(), burst.size()).ok());

  net::FrameReader reader;
  uint8_t buf[4096];
  std::vector<Bytes> frames;
  while (frames.size() < kCount) {
    ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)).ok());
    while (auto frame = reader.NextFrame()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    auto envelope = protocol::Envelope::Parse(frames[i]);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ(envelope->type, protocol::MessageType::kPong);
    ByteReader cookie(envelope->payload);
    EXPECT_EQ(*cookie.ReadUint64(), i);
  }
}

TEST_F(NetServerTest, HalfCloseStillDeliversPipelinedResponsesThenEof) {
  StartServer();
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  // Pipeline a burst, then shut down our write side before reading
  // anything: the server must answer everything queued, then close.
  constexpr uint64_t kCount = 10;
  Bytes burst;
  for (uint64_t i = 0; i < kCount; ++i) {
    protocol::Envelope ping;
    ping.type = protocol::MessageType::kPing;
    AppendUint64(&ping.payload, i);
    ASSERT_TRUE(net::AppendFrame(&burst, ping.Serialize()).ok());
  }
  ASSERT_TRUE(net::SendAll(fd->get(), burst.data(), burst.size()).ok());
  ASSERT_EQ(::shutdown(fd->get(), SHUT_WR), 0);

  net::FrameReader reader;
  uint8_t buf[4096];
  std::vector<Bytes> frames;
  bool eof = false;
  while (!eof) {
    ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    if (n == 0) {
      eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)).ok());
    while (auto frame = reader.NextFrame()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    auto envelope = protocol::Envelope::Parse(frames[i]);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ(envelope->type, protocol::MessageType::kPong);
  }
}

TEST_F(NetServerTest, WriteBackpressurePausesReadsWithoutLosingFrames) {
  // A tiny write budget forces the pause/resume path: the server may
  // hold at most ~one response of budget, yet every pipelined request
  // must still be answered, in order, as the client drains.
  net::NetServerOptions options;
  options.max_pending_write_bytes = 64;  // a pong frame is ~17 bytes
  StartServer(options);
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  constexpr uint64_t kCount = 200;
  Bytes burst;
  for (uint64_t i = 0; i < kCount; ++i) {
    protocol::Envelope ping;
    ping.type = protocol::MessageType::kPing;
    AppendUint64(&ping.payload, i);
    ASSERT_TRUE(net::AppendFrame(&burst, ping.Serialize()).ok());
  }
  ASSERT_TRUE(net::SendAll(fd->get(), burst.data(), burst.size()).ok());

  net::FrameReader reader;
  uint8_t buf[512];  // drain slowly to keep the server paused at times
  std::vector<Bytes> frames;
  while (frames.size() < kCount) {
    ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)).ok());
    while (auto frame = reader.NextFrame()) frames.push_back(std::move(*frame));
  }
  for (uint64_t i = 0; i < kCount; ++i) {
    auto envelope = protocol::Envelope::Parse(frames[i]);
    ASSERT_TRUE(envelope.ok());
    ASSERT_EQ(envelope->type, protocol::MessageType::kPong);
    ByteReader cookie(envelope->payload);
    EXPECT_EQ(*cookie.ReadUint64(), i);
  }
}

TEST_F(NetServerTest, MalformedEnvelopeGetsErrorAndConnectionSurvives) {
  StartServer();
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  Bytes wire;
  ASSERT_TRUE(net::AppendFrame(&wire, ToBytes("not an envelope")).ok());
  ASSERT_TRUE(net::SendAll(fd->get(), wire.data(), wire.size()).ok());

  uint8_t header[4];
  ASSERT_TRUE(net::RecvExact(fd->get(), header, 4).ok());
  size_t length = (static_cast<size_t>(header[0]) << 24) |
                  (static_cast<size_t>(header[1]) << 16) |
                  (static_cast<size_t>(header[2]) << 8) |
                  static_cast<size_t>(header[3]);
  Bytes body(length);
  ASSERT_TRUE(net::RecvExact(fd->get(), body.data(), body.size()).ok());
  auto envelope = protocol::Envelope::Parse(body);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->type, protocol::MessageType::kError);

  // Same connection still serves pings: envelope-level garbage is not a
  // framing violation.
  protocol::Envelope ping;
  ping.type = protocol::MessageType::kPing;
  AppendUint64(&ping.payload, 42);
  Bytes ping_wire;
  ASSERT_TRUE(net::AppendFrame(&ping_wire, ping.Serialize()).ok());
  ASSERT_TRUE(
      net::SendAll(fd->get(), ping_wire.data(), ping_wire.size()).ok());
  ASSERT_TRUE(net::RecvExact(fd->get(), header, 4).ok());
}

TEST_F(NetServerTest, FramingViolationClosesTheConnection) {
  net::NetServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(options);
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  Bytes header;
  AppendUint32(&header, 4097);  // over the server's cap
  ASSERT_TRUE(net::SendAll(fd->get(), header.data(), header.size()).ok());

  uint8_t byte;
  Status closed = net::RecvExact(fd->get(), &byte, 1);
  EXPECT_FALSE(closed.ok());
  EXPECT_GE(net_server_->stats().framing_errors, 1u);
}

TEST_F(NetServerTest, ConnectionLimitRejectsExcessClients) {
  net::NetServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  auto first = Transport();
  ASSERT_TRUE(first->Ping().ok());  // registered with the loop

  auto second = Transport();  // TCP connect succeeds via the backlog...
  EXPECT_FALSE(second->Ping().ok());  // ...but the loop closes it at accept
  EXPECT_GE(net_server_->stats().rejected, 1u);

  // The first connection is unaffected.
  EXPECT_TRUE(first->Ping().ok());
}

TEST_F(NetServerTest, IdleConnectionsAreReaped) {
  net::NetServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  // A silent connection must be closed by the server within a few
  // timeout periods; bound the wait so a regression fails, not hangs.
  timeval timeout{2, 0};
  ::setsockopt(fd->get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  uint8_t byte;
  ssize_t n = ::recv(fd->get(), &byte, 1, 0);
  EXPECT_EQ(n, 0) << "expected EOF from idle reaping";
  EXPECT_GE(net_server_->stats().timed_out, 1u);
}

TEST_F(NetServerTest, LargeInboundFrameUnderTinyWriteBudgetIsNotReaped) {
  // Regression: the read gate used to count partial-frame bytes against
  // the write budget, so an inbound frame larger than the budget could
  // never finish arriving — the connection stalled with a half-read
  // frame until the idle reaper killed it, despite a healthy peer
  // actively sending. The gate must pause on *complete-frame* backlog
  // only (partial bytes are separately bounded by max_frame_bytes).
  net::NetServerOptions options;
  options.max_pending_write_bytes = 64;  // far below the 8 KiB frame
  options.idle_timeout_ms = 200;
  StartServer(options);
  auto fd = net::ConnectTo("127.0.0.1", net_server_->port());
  ASSERT_TRUE(fd.ok());

  protocol::Envelope ping;
  ping.type = protocol::MessageType::kPing;
  ping.payload.assign(8192, 0xAB);
  Bytes wire;
  ASSERT_TRUE(net::AppendFrame(&wire, ping.Serialize()).ok());
  ASSERT_TRUE(net::SendAll(fd->get(), wire.data(), wire.size()).ok());

  // Bound the wait: a regression must fail the recv, not hang the test.
  timeval timeout{5, 0};
  ::setsockopt(fd->get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  net::FrameReader reader;
  uint8_t buf[512];  // drain slowly so the response stays over budget too
  Bytes pong_frame;
  for (;;) {
    ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection stalled or reaped mid-frame";
    ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)).ok());
    if (auto frame = reader.NextFrame()) {
      pong_frame = std::move(*frame);
      break;
    }
  }
  auto pong = protocol::Envelope::Parse(pong_frame);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, protocol::MessageType::kPong);
  EXPECT_EQ(pong->payload, ping.payload);
  EXPECT_EQ(net_server_->stats().timed_out, 0u);
}

TEST_F(NetServerTest, ReadWorkerPoolMatchesInProcessBaseline) {
  // read_workers > 0 routes complete frames through the worker pool
  // (snapshot reads concurrent, mutations serialized); results and
  // persisted state must stay byte-identical to the synchronous
  // in-process dispatch, even with concurrent clients interleaving.
  net::NetServerOptions options;
  options.read_workers = 2;
  server::ServerRuntimeOptions runtime;
  runtime.num_threads = 2;
  StartServer(options, runtime);

  constexpr size_t kClients = 3;
  std::vector<OpResults> remote_results(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &remote_results] {
      crypto::HmacDrbg rng("net-workers", i);
      client::Client client(ToBytes("worker-master-" + std::to_string(i)),
                            Transport()->AsTransport(), &rng);
      remote_results[i] = RunCanonicalOps(&client, "W" + std::to_string(i));
    });
  }
  for (auto& thread : threads) thread.join();

  server::UntrustedServer twin_server(runtime);
  std::vector<OpResults> local_results(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    crypto::HmacDrbg rng("net-workers", i);
    client::Client client(
        ToBytes("worker-master-" + std::to_string(i)),
        [&](const Bytes& request) {
          return twin_server.HandleRequest(request);
        },
        &rng);
    local_results[i] = RunCanonicalOps(&client, "W" + std::to_string(i));
  }
  for (size_t i = 0; i < kClients; ++i) {
    ExpectSameResults(remote_results[i], local_results[i]);
  }

  net_server_->Stop();
  std::string remote_path = TempPath("net_workers_remote.dbph");
  std::string local_path = TempPath("net_workers_local.dbph");
  ASSERT_TRUE(served_server_->SaveTo(remote_path).ok());
  ASSERT_TRUE(twin_server.SaveTo(local_path).ok());
  EXPECT_EQ(ReadFileBytes(remote_path), ReadFileBytes(local_path));
  std::remove(remote_path.c_str());
  std::remove(local_path.c_str());
}

TEST(NetDurabilityTest, PipelinedMutationsAnswerInOrderAndSurviveRestart) {
  // One TCP connection pipelines Insert / DeleteWhere / Select / kFlush
  // in a single burst against a durable deployment; responses must come
  // back strictly in request order and byte-identical to an in-process
  // twin. Then the deployment is killed (no Close) and a second server
  // opened on the same --persist directory must serve the mutated state
  // to a reattaching key holder.
  std::string dir = ::testing::TempDir() + "/net_durable_dir";
  std::filesystem::remove_all(dir);

  // Record the canonical op sequence against an in-process twin: the
  // exact request bytes to pipeline and the exact responses to expect.
  server::UntrustedServer twin;
  std::vector<Bytes> requests;
  std::vector<Bytes> responses;
  crypto::HmacDrbg rng("net-pipeline", 1);
  client::Client recorder(
      ToBytes("pipeline master"),
      [&](const Bytes& request) {
        Bytes response = twin.HandleRequest(request);
        requests.push_back(request);
        responses.push_back(response);
        return response;
      },
      &rng);
  ASSERT_TRUE(recorder.Outsource(BuildTable("P", 60)).ok());
  ASSERT_TRUE(recorder
                  .Insert("P", {rel::Tuple({Value::Str("new1"), Value::Int(3)}),
                                rel::Tuple({Value::Str("new2"), Value::Int(2)})})
                  .ok());
  auto twin_mid_select = recorder.Select("P", "grp", Value::Int(3));
  ASSERT_TRUE(twin_mid_select.ok());
  auto twin_removed = recorder.DeleteWhere("P", "grp", Value::Int(2));
  ASSERT_TRUE(twin_removed.ok());
  EXPECT_GT(*twin_removed, 0u);
  auto twin_final_select = recorder.Select("P", "grp", Value::Int(2));
  ASSERT_TRUE(twin_final_select.ok());
  EXPECT_TRUE(twin_final_select->empty());
  ASSERT_EQ(requests.size(), 5u);

  protocol::Envelope flush;
  flush.type = protocol::MessageType::kFlush;
  protocol::Envelope flush_ok;
  flush_ok.type = protocol::MessageType::kFlushOk;

  // The burst: store, insert, select, FLUSH, delete, select, FLUSH.
  std::vector<Bytes> burst_requests = {requests[0], requests[1], requests[2],
                                       flush.Serialize(),  requests[3],
                                       requests[4],        flush.Serialize()};
  std::vector<Bytes> expected = {responses[0],        responses[1],
                                 responses[2],        flush_ok.Serialize(),
                                 responses[3],        responses[4],
                                 flush_ok.Serialize()};

  server::DurableStoreOptions store_options;
  store_options.background_thread = false;
  {
    auto eve = std::make_unique<server::UntrustedServer>();
    auto store =
        std::make_unique<server::DurableStore>(eve.get(), dir, store_options);
    ASSERT_TRUE(store->Open().ok());
    net::NetServer net_server(eve.get());
    ASSERT_TRUE(net_server.Start().ok());

    auto fd = net::ConnectTo("127.0.0.1", net_server.port());
    ASSERT_TRUE(fd.ok());
    Bytes burst;
    for (const Bytes& request : burst_requests) {
      ASSERT_TRUE(net::AppendFrame(&burst, request).ok());
    }
    ASSERT_TRUE(net::SendAll(fd->get(), burst.data(), burst.size()).ok());

    net::FrameReader reader;
    uint8_t buf[8192];
    std::vector<Bytes> frames;
    while (frames.size() < expected.size()) {
      ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      ASSERT_TRUE(reader.Feed(buf, static_cast<size_t>(n)).ok());
      while (auto frame = reader.NextFrame()) {
        frames.push_back(std::move(*frame));
      }
    }
    ASSERT_EQ(frames.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(frames[i], expected[i]) << "response " << i;
    }

    net_server.Stop();
    // kill -9: the store is destroyed without Close — no final
    // checkpoint, just whatever the (fsync=always) WAL holds.
  }

  // "Second dbph_serverd process" on the same persist dir.
  server::UntrustedServer restarted;
  server::DurableStore recovered(&restarted, dir, store_options);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_GT(recovered.stats().replayed_records, 0u);
  net::NetServer second(&restarted);
  ASSERT_TRUE(second.Start().ok());

  auto transport = net::TcpTransport::Connect("127.0.0.1", second.port());
  ASSERT_TRUE(transport.ok());
  crypto::HmacDrbg fresh_rng("net-pipeline-reattach", 2);
  client::Client reattached(ToBytes("pipeline master"),
                            (*transport)->AsTransport(), &fresh_rng);
  ASSERT_TRUE(reattached.Adopt("P", TableSchema()).ok());
  auto grp3 = reattached.Select("P", "grp", Value::Int(3));
  ASSERT_TRUE(grp3.ok());
  EXPECT_TRUE(grp3->SameTuples(*twin_mid_select));
  auto grp2 = reattached.Select("P", "grp", Value::Int(2));
  ASSERT_TRUE(grp2.ok());
  EXPECT_TRUE(grp2->empty());
  auto recalled = reattached.Recall("P");
  auto twin_recalled = recorder.Recall("P");
  ASSERT_TRUE(recalled.ok());
  ASSERT_TRUE(twin_recalled.ok());
  EXPECT_TRUE(recalled->SameTuples(*twin_recalled));
  second.Stop();
}

TEST_F(NetServerTest, StatsOverSocketCarrySeriesFromEveryLayer) {
  StartServer();
  crypto::HmacDrbg rng("net-stats", 1);
  client::Client client(ToBytes("stats master"), Transport()->AsTransport(),
                        &rng);
  ASSERT_TRUE(client.Outsource(BuildTable("S", 50)).ok());
  auto hit = client.Select("S", "grp", Value::Int(3));
  ASSERT_TRUE(hit.ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Dispatch layer: the outsource + select we just ran.
  ASSERT_TRUE(stats->counters.count("dbph_requests_total"));
  EXPECT_GE(stats->counters.at("dbph_requests_total"), 2u);
  ASSERT_TRUE(stats->histograms.count("dbph_select_seconds"));
  EXPECT_GE(stats->histograms.at("dbph_select_seconds").count, 1u);
  ASSERT_TRUE(stats->histograms.count("dbph_dispatch_lock_wait_seconds"));
  EXPECT_GE(stats->histograms.at("dbph_dispatch_lock_wait_seconds").count, 2u);
  // Net layer: this very connection shows up in its own snapshot.
  ASSERT_TRUE(stats->counters.count("dbph_net_connections_accepted_total"));
  EXPECT_GE(stats->counters.at("dbph_net_connections_accepted_total"), 1u);
  ASSERT_TRUE(stats->counters.count("dbph_net_frames_in_total"));
  EXPECT_GE(stats->counters.at("dbph_net_frames_in_total"), 2u);
  ASSERT_TRUE(stats->gauges.count("dbph_net_connections_open"));
  EXPECT_GE(stats->gauges.at("dbph_net_connections_open"), 1);
  // Index layer gauges registered by the served server.
  EXPECT_TRUE(stats->gauges.count("dbph_index_trapdoors"));
  EXPECT_TRUE(stats->gauges.count("dbph_server_relations"));
  // Build identity names the batch SHA-256 kernel, in the info series
  // and in the text REPL STATS prints.
  ASSERT_TRUE(stats->infos.count("dbph_build_info"));
  const std::string kernel_label =
      std::string("sha256_kernel=\"") +
      crypto::Sha256KernelName(crypto::ActiveSha256Kernel()) + "\"";
  EXPECT_NE(stats->infos.at("dbph_build_info").find(kernel_label),
            std::string::npos);
  EXPECT_NE(stats->RenderText().find(kernel_label), std::string::npos);
}

TEST_F(NetServerTest, MetricsPortServesPrometheusText) {
  net::NetServerOptions options;
  options.metrics_port = 0;  // ephemeral, reported via metrics_http_port()
  StartServer(options);
  ASSERT_NE(net_server_->metrics_http_port(), 0);

  crypto::HmacDrbg rng("net-scrape", 1);
  client::Client client(ToBytes("scrape master"), Transport()->AsTransport(),
                        &rng);
  ASSERT_TRUE(client.Outsource(BuildTable("M", 40)).ok());
  ASSERT_TRUE(client.Select("M", "grp", Value::Int(1)).ok());

  auto scrape = [&](const std::string& request) {
    auto fd = net::ConnectTo("127.0.0.1", net_server_->metrics_http_port());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(net::SendAll(fd->get(),
                             reinterpret_cast<const uint8_t*>(request.data()),
                             request.size())
                    .ok());
    std::string page;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
      if (n <= 0) break;  // the responder closes after one exchange
      page.append(buf, static_cast<size_t>(n));
    }
    return page;
  };

  std::string page = scrape("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(page.find("text/plain"), std::string::npos);
  // One series from each instrumented layer, in Prometheus form.
  EXPECT_NE(page.find("# TYPE dbph_requests_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("dbph_net_frames_in_total"), std::string::npos);
  EXPECT_NE(page.find("dbph_select_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(page.find("dbph_dispatch_lock_wait_seconds_sum"),
            std::string::npos);
  EXPECT_NE(page.find("dbph_index_trapdoors"), std::string::npos);
  EXPECT_NE(page.find(std::string("sha256_kernel=\"") +
                      crypto::Sha256KernelName(crypto::ActiveSha256Kernel()) +
                      "\"} 1"),
            std::string::npos);

  // Non-GET requests are refused without touching the store.
  std::string refused = scrape("POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(refused.find("405"), std::string::npos);

  // The scrape itself was counted.
  std::string again = scrape("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(again.find("dbph_net_metrics_scrapes_total"), std::string::npos);
  EXPECT_GE(net_server_->stats().metrics_scrapes, 2u);
}

TEST_F(NetServerTest, TransportReconnectsAfterServerRestart) {
  StartServer();
  auto transport = Transport();
  ASSERT_TRUE(transport->Ping().ok());

  net_server_->Stop();
  EXPECT_FALSE(transport->Ping().ok());

  // Restart on a fresh ephemeral port; a new transport works, proving
  // Stop released everything Start needs.
  net_server_ = std::make_unique<net::NetServer>(served_server_.get());
  ASSERT_TRUE(net_server_->Start().ok());
  auto fresh = Transport();
  EXPECT_TRUE(fresh->Ping().ok());
}

TEST_F(NetServerTest, TransportReconnectsAfterIdleClose) {
  net::NetServerOptions options;
  options.idle_timeout_ms = 80;
  StartServer(options);
  auto transport = Transport();
  ASSERT_TRUE(transport->Ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The server reaped the connection. The first retry may fail: a send
  // into a half-closed socket can locally succeed, and once the request
  // might have reached the server the transport refuses to re-send
  // (at-most-once). The failure resets the socket, so the next call
  // reconnects cleanly and must succeed.
  Status first = transport->Ping();
  if (!first.ok()) {
    EXPECT_TRUE(transport->Ping().ok());
  }
}

}  // namespace
}  // namespace dbph
