// Service-layer tests: lilsm_server's epoll loop + worker handoff and the
// lilsm::Client handle, exercised over real unix-domain sockets. Covers
// the request surface (Get/MultiGet/Write/snapshots/Ping), raw-socket
// protocol abuse (garbage, bad CRC, oversized and truncated frames must
// poison only the offending connection), snapshot release on disconnect,
// and graceful shutdown: every acknowledged write survives a server stop,
// DB close, and WAL-replaying reopen — even when the client is killed
// right after the ack.
#include "server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "lsm/db.h"
#include "server/wire_protocol.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/env.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 32;

DBOptions ServerDbOptions() {
  DBOptions options;
  options.write_buffer_size = 64 << 10;
  options.sstable_target_size = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.value_size = kValueSize;  // Write admits only this value size
  return options;
}

/// Pads to exactly kValueSize: the segmented format's fixed value
/// geometry, which DB::Write enforces at admission.
std::string FixedValue(const std::string& tag) {
  std::string value = tag;
  value.resize(kValueSize, '.');
  return value;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions server_options = ServerOptions(),
                   DBOptions db_options = ServerDbOptions()) {
    StopServer();
    ASSERT_LILSM_OK(DB::Open(db_options, dir_.path() + "/db", &db_));
    if (server_options.socket_path.empty()) {
      server_options.socket_path = dir_.file("sock");
    }
    ASSERT_LILSM_OK(Server::Start(db_.get(), server_options, &server_));
  }

  void StopServer() {
    server_.reset();
    db_.reset();
  }

  std::unique_ptr<Client> MustConnect() {
    std::unique_ptr<Client> client;
    EXPECT_LILSM_OK(Client::Connect(server_->socket_path(), &client));
    return client;
  }

  /// Raw blocking socket to the server, for protocol-abuse tests.
  int RawConnect() {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    struct ::sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server_->socket_path().c_str(),
                server_->socket_path().size());
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  static ssize_t SendNoSigpipe(int fd, const void* buf, size_t n) {
    return ::send(fd, buf, n, MSG_NOSIGNAL);
  }

  static void SendAll(int fd, const std::string& bytes) {
    ASSERT_LILSM_OK(
        FullyWrite(fd, bytes.data(), bytes.size(), &SendNoSigpipe));
  }

  /// Reads until the server closes the connection; returns what arrived.
  static std::string ReadUntilEof(int fd) {
    std::string got;
    char buf[4096];
    while (true) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      got.append(buf, static_cast<size_t>(r));
    }
    return got;
  }

  /// Expects exactly one kErrorResponse frame followed by EOF and
  /// returns the carried status.
  static Status ExpectErrorThenEof(int fd) {
    std::string got = ReadUntilEof(fd);
    wire::Frame frame;
    EXPECT_EQ(wire::DecodeFrame(&got, wire::kMaxPayloadBytes, &frame),
              wire::DecodeResult::kFrame);
    EXPECT_TRUE(got.empty()) << "trailing bytes after the error frame";
    EXPECT_EQ(frame.type, wire::MessageType::kErrorResponse);
    wire::StatusResponse resp;
    EXPECT_TRUE(resp.DecodeFrom(Slice(frame.body)));
    return resp.status;
  }

  void WaitForActiveConnections(int want) {
    Env* env = Env::Default();
    const uint64_t deadline = env->NowNanos() + uint64_t{5} * 1'000'000'000;
    while (server_->connections_active() != want &&
           env->NowNanos() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(server_->connections_active(), want);
  }

  ScratchDir dir_{"server"};
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, StartStopIsIdempotent) {
  StartServer();
  EXPECT_EQ(server_->connections_active(), 0);
  server_->Stop();
  server_->Stop();  // second stop is a no-op
  StopServer();
}

TEST_F(ServerTest, RejectsBadOptions) {
  ServerOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // empty path
  options.socket_path = std::string(200, 'p');
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // > sun_path
  options.socket_path = "/tmp/ok.sock";
  options.num_workers = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
}

TEST_F(ServerTest, BasicOpsRoundTrip) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_LILSM_OK(client->Ping());

  ASSERT_LILSM_OK(client->Put(1, FixedValue("one")));
  ASSERT_LILSM_OK(client->Put(2, FixedValue("two")));
  std::string value;
  ASSERT_LILSM_OK(client->Get(1, &value));
  EXPECT_EQ(value, FixedValue("one"));
  EXPECT_TRUE(client->Get(99, &value).IsNotFound());

  ASSERT_LILSM_OK(client->Delete(1));
  EXPECT_TRUE(client->Get(1, &value).IsNotFound());

  // A WriteBatch applies atomically server-side.
  WriteBatch batch;
  batch.Put(10, FixedValue("ten"));
  batch.Put(11, FixedValue("eleven"));
  batch.Delete(2);
  ASSERT_LILSM_OK(client->Write(batch));

  const std::vector<Key> keys = {10, 11, 2, 99};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(client->MultiGet(keys, &values, &statuses));
  ASSERT_EQ(statuses.size(), keys.size());
  EXPECT_LILSM_OK(statuses[0]);
  EXPECT_EQ(values[0], FixedValue("ten"));
  EXPECT_EQ(values[1], FixedValue("eleven"));
  EXPECT_TRUE(statuses[2].IsNotFound());
  EXPECT_TRUE(statuses[3].IsNotFound());
}

// A wrong-size value is refused per request: the client sees
// InvalidArgument, its connection keeps serving, and nothing reaches the
// WAL — so a flush and a reopen both succeed afterwards.
TEST_F(ServerTest, WrongSizeValueIsRejectedPerRequest) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  EXPECT_TRUE(client->Put(1, "short").IsInvalidArgument());
  WriteBatch batch;
  batch.Put(2, FixedValue("fits"));
  batch.Put(3, std::string(kValueSize + 1, 'x'));
  EXPECT_TRUE(client->Write(batch).IsInvalidArgument());

  ASSERT_LILSM_OK(client->Ping());
  ASSERT_LILSM_OK(client->Put(4, FixedValue("four")));
  std::string value;
  EXPECT_TRUE(client->Get(2, &value).IsNotFound());
  ASSERT_LILSM_OK(client->Get(4, &value));
  EXPECT_EQ(value, FixedValue("four"));
  ASSERT_LILSM_OK(db_->FlushMemTable());
  client.reset();

  StopServer();
  std::unique_ptr<DB> reopened;
  ASSERT_LILSM_OK(DB::Open(ServerDbOptions(), dir_.path() + "/db",
                           &reopened));
  ASSERT_LILSM_OK(reopened->Get(4, &value));
  EXPECT_EQ(value, FixedValue("four"));
  EXPECT_TRUE(reopened->Get(1, &value).IsNotFound());
}

TEST_F(ServerTest, LargeMultiGetBatchOneFrameEachWay) {
  // 512 values of 8 KiB make a ~4 MiB response frame, which spans many
  // socket buffers and so exercises the partial-write path in the event
  // loop.
  constexpr uint32_t kBigValue = 8 << 10;
  constexpr Key kKeys = 512;
  DBOptions db_options = ServerDbOptions();
  db_options.value_size = kBigValue;
  StartServer(ServerOptions(), db_options);
  std::unique_ptr<Client> client = MustConnect();
  std::vector<Key> keys;
  for (Key k = 0; k < kKeys; k++) {
    ASSERT_LILSM_OK(client->Put(k, DeriveValue(k, kBigValue)));
    keys.push_back(k);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(client->MultiGet(keys, &values, &statuses));
  ASSERT_EQ(values.size(), keys.size());
  size_t response_bytes = 0;
  for (Key k = 0; k < kKeys; k++) {
    ASSERT_LILSM_OK(statuses[k]);
    ASSERT_EQ(values[k], DeriveValue(k, kBigValue)) << "key " << k;
    response_bytes += values[k].size();
  }
  EXPECT_GE(response_bytes, size_t{1} << 20);
}

TEST_F(ServerTest, SnapshotPinsAPointInTimeView) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_LILSM_OK(client->Put(5, FixedValue("before")));

  uint64_t snap_id = 0;
  SequenceNumber seq = 0;
  ASSERT_LILSM_OK(client->NewSnapshot(&snap_id, &seq));
  EXPECT_GT(snap_id, 0u);
  EXPECT_GT(seq, 0u);

  ASSERT_LILSM_OK(client->Put(5, FixedValue("after")));
  ASSERT_LILSM_OK(client->Put(6, FixedValue("new key")));

  ClientReadOptions at_snap;
  at_snap.snapshot_id = snap_id;
  std::string value;
  ASSERT_LILSM_OK(client->Get(at_snap, 5, &value));
  EXPECT_EQ(value, FixedValue("before"));
  EXPECT_TRUE(client->Get(at_snap, 6, &value).IsNotFound());
  ASSERT_LILSM_OK(client->Get(5, &value));
  EXPECT_EQ(value, FixedValue("after"));

  // MultiGet honors the snapshot too.
  const std::vector<Key> keys = {5, 6};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(client->MultiGet(at_snap, keys, &values, &statuses));
  EXPECT_EQ(values[0], FixedValue("before"));
  EXPECT_TRUE(statuses[1].IsNotFound());

  ASSERT_LILSM_OK(client->ReleaseSnapshot(snap_id));
  // Released (and never-issued) ids are per-request errors, not fatal.
  EXPECT_TRUE(client->ReleaseSnapshot(snap_id).IsInvalidArgument());
  EXPECT_TRUE(client->Get(at_snap, 5, &value).IsInvalidArgument());
  ASSERT_LILSM_OK(client->Ping());  // connection still healthy
}

TEST_F(ServerTest, SnapshotsAreConnectionScoped) {
  StartServer();
  std::unique_ptr<Client> alice = MustConnect();
  std::unique_ptr<Client> bob = MustConnect();
  ASSERT_LILSM_OK(alice->Put(1, FixedValue("v")));
  uint64_t snap_id = 0;
  ASSERT_LILSM_OK(alice->NewSnapshot(&snap_id));
  // Bob cannot see (or release) Alice's snapshot.
  ClientReadOptions at_snap;
  at_snap.snapshot_id = snap_id;
  std::string value;
  EXPECT_TRUE(bob->Get(at_snap, 1, &value).IsInvalidArgument());
  EXPECT_TRUE(bob->ReleaseSnapshot(snap_id).IsInvalidArgument());
  ASSERT_LILSM_OK(alice->Get(at_snap, 1, &value));
}

TEST_F(ServerTest, DisconnectReleasesLeakedSnapshots) {
  StartServer();
  {
    std::unique_ptr<Client> client = MustConnect();
    ASSERT_LILSM_OK(client->Put(1, FixedValue("v")));
    uint64_t ignored = 0;
    ASSERT_LILSM_OK(client->NewSnapshot(&ignored));
    ASSERT_LILSM_OK(client->NewSnapshot(&ignored));
    // Dropped without ReleaseSnapshot: the server must clean up.
  }
  WaitForActiveConnections(0);
  // A leaked snapshot would trip the DB's outstanding-snapshot check on
  // close; a clean StopServer proves the disconnect path released them.
  StopServer();
}

TEST_F(ServerTest, GarbageBytesGetOneErrorFrameThenClose) {
  StartServer();
  std::unique_ptr<Client> healthy = MustConnect();
  ASSERT_LILSM_OK(healthy->Put(1, FixedValue("v")));

  // Junk that parses as a plausible length (32) followed by garbage: the
  // CRC check is what catches it.
  std::string garbage;
  PutFixed32(&garbage, 32);
  garbage.append(36, 'x');
  int fd = RawConnect();
  SendAll(fd, garbage);
  EXPECT_TRUE(ExpectErrorThenEof(fd).IsCorruption());
  ::close(fd);

  // The event loop and every other client survived.
  std::string value;
  ASSERT_LILSM_OK(healthy->Get(1, &value));
  EXPECT_EQ(value, FixedValue("v"));
}

TEST_F(ServerTest, CorruptCrcGetsErrorAndClose) {
  StartServer();
  std::string frame;
  wire::EncodeFrame(&frame, wire::MessageType::kPingRequest, 1, Slice());
  frame[frame.size() - 1] ^= 0x01;  // damage the payload under the CRC

  int fd = RawConnect();
  SendAll(fd, frame);
  EXPECT_TRUE(ExpectErrorThenEof(fd).IsCorruption());
  ::close(fd);
}

TEST_F(ServerTest, OversizedFrameRejectedBeforeBuffering) {
  ServerOptions options;
  options.max_frame_bytes = 4 << 10;
  StartServer(options);
  std::string header;
  PutFixed32(&header, 1u << 20);  // declares 1 MiB against a 4 KiB cap
  PutFixed32(&header, 0);
  int fd = RawConnect();
  SendAll(fd, header);
  EXPECT_TRUE(ExpectErrorThenEof(fd).IsInvalidArgument());
  ::close(fd);
}

TEST_F(ServerTest, UnknownMessageTypeGetsErrorAndClose) {
  StartServer();
  std::string frame;
  wire::EncodeFrame(&frame, static_cast<wire::MessageType>(42), 9, Slice());
  int fd = RawConnect();
  SendAll(fd, frame);
  EXPECT_TRUE(ExpectErrorThenEof(fd).IsInvalidArgument());
  ::close(fd);
}

TEST_F(ServerTest, TruncatedFrameThenDisconnectIsHarmless) {
  StartServer();
  std::string frame;
  wire::EncodeFrame(&frame, wire::MessageType::kPingRequest, 1, Slice());
  int fd = RawConnect();
  SendAll(fd, frame.substr(0, frame.size() / 2));
  WaitForActiveConnections(1);
  ::close(fd);  // vanish mid-frame
  WaitForActiveConnections(0);
  // Server still serves.
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_LILSM_OK(client->Ping());
}

TEST_F(ServerTest, MalformedBodyGetsErrorAndClose) {
  StartServer();
  std::unique_ptr<Client> healthy = MustConnect();
  // Valid frame, valid type, body too short for a GetRequest.
  std::string frame;
  wire::EncodeFrame(&frame, wire::MessageType::kGetRequest, 3, Slice("xy"));
  int fd = RawConnect();
  SendAll(fd, frame);
  EXPECT_TRUE(ExpectErrorThenEof(fd).IsInvalidArgument());
  ::close(fd);
  ASSERT_LILSM_OK(healthy->Ping());
}

TEST_F(ServerTest, MalformedWriteBatchIsAPerRequestError) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  // A structurally broken batch rep must be rejected before it touches
  // the WAL — but it is the client's own request, so the connection
  // survives.
  std::string body;
  body.push_back(0);                      // flags: no overrides
  body.append("short");                   // not even a batch header
  std::string frame;
  wire::EncodeFrame(&frame, wire::MessageType::kWriteRequest, 1, Slice(body));
  int fd = RawConnect();
  SendAll(fd, frame);
  std::string got;
  char buf[1024];
  // One response frame, connection stays open (poll for the frame).
  while (true) {
    wire::Frame response;
    std::string probe = got;
    if (wire::DecodeFrame(&probe, wire::kMaxPayloadBytes, &response) ==
        wire::DecodeResult::kFrame) {
      EXPECT_EQ(response.type, wire::MessageType::kWriteResponse);
      wire::StatusResponse resp;
      ASSERT_TRUE(resp.DecodeFrom(Slice(response.body)));
      EXPECT_TRUE(resp.status.IsInvalidArgument());
      break;
    }
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(r, 0);
    got.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  ASSERT_LILSM_OK(client->Ping());
}

TEST_F(ServerTest, StopWakesIdleClients) {
  StartServer();
  std::unique_ptr<Client> client = MustConnect();
  ASSERT_LILSM_OK(client->Ping());
  server_->Stop();
  // The connection was closed by the drain; the client finds out on its
  // next round trip and reports it as an I/O error.
  Status s = client->Ping();
  EXPECT_FALSE(s.ok());
}

TEST_F(ServerTest, GracefulShutdownPersistsEveryAckedWrite) {
  // The kill-after-ack scenario: a client writes, gets the ack, and is
  // killed (socket close with no farewell). SIGTERM-style Stop() then
  // closes the DB. Every acknowledged write must be present after a
  // WAL-replaying reopen.
  StartServer();
  constexpr Key kCount = 200;
  {
    std::unique_ptr<Client> client = MustConnect();
    uint64_t leaked_snapshot = 0;
    ASSERT_LILSM_OK(client->Put(0, FixedValue("seed")));
    ASSERT_LILSM_OK(client->NewSnapshot(&leaked_snapshot));
    for (Key k = 0; k < kCount; k++) {
      ASSERT_LILSM_OK(
          client->Put(k, FixedValue("acked-" + std::to_string(k))));
    }
    // Client killed here: destructor closes the socket abruptly while
    // still holding a server-side snapshot.
  }
  server_->Stop();
  server_.reset();
  db_.reset();  // closes the DB; the WAL holds every acked write

  std::unique_ptr<DB> reopened;
  ASSERT_LILSM_OK(DB::Open(ServerDbOptions(), dir_.path() + "/db",
                           &reopened));
  std::string value;
  for (Key k = 0; k < kCount; k++) {
    ASSERT_LILSM_OK(reopened->Get(k, &value));
    ASSERT_EQ(value, FixedValue("acked-" + std::to_string(k))) << "key " << k;
  }
}

TEST_F(ServerTest, ManyClientsInterleave) {
  StartServer();
  constexpr int kClients = 8;
  constexpr Key kPerClient = 64;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c] {
      std::unique_ptr<Client> client;
      ASSERT_LILSM_OK(Client::Connect(server_->socket_path(), &client));
      const Key base = static_cast<Key>(c + 1) << 32;
      for (Key i = 0; i < kPerClient; i++) {
        // Appended piecewise: gcc 12's -Wrestrict misfires on
        // "literal" + std::to_string(...) in optimized builds.
        std::string tag = "c";
        tag += std::to_string(c);
        tag += '-';
        tag += std::to_string(i);
        ASSERT_LILSM_OK(client->Put(base + i, FixedValue(tag)));
      }
      std::vector<Key> keys;
      for (Key i = 0; i < kPerClient; i++) keys.push_back(base + i);
      std::vector<std::string> values;
      std::vector<Status> statuses;
      ASSERT_LILSM_OK(client->MultiGet(keys, &values, &statuses));
      for (Key i = 0; i < kPerClient; i++) {
        ASSERT_LILSM_OK(statuses[i]);
        ASSERT_EQ(values[i], FixedValue("c" + std::to_string(c) + "-" +
                                        std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(server_->connections_accepted(), static_cast<uint64_t>(kClients));
}

}  // namespace
}  // namespace lilsm
