// Server/library equivalence: N concurrent clients driving deterministic
// per-client op sequences through lilsm_server must produce bit-identical
// transcripts (every Get/MultiGet result, every status, every snapshot
// read) to the same sequences run serially against an in-process DB.
// Each client owns a disjoint key stripe on top of a shared immutable
// preload, so per-client outcomes are independent of interleaving and the
// comparison is exact. TSan CI runs this suite: the server's event-loop /
// worker handoff must be race-free under real concurrent clients.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "lsm/db.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

constexpr int kClients = 4;
constexpr Key kSharedKeys = 256;   // immutable preload, read by everyone
constexpr Key kStripeKeys = 96;    // per-client private keys
constexpr int kOpsPerClient = 120;

constexpr uint32_t kValueSize = 40;  // flushed tables need fixed geometry

Key StripeBase(int client) { return static_cast<Key>(client + 1) << 32; }

std::string SharedValue(Key k) { return DeriveValue(k, kValueSize); }

std::string StripeValue(int client, Key k, int version) {
  // Appended piecewise: gcc 12's -Wrestrict misfires on
  // "literal" + std::to_string(...) in optimized builds.
  std::string value = "c";
  value += std::to_string(client);
  value += 'k';
  value += std::to_string(k);
  value += 'v';
  value += std::to_string(version);
  value.resize(kValueSize, '.');
  return value;
}

DBOptions EquivalenceDbOptions() {
  DBOptions options;
  options.write_buffer_size = 64 << 10;  // force flushes mid-sequence
  options.sstable_target_size = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.value_size = kValueSize;
  return options;
}

/// The abstract op surface: implemented by a Client-backed driver (over
/// the socket) and a DB-backed driver (in-process). Each records the
/// byte-exact outcome of every operation into a transcript.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void Put(Key key, const std::string& value) = 0;
  virtual void Delete(Key key) = 0;
  virtual void Get(Key key) = 0;
  virtual void MultiGet(const std::vector<Key>& keys) = 0;
  virtual void SnapshotBegin() = 0;  // pin a view
  virtual void SnapshotGet(Key key) = 0;
  virtual void SnapshotMultiGet(const std::vector<Key>& keys) = 0;
  virtual void SnapshotEnd() = 0;  // release it

  const std::string& transcript() const { return transcript_; }

 protected:
  void Record(const char* op, Key key, const Status& status,
              const std::string& value) {
    char head[64];
    std::snprintf(head, sizeof(head), "%s(%llx)=", op,
                  static_cast<unsigned long long>(key));
    transcript_ += head;
    transcript_ += status.ToString();
    if (status.ok()) {
      transcript_ += ":";
      transcript_ += value;
    }
    transcript_ += "\n";
  }

  std::string transcript_;
};

class ClientDriver : public Driver {
 public:
  explicit ClientDriver(const std::string& socket_path) {
    Status s = Client::Connect(socket_path, &client_);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  void Put(Key key, const std::string& value) override {
    Record("put", key, client_->Put(key, value), "");
  }
  void Delete(Key key) override {
    Record("del", key, client_->Delete(key), "");
  }
  void Get(Key key) override { GetAt(ClientReadOptions(), "get", key); }
  void MultiGet(const std::vector<Key>& keys) override {
    MultiGetAt(ClientReadOptions(), "mget", keys);
  }
  void SnapshotBegin() override {
    Status s = client_->NewSnapshot(&snapshot_id_);
    Record("snap", 0, s, "");
  }
  void SnapshotGet(Key key) override {
    ClientReadOptions options;
    options.snapshot_id = snapshot_id_;
    GetAt(options, "sget", key);
  }
  void SnapshotMultiGet(const std::vector<Key>& keys) override {
    ClientReadOptions options;
    options.snapshot_id = snapshot_id_;
    MultiGetAt(options, "smget", keys);
  }
  void SnapshotEnd() override {
    Record("unsnap", 0, client_->ReleaseSnapshot(snapshot_id_), "");
    snapshot_id_ = 0;
  }

 private:
  void GetAt(const ClientReadOptions& options, const char* op, Key key) {
    std::string value;
    Status s = client_->Get(options, key, &value);
    Record(op, key, s, value);
  }
  void MultiGetAt(const ClientReadOptions& options, const char* op,
                  const std::vector<Key>& keys) {
    std::vector<std::string> values;
    std::vector<Status> statuses;
    Status s = client_->MultiGet(options, keys, &values, &statuses);
    Record(op, keys.size(), s, "");
    for (size_t i = 0; i < statuses.size(); i++) {
      Record("  #", keys[i], statuses[i],
             statuses[i].ok() ? values[i] : "");
    }
  }

  std::unique_ptr<Client> client_;
  uint64_t snapshot_id_ = 0;
};

class LibraryDriver : public Driver {
 public:
  explicit LibraryDriver(DB* db) : db_(db) {}
  ~LibraryDriver() override {
    if (snapshot_ != nullptr) db_->ReleaseSnapshot(snapshot_);
  }

  void Put(Key key, const std::string& value) override {
    Record("put", key, db_->Put(key, value), "");
  }
  void Delete(Key key) override {
    Record("del", key, db_->Delete(key), "");
  }
  void Get(Key key) override { GetAt(nullptr, "get", key); }
  void MultiGet(const std::vector<Key>& keys) override {
    MultiGetAt(nullptr, "mget", keys);
  }
  void SnapshotBegin() override {
    snapshot_ = db_->GetSnapshot();
    Record("snap", 0, Status::OK(), "");
  }
  void SnapshotGet(Key key) override { GetAt(snapshot_, "sget", key); }
  void SnapshotMultiGet(const std::vector<Key>& keys) override {
    MultiGetAt(snapshot_, "smget", keys);
  }
  void SnapshotEnd() override {
    db_->ReleaseSnapshot(snapshot_);
    snapshot_ = nullptr;
    Record("unsnap", 0, Status::OK(), "");
  }

 private:
  void GetAt(const Snapshot* snapshot, const char* op, Key key) {
    ReadOptions options;
    options.snapshot = snapshot;
    std::string value;
    Status s = db_->Get(options, key, &value);
    Record(op, key, s, value);
  }
  void MultiGetAt(const Snapshot* snapshot, const char* op,
                  const std::vector<Key>& keys) {
    ReadOptions options;
    options.snapshot = snapshot;
    std::vector<std::string> values;
    std::vector<Status> statuses;
    Status s = db_->MultiGet(options, keys, &values, &statuses);
    Record(op, keys.size(), s, "");
    for (size_t i = 0; i < statuses.size(); i++) {
      Record("  #", keys[i], statuses[i],
             statuses[i].ok() ? values[i] : "");
    }
  }

  DB* db_;
  const Snapshot* snapshot_ = nullptr;
};

/// The deterministic per-client program. Mixes private-stripe writes,
/// reads of private + shared keys, MultiGet batches spanning both, holes
/// (never-written keys), deletes, and a snapshot window that pins reads
/// across subsequent overwrites. Depends only on `client`, never on
/// timing, so every interleaving yields the same per-client transcript.
void RunClientProgram(int client, Driver* driver) {
  const Key base = StripeBase(client);
  int version = 0;
  for (int op = 0; op < kOpsPerClient; op++) {
    const Key k = base + (static_cast<Key>(op * 37) % kStripeKeys);
    switch (op % 8) {
      case 0:
        driver->Put(k, StripeValue(client, k, ++version));
        break;
      case 1:
        driver->Get(k);
        break;
      case 2: {  // batch mixing private, shared, and missing keys
        std::vector<Key> keys;
        for (int j = 0; j < 16; j++) {
          if (j % 3 == 0) {
            keys.push_back(static_cast<Key>((op + j) * 11) % kSharedKeys);
          } else if (j % 3 == 1) {
            keys.push_back(base + (static_cast<Key>(op + j) % kStripeKeys));
          } else {
            keys.push_back(base + kStripeKeys + static_cast<Key>(j));  // hole
          }
        }
        driver->MultiGet(keys);
        break;
      }
      case 3:
        driver->Put(k, StripeValue(client, k, ++version));
        break;
      case 4: {  // snapshot window: pin, overwrite, read back, release
        driver->Put(k, StripeValue(client, k, ++version));
        driver->SnapshotBegin();
        driver->Put(k, StripeValue(client, k, ++version));
        driver->Put(k + 1, StripeValue(client, k + 1, ++version));
        driver->SnapshotGet(k);
        std::vector<Key> keys = {k, k + 1,
                                 static_cast<Key>(op) % kSharedKeys};
        driver->SnapshotMultiGet(keys);
        driver->SnapshotEnd();
        driver->Get(k);  // latest state resumes after release
        break;
      }
      case 5:
        driver->Delete(k);
        break;
      case 6:
        driver->Get(k);
        break;
      case 7: {
        std::vector<Key> keys;
        for (int j = 0; j < 8; j++) {
          keys.push_back(base + (static_cast<Key>(op * 5 + j * 13) %
                                 kStripeKeys));
        }
        driver->MultiGet(keys);
        break;
      }
    }
  }
}

void Preload(DB* db) {
  for (Key k = 0; k < kSharedKeys; k++) {
    ASSERT_LILSM_OK(db->Put(k, SharedValue(k)));
  }
}

std::string DumpAll(DB* db) {
  std::string dump;
  std::unique_ptr<Iterator> it = db->NewIterator(ReadOptions());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    char head[32];
    std::snprintf(head, sizeof(head), "%llx=",
                  static_cast<unsigned long long>(it->key()));
    dump += head;
    dump.append(it->value().data(), it->value().size());
    dump += "\n";
  }
  return dump;
}

TEST(ServerEquivalenceTest, ConcurrentClientsMatchInProcessLibrary) {
  // --- Server run: kClients real threads, each with its own socket
  // connection, all interleaving through the epoll loop and worker pool.
  ScratchDir server_dir("server_equiv_srv");
  std::vector<std::string> server_transcripts(kClients);
  std::string server_dump;
  {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(
        DB::Open(EquivalenceDbOptions(), server_dir.path() + "/db", &db));
    Preload(db.get());
    ServerOptions server_options;
    server_options.socket_path = server_dir.file("sock");
    std::unique_ptr<Server> server;
    ASSERT_LILSM_OK(Server::Start(db.get(), server_options, &server));

    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([c, &server_options, &server_transcripts] {
        ClientDriver driver(server_options.socket_path);
        RunClientProgram(c, &driver);
        server_transcripts[c] = driver.transcript();
      });
    }
    for (std::thread& t : threads) t.join();
    server->Stop();
    server.reset();
    server_dump = DumpAll(db.get());
  }

  // --- Library run: a fresh DB, the same per-client programs executed
  // serially through the in-process API.
  ScratchDir lib_dir("server_equiv_lib");
  std::vector<std::string> lib_transcripts(kClients);
  std::string lib_dump;
  {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(
        DB::Open(EquivalenceDbOptions(), lib_dir.path() + "/db", &db));
    Preload(db.get());
    for (int c = 0; c < kClients; c++) {
      LibraryDriver driver(db.get());
      RunClientProgram(c, &driver);
      lib_transcripts[c] = driver.transcript();
    }
    lib_dump = DumpAll(db.get());
  }

  // Bit-identical per-client transcripts: every status and value equal.
  for (int c = 0; c < kClients; c++) {
    EXPECT_EQ(server_transcripts[c], lib_transcripts[c]) << "client " << c;
  }
  // And the final database contents agree key for key, byte for byte.
  EXPECT_EQ(server_dump, lib_dump);
}

}  // namespace
}  // namespace lilsm
