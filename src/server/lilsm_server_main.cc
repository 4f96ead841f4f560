// lilsm_server: hosts one DB and serves it to lilsm::Client handles over
// a unix-domain socket (see server/server.h for the service layer and
// DESIGN.md "Service layer" for the protocol).
//
// Shutdown is signal-driven and graceful: SIGINT/SIGTERM land in a
// self-pipe (the handler does nothing async-signal-unsafe), the main
// thread wakes, Server::Stop() drains every in-flight request and flushes
// its reply, client snapshots are released, and the DB closes cleanly —
// so a restart replays the WAL to exactly the acknowledged state.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "lsm/db.h"
#include "server/server.h"
#include "util/stats.h"

namespace {

// Self-pipe for the signal handlers: write end poked by the handler,
// read end blocks the main thread until a shutdown signal arrives.
int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (a full pipe
  // means a shutdown is already pending).
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --db=PATH [options]\n"
      "  --db=PATH              database directory (required; created if "
      "absent)\n"
      "  --socket=PATH          listening socket (default: <db>/lilsm.sock)\n"
      "  --workers=N            request worker threads (default 4)\n"
      "  --max-frame-mb=N       per-frame payload limit in MiB (default 16)\n"
      "  --backlog=N            listen(2) backlog (default 128)\n"
      "  --background=0|1       background flush/compaction (default 1)\n"
      "  --io-depth=N           async read batch depth (default 1)\n"
      "  --block-cache-mb=N     shared block cache size (default 0 = off)\n"
      "  --sync-wal=0|1         fdatasync the WAL per commit (default 0)\n"
      "  --stats=0|1            dump counters on exit (default 1)\n",
      argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out->assign(arg + n + 1);
  return true;
}

bool ParseIntFlag(const char* arg, const char* name, long* out) {
  std::string v;
  if (!ParseFlag(arg, name, &v)) return false;
  char* end = nullptr;
  *out = std::strtol(v.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  lilsm::ServerOptions server_options;
  long workers = 4, max_frame_mb = 16, backlog = 128;
  long background = 1, io_depth = 1, block_cache_mb = 0;
  long sync_wal = 0, dump_stats = 1;

  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--db", &db_path) ||
        ParseFlag(arg, "--socket", &server_options.socket_path) ||
        ParseIntFlag(arg, "--workers", &workers) ||
        ParseIntFlag(arg, "--max-frame-mb", &max_frame_mb) ||
        ParseIntFlag(arg, "--backlog", &backlog) ||
        ParseIntFlag(arg, "--background", &background) ||
        ParseIntFlag(arg, "--io-depth", &io_depth) ||
        ParseIntFlag(arg, "--block-cache-mb", &block_cache_mb) ||
        ParseIntFlag(arg, "--sync-wal", &sync_wal) ||
        ParseIntFlag(arg, "--stats", &dump_stats)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg);
    Usage(argv[0]);
    return 2;
  }
  if (db_path.empty()) {
    Usage(argv[0]);
    return 2;
  }
  if (server_options.socket_path.empty()) {
    server_options.socket_path = db_path + "/lilsm.sock";
  }
  server_options.num_workers = static_cast<int>(workers);
  server_options.max_frame_bytes =
      static_cast<uint32_t>(max_frame_mb) << 20;
  server_options.listen_backlog = static_cast<int>(backlog);

  lilsm::DBOptions db_options;
  db_options.concurrency = background != 0
                               ? lilsm::ConcurrencyMode::kBackground
                               : lilsm::ConcurrencyMode::kInline;
  db_options.io_depth = static_cast<int>(io_depth);
  db_options.block_cache_bytes = static_cast<size_t>(block_cache_mb) << 20;
  db_options.sync_wal = sync_wal != 0;

  // Install the self-pipe before the server starts so a signal racing
  // startup still lands.
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A client vanishing mid-write must not kill the server; write errors
  // surface as EPIPE on the socket instead.
  ::signal(SIGPIPE, SIG_IGN);

  std::unique_ptr<lilsm::DB> db;
  lilsm::Status s = lilsm::DB::Open(db_options, db_path, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", db_path.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  std::unique_ptr<lilsm::Server> server;
  s = lilsm::Server::Start(db.get(), server_options, &server);
  if (!s.ok()) {
    std::fprintf(stderr, "start server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "lilsm_server: db=%s socket=%s workers=%d\n",
               db_path.c_str(), server->socket_path().c_str(),
               server_options.num_workers);

  // Block until SIGINT/SIGTERM pokes the self-pipe.
  char byte;
  ssize_t r;
  do {
    r = ::read(g_signal_pipe[0], &byte, 1);
  } while (r < 0 && errno == EINTR);

  std::fprintf(stderr, "lilsm_server: shutting down\n");
  server->Stop();
  server.reset();
  if (dump_stats != 0) {
    std::fprintf(stderr, "%s\n", db->stats()->ToString().c_str());
  }
  db.reset();  // closes the DB: WAL is complete up to the last ack
  std::fprintf(stderr, "lilsm_server: clean shutdown\n");
  return 0;
}
