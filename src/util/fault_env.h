// FaultEnv: a fault-injecting Env decorator for crash-recovery testing.
// It composes over any base Env (PosixEnv, SimEnv) and models exactly
// which bytes survive a power cut: every file tracks a durable prefix
// (advanced only by Sync), and every directory entry tracks whether it
// was made durable by a SyncDir of the parent. Injection knobs cut power
// after N mutating ops or after byte N of appended data (tearing the
// write that crosses the boundary), and can make syncs lie (a volatile
// write cache). MaterializeCrash() then rewrites the on-disk state to
// what such a crash would leave — files truncated to their durable
// prefix plus a chosen amount of unsynced suffix, un-synced creations
// and renames rolled back — so a reopened DB recovers against a
// faithful post-crash image.
#ifndef LILSM_UTIL_FAULT_ENV_H_
#define LILSM_UTIL_FAULT_ENV_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/mutex.h"

namespace lilsm {

class FaultWritableFile;

/// How much of each file's unsynced suffix a simulated crash preserves.
enum class CrashSurvival {
  kDurableOnly,   // exactly the synced prefix — the adversarial crash
  kRandomPrefix,  // a seed-derived prefix of the unsynced bytes (torn write)
  kEverything,    // the lucky crash: every written byte survives
};

struct FaultEnvOptions {
  /// Syncs lie: Sync()/SyncDir() return OK without advancing durability —
  /// a volatile write cache that drops its contents at power loss. This
  /// also subsumes reordered syncs: with no durable floor, any write-back
  /// order is admissible and MaterializeCrash picks one.
  bool drop_syncs = false;
  /// Cut power after this many mutating env ops succeed (0 = unlimited).
  /// Stepping this limit 1, 2, 3, ... walks a crash through every
  /// durability-relevant step of a protocol (the CURRENT-install matrix).
  uint64_t fail_after_ops = 0;
  /// Cut power once this many appended bytes succeed (0 = unlimited).
  /// The append crossing the limit is torn: its leading bytes land, the
  /// rest never reach the device.
  uint64_t fail_after_bytes = 0;
};

/// Thread-safe: the engine calls in from writers and background threads.
/// Durability is modeled entirely inside the wrapper, so base-level
/// fsyncs are skipped — thousand-schedule torture runs stay fast and the
/// base filesystem's own durability never masks an injected fault.
class FaultEnv final : public Env {
 public:
  explicit FaultEnv(Env* base, FaultEnvOptions options = {});
  ~FaultEnv() override;

  FaultEnv(const FaultEnv&) = delete;
  FaultEnv& operator=(const FaultEnv&) = delete;

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;
  Status SyncDir(const std::string& dirname) override;
  uint64_t NowNanos() override { return base_->NowNanos(); }
  std::unique_ptr<ReadBatch> NewReadBatch(int io_depth) override {
    return base_->NewReadBatch(io_depth);
  }

  // --- fault controls ---

  /// Freezes durable state: every subsequent mutating op through this env
  /// fails with IOError, and nothing a caller does afterwards (the DB
  /// destructor's best-effort WAL sync, say) can rescue unsynced bytes.
  void CutPower();
  bool powered_off() const;

  /// Rewrites the tracked directories on disk to the post-crash image and
  /// re-arms the env (power restored, op/byte limits cleared) so the same
  /// wrapper can serve the recovery run. Requires no live writable files.
  Status MaterializeCrash(CrashSurvival survival, uint64_t seed = 0);

  void SetFailAfterOps(uint64_t n);
  void SetFailAfterBytes(uint64_t n);
  void SetDropSyncs(bool v);
  /// Mutating ops that succeeded since construction or the last
  /// MaterializeCrash — the step counter the crash-matrix tests walk.
  uint64_t ops_used() const;

  // --- durability accounting (tests) ---

  /// Bytes of `fname` guaranteed to survive a crash (its synced prefix).
  uint64_t DurableBytes(const std::string& fname) const;
  /// Bytes of `fname` written through this env (the survivable maximum).
  uint64_t WrittenBytes(const std::string& fname) const;
  /// Whether the directory entry for `fname` would survive a crash.
  bool EntryDurable(const std::string& fname) const;

 private:
  friend class FaultWritableFile;

  /// One file's contents: `written` mirrors every appended byte, of which
  /// the leading `durable` are guaranteed after a crash. Shared between
  /// the live and durable namespaces — data durability (fsync) and entry
  /// durability (dir fsync) advance independently, as on a real disk.
  struct Inode {
    std::string written;
    uint64_t durable = 0;
  };
  using InodePtr = std::shared_ptr<Inode>;

  static std::string DirOf(const std::string& path);

  Status CheckMutation(const std::string& what) REQUIRES(mu_);
  /// First touch of a directory adopts its pre-existing files as durable,
  /// so MaterializeCrash never deletes state the env did not create.
  void AdoptDir(const std::string& dir) REQUIRES(mu_);

  Status DoAppend(const std::string& fname, const InodePtr& ino,
                  WritableFile* base_file, const Slice& data);
  Status DoSync(const std::string& fname, const InodePtr& ino,
                WritableFile* base_file);

  Env* const base_;
  mutable Mutex mu_;
  FaultEnvOptions options_ GUARDED_BY(mu_);
  bool powered_off_ GUARDED_BY(mu_) = false;
  uint64_t ops_used_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_used_ GUARDED_BY(mu_) = 0;
  std::map<std::string, InodePtr> live_ns_ GUARDED_BY(mu_);
  std::map<std::string, InodePtr> durable_ns_ GUARDED_BY(mu_);
  std::set<std::string> tracked_dirs_ GUARDED_BY(mu_);
};

}  // namespace lilsm

#endif  // LILSM_UTIL_FAULT_ENV_H_
