// Owns every live session of a dbred server, plus the shared resources
// they multiplex: the pipeline worker pool, the extension registry and the
// global memory budget.
//
// Admission is bounded on three axes:
//   * max_sessions     — live session objects;
//   * max_inflight_runs — pipelines executing on workers (the pool has
//     exactly this many threads, so a pipeline suspended on an expert
//     question parks a whole worker, as designed);
//   * max_queued_runs  — accepted `run` commands waiting for a worker.
// A `run` beyond inflight+queued capacity is rejected immediately with a
// structured error instead of growing an unbounded queue — clients retry.
#ifndef DBRE_SERVICE_SESSION_MANAGER_H_
#define DBRE_SERVICE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/extension_registry.h"
#include "service/session.h"
#include "store/store.h"

namespace dbre::service {

struct SessionManagerOptions {
  size_t max_sessions = 64;
  size_t max_inflight_runs = 4;
  size_t max_queued_runs = 16;
  size_t max_session_bytes = 256u << 20;
  size_t max_total_bytes = 1024u << 20;
  // Expert-question timeout before the fallback oracle answers; negative =
  // wait forever.
  int64_t question_timeout_ms = -1;
  // Wall-clock budget for one pipeline run. A run past it is aborted by
  // the scheduler watchdog (the session fails with a deadline error; the
  // worker frees at the next cancellation point). 0 = no deadline.
  int64_t run_deadline_ms = 0;
  // Durability root (see store/store.h). Empty = fully in-memory: no
  // snapshots, no journals, no recovery.
  std::string data_dir;
  store::JournalOptions journal;
  // Identity of this worker process when several share one data dir
  // behind dbre_router (`dbre_serve --worker-id`). Non-empty: sessions
  // this worker creates or recovers are stamped with an OWNER file, and
  // startup recovery skips sessions owned by a *different* worker — they
  // are live in that process, not orphans to adopt. Empty (the default,
  // single-worker deployment): no ownership is written or honored.
  std::string worker_id;
  // Byte budget of the shared page buffer pool (`--buffer-pool-mb`).
  // Non-zero turns on paged extensions: CSV loads are snapshotted, then
  // adopted page-backed instead of staying resident, so sessions work
  // on databases larger than memory. Requires a data dir (the pages live
  // in its snapshots); the budget is reserved from max_total_bytes up
  // front so admission accounts for the pool. 0 = off.
  size_t buffer_pool_bytes = 0;
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Creates a session and returns its id ("s1", "s2", ...; `name_hint`
  // becomes the id if unique and non-empty).
  Result<std::string> CreateSession(const std::string& name_hint = "");

  Result<std::shared_ptr<Session>> Get(const std::string& id) const;

  std::vector<std::shared_ptr<Session>> Sessions() const;

  size_t session_count() const;

  // Validates, transitions the session to running and schedules its
  // pipeline on the pool, subject to admission bounds.
  Status SubmitRun(const std::shared_ptr<Session>& session,
                   const Session::RunOptions& options);

  // Cancels (if needed) and removes the session. With a data dir, also
  // writes a close tombstone and deletes the session's journal — a closed
  // session is gone for good; snapshots stay (shared across sessions).
  // kNotFound if unknown.
  Status CloseSession(const std::string& id);

  // Closes every session and waits for in-flight runs to drain. Journals
  // are disarmed first, NOT closed out: a graceful daemon shutdown leaves
  // every session resumable from disk, and the fallback answers the dying
  // runs resolve with are never journaled as if an expert gave them.
  void Shutdown();

  // What happened during recovery (RecoverAll).
  struct RecoveryReport {
    size_t sessions_recovered = 0;
    size_t runs_resumed = 0;        // pipelines re-submitted with replay
    size_t sessions_closed = 0;     // clean close tombstone → journal GCed
    size_t records_dropped = 0;     // torn/corrupt journal lines skipped
    size_t segments_quarantined = 0;  // corrupt journal pieces set aside
    std::vector<std::string> errors;  // per-session failures, not fatal
  };

  // Replays every journal under the data dir: re-creates each session,
  // reloads its catalog from snapshots, and re-submits its run with the
  // journaled expert answers replaying ahead of the live oracle. A
  // session whose journal is damaged is reported in `errors` and skipped —
  // recovery never takes the daemon down. No-op without a data dir.
  RecoveryReport RecoverAll();

  // Recovers one session by id (the `restore` protocol command). kNotFound
  // without a journal on disk; kAlreadyExists if the id is live. With a
  // worker_id this also *claims* the session — restore is the takeover
  // half of a migration, so ownership transfers even from another worker.
  Result<std::shared_ptr<Session>> RecoverSession(const std::string& id);

  // The handoff half of a migration (the `detach` protocol command):
  // seals the session's journal (final fsync), releases this worker's
  // ownership, and drops the live object WITHOUT a close tombstone — the
  // journal stays on disk, fully replayable, so RecoverSession on another
  // worker resumes the session byte-identically. Refuses degraded
  // sessions (their journal is missing records; a restore would silently
  // diverge) and fenced sessions (ownership already moved; the journal is
  // the adopter's to seal). Returns the sealed journal's stats.
  Result<store::JournalStats> DetachSession(const std::string& id);

  // Drops every live session whose OWNER stamp has moved past the epoch
  // this worker claimed it at — the local half of a proactive failover:
  // the router already handed the session to another worker, so keeping
  // it live here would only produce fenced writes. The dropped sessions
  // are closed without a tombstone, release nothing (the stamp is the
  // adopter's), and journal nothing. Returns the ids dropped, so the
  // server can wake their watchers. Runs on every `lease` renewal; no-op
  // without a worker_id or data dir.
  std::vector<std::string> FenceLostSessions();

  ExtensionRegistry* registry() { return &registry_; }
  MemoryBudget* budget() { return budget_.get(); }
  const SessionManagerOptions& options() const { return options_; }

  // The durable store, or null when running in-memory. `store_status`
  // reports why a requested data dir could not be opened.
  store::Store* store() { return store_.get(); }
  Status store_status() const { return store_status_; }

  // The shared page buffer pool, or null when paged mode is off.
  pagestore::BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  // The paged source for the snapshot with this fingerprint, deduplicated
  // process-wide: sessions loading the same extension share one source
  // (and through it the pool's pages and any built key indexes). A
  // snapshot that fails page verification is quarantined exactly as
  // LoadSnapshot would. kFailedPrecondition when paged mode is off.
  Result<std::shared_ptr<pagestore::PagedSnapshot>> PagedSourceFor(
      uint64_t fingerprint);

  size_t inflight_runs() const;
  size_t queued_runs() const;

 private:
  // Builds the session object plus (with a data dir) its journal and
  // persistence; `replaying` starts persistence suppressed for recovery.
  // `epoch` is the ownership epoch the caller claimed the session at
  // (0 = unfenced) — the journal and persistence write under it.
  Result<std::shared_ptr<Session>> MakeSession(const std::string& id,
                                               bool replaying,
                                               uint64_t epoch);

  // Claims ownership of `id` (bumping its epoch) when this manager has a
  // worker identity; returns 0 (unfenced) otherwise or when the claim
  // fails — a failed stamp costs nothing now and at worst makes the
  // session look unowned to a sibling's recovery.
  uint64_t ClaimEpoch(const std::string& id);

  // Applies one journal's records to a fresh session and, if the journal
  // holds a run record, re-submits the pipeline with the journaled
  // answers (sets *resumed_run).
  Result<std::shared_ptr<Session>> RecoverFromReplay(
      const std::string& id, const store::JournalReplay& replay,
      uint64_t epoch, bool* resumed_run);

  // Enforces options_.run_deadline_ms against every running session.
  void WatchdogLoop();
  void StopWatchdog();

  SessionManagerOptions options_;
  ExtensionRegistry registry_;
  std::shared_ptr<MemoryBudget> budget_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<store::Store> store_;
  Status store_status_;
  std::shared_ptr<pagestore::BufferPool> buffer_pool_;

  // fingerprint → live paged source. Weak: the sources are owned by the
  // tables referencing them (via the registry while interned), so a swept
  // extension's source detaches from the pool on its own.
  std::mutex paged_mutex_;
  std::map<uint64_t, std::weak_ptr<pagestore::PagedSnapshot>>
      paged_sources_;

  mutable std::mutex mutex_;
  uint64_t next_session_ = 1;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  size_t inflight_ = 0;
  size_t queued_ = 0;

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;  // running only when run_deadline_ms > 0
};

}  // namespace dbre::service

#endif  // DBRE_SERVICE_SESSION_MANAGER_H_
