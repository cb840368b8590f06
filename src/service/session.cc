#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "core/navigation_graph.h"
#include "core/report_json.h"
#include "eer/dot_export.h"
#include "relational/csv.h"
#include "service/protocol.h"
#include "sql/ddl.h"
#include "sql/ddl_writer.h"

namespace dbre::service {
namespace {

constexpr size_t kMaxEvents = 256;

const char* NeiActionName(NeiAction action) {
  switch (action) {
    case NeiAction::kConceptualize: return "conceptualize";
    case NeiAction::kForceLeftInRight: return "force_left";
    case NeiAction::kForceRightInLeft: return "force_right";
    case NeiAction::kIgnore: return "ignore";
  }
  return "ignore";
}

Json AnswerRecord(const char* kind, const std::string& subject) {
  Json record = Json::MakeObject();
  record.Set("kind", Json::Str(kind));
  record.Set("subject", Json::Str(subject));
  return record;
}

// ExpertOracle decorator that appends every freshly-resolved answer to the
// session's in-memory answer log (the same record shape the journal
// uses), so the next rerun can replay it. Sits *inside* the replay layer:
// answers replayed from the log never re-record.
class RecordingOracle : public ExpertOracle {
 public:
  RecordingOracle(ExpertOracle* wrapped, Session* session)
      : wrapped_(wrapped), session_(session) {}

  NeiDecision DecideNonEmptyIntersection(const EquiJoin& join,
                                         const JoinCounts& counts) override {
    NeiDecision decision = wrapped_->DecideNonEmptyIntersection(join, counts);
    Json record = AnswerRecord("nei", join.ToString());
    record.Set("action", Json::Str(NeiActionName(decision.action)));
    if (!decision.relation_name.empty()) {
      record.Set("name", Json::Str(decision.relation_name));
    }
    session_->RecordAnswer(std::move(record));
    return decision;
  }
  bool EnforceFailedFd(const FunctionalDependency& fd) override {
    bool enforce = wrapped_->EnforceFailedFd(fd);
    RecordBool("enforce_fd", fd.ToString(), enforce);
    return enforce;
  }
  bool EnforceFailedFd(const FunctionalDependency& fd,
                       double g3_error) override {
    bool enforce = wrapped_->EnforceFailedFd(fd, g3_error);
    RecordBool("enforce_fd", fd.ToString(), enforce);
    return enforce;
  }
  bool ValidateFd(const FunctionalDependency& fd) override {
    bool valid = wrapped_->ValidateFd(fd);
    RecordBool("validate_fd", fd.ToString(), valid);
    return valid;
  }
  bool ConceptualizeHiddenObject(
      const QualifiedAttributes& candidate) override {
    bool accept = wrapped_->ConceptualizeHiddenObject(candidate);
    RecordBool("hidden_object", candidate.ToString(), accept);
    return accept;
  }
  std::string NameRelationForFd(const FunctionalDependency& fd) override {
    std::string name = wrapped_->NameRelationForFd(fd);
    RecordName("name_fd", fd.ToString(), name);
    return name;
  }
  std::string NameHiddenObjectRelation(
      const QualifiedAttributes& source) override {
    std::string name = wrapped_->NameHiddenObjectRelation(source);
    RecordName("name_hidden", source.ToString(), name);
    return name;
  }

 private:
  void RecordBool(const char* kind, const std::string& subject, bool value) {
    Json record = AnswerRecord(kind, subject);
    record.Set("value", Json::Bool(value));
    session_->RecordAnswer(std::move(record));
  }
  void RecordName(const char* kind, const std::string& subject,
                  const std::string& name) {
    Json record = AnswerRecord(kind, subject);
    record.Set("name", Json::Str(name));
    session_->RecordAnswer(std::move(record));
  }

  ExpertOracle* const wrapped_;  // not owned
  Session* const session_;       // not owned
};

Json StringList(const std::vector<std::string>& values) {
  Json list = Json::MakeArray();
  for (const std::string& value : values) list.Append(Json::Str(value));
  return list;
}

}  // namespace

Session::Session(std::string id, AsyncOracle::Options oracle_options,
                 SessionLimits limits, ExtensionRegistry* registry,
                 std::shared_ptr<MemoryBudget> budget)
    : id_(std::move(id)),
      limits_(limits),
      registry_(registry),
      budget_(std::move(budget)),
      oracle_(oracle_options) {}

Session::~Session() { Close(); }

Session::State Session::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const char* Session::StateName(State state) {
  switch (state) {
    case State::kIdle: return "idle";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kFailed: return "failed";
    case State::kClosed: return "closed";
  }
  return "unknown";
}

std::string Session::phase() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return phase_;
}

Status Session::ReserveDelta(size_t old_bytes, size_t new_bytes) {
  if (Failpoints::Check("session.reserve").action !=
      FailpointHit::Action::kNone) {
    return FailedPreconditionError(
        "session " + id_ +
        ": simulated allocation failure (failpoint session.reserve)");
  }
  if (new_bytes <= old_bytes) {
    if (budget_) budget_->Release(old_bytes - new_bytes);
    bytes_ = new_bytes;
    return Status::Ok();
  }
  size_t delta = new_bytes - old_bytes;
  if (new_bytes > limits_.max_bytes) {
    return FailedPreconditionError(
        "session " + id_ + " memory limit exceeded: " +
        std::to_string(new_bytes) + " > " +
        std::to_string(limits_.max_bytes) + " bytes");
  }
  if (budget_ && !budget_->Reserve(delta)) {
    return FailedPreconditionError(
        "server memory budget exhausted (" +
        std::to_string(budget_->used()) + " of " +
        std::to_string(budget_->max_total()) + " bytes in use)");
  }
  bytes_ = new_bytes;
  return Status::Ok();
}

Status Session::LoadDdl(const std::string& sql, size_t* relations_out,
                        size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  DBRE_ASSIGN_OR_RETURN(sql::DdlStats stats,
                        sql::ExecuteDdlScript(sql, &database_));
  size_t new_bytes = 0;
  for (const std::string& relation : database_.RelationNames()) {
    DBRE_ASSIGN_OR_RETURN(const Table* table,
                          database_.GetTable(relation));
    new_bytes += table->ApproximateBytes();
  }
  DBRE_RETURN_IF_ERROR(ReserveDelta(bytes_, new_bytes));
  if (persist_) persist_->LogDdl(sql);
  if (relations_out != nullptr) *relations_out = stats.tables_created;
  if (rows_out != nullptr) *rows_out = stats.rows_inserted;
  return Status::Ok();
}

void Session::SetPagedOpener(PagedOpener opener) {
  std::lock_guard<std::mutex> lock(mutex_);
  paged_opener_ = std::move(opener);
}

void Session::TryAdoptPaged(Table* table) {
  if (!paged_opener_ || persist_ == nullptr) return;
  // Snapshot first (content-addressed and deduplicated) so the paged
  // source has a verified file to open, then swap the resident columns
  // for the page-backed ones. Every step degrades gracefully: on any
  // failure the extension simply stays in memory.
  Result<store::SnapshotInfo> info = persist_->store()->PutSnapshot(*table);
  if (!info.ok()) return;
  Result<std::shared_ptr<pagestore::PagedSnapshot>> source =
      paged_opener_(info->fingerprint);
  if (!source.ok()) return;
  (void)table->AdoptPagedExtension(*source);
}

Status Session::LoadCsv(const std::string& relation,
                        const std::string& csv_text, size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  DBRE_ASSIGN_OR_RETURN(Table * table, database_.GetMutableTable(relation));
  size_t old_table_bytes = table->ApproximateBytes();
  DBRE_ASSIGN_OR_RETURN(size_t rows, LoadCsvText(csv_text, table));
  TryAdoptPaged(table);
  // Intern before accounting: an extension already pooled by another
  // session costs this one (approximately) nothing new.
  bool shared = registry_ != nullptr && registry_->Intern(table);
  size_t new_table_bytes = shared ? 0 : table->ApproximateBytes();
  DBRE_RETURN_IF_ERROR(
      ReserveDelta(bytes_, bytes_ - old_table_bytes + new_table_bytes));
  if (persist_) persist_->LogExtension(*table, relation, rows);
  if (rows_out != nullptr) *rows_out = rows;
  return Status::Ok();
}

Status Session::RestoreExtension(const std::string& relation,
                                 uint64_t fingerprint, size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  if (!persist_) {
    return FailedPreconditionError("session " + id_ +
                                   " has no data dir to restore from");
  }
  DBRE_ASSIGN_OR_RETURN(Table * table, database_.GetMutableTable(relation));
  if (paged_opener_) {
    // Open the snapshot page-backed instead of materializing it. Failures
    // fall through to the whole-file loader — recovery must not depend on
    // the pool being large enough or the paged open succeeding.
    Result<std::shared_ptr<pagestore::PagedSnapshot>> source =
        paged_opener_(fingerprint);
    if (source.ok()) {
      const auto& ours = table->schema().attributes();
      const auto& theirs = (*source)->schema().attributes();
      bool layout_matches = ours.size() == theirs.size();
      for (size_t i = 0; layout_matches && i < ours.size(); ++i) {
        layout_matches = ours[i].name == theirs[i].name &&
                         ours[i].type == theirs[i].type;
      }
      if (!layout_matches) {
        return FailedPreconditionError(
            "snapshot " + FingerprintToHex(fingerprint) +
            " does not match the catalog schema of " + relation);
      }
      size_t old_table_bytes = table->ApproximateBytes();
      size_t rows = (*source)->num_rows();
      DBRE_RETURN_IF_ERROR(table->AdoptPagedExtension(*source));
      bool shared = registry_ != nullptr &&
                    registry_->InternPrecomputed(table, fingerprint);
      size_t new_table_bytes = shared ? 0 : table->ApproximateBytes();
      DBRE_RETURN_IF_ERROR(
          ReserveDelta(bytes_, bytes_ - old_table_bytes + new_table_bytes));
      if (rows_out != nullptr) *rows_out = rows;
      return Status::Ok();
    }
  }
  DBRE_ASSIGN_OR_RETURN(store::LoadedSnapshot snapshot,
                        persist_->store()->LoadSnapshot(fingerprint));
  // The catalog's DDL (already replayed) is authoritative for constraints;
  // the snapshot only has to agree on the column layout.
  const auto& ours = table->schema().attributes();
  const auto& theirs = snapshot.schema.attributes();
  bool layout_matches = ours.size() == theirs.size();
  for (size_t i = 0; layout_matches && i < ours.size(); ++i) {
    layout_matches =
        ours[i].name == theirs[i].name && ours[i].type == theirs[i].type;
  }
  if (!layout_matches) {
    return FailedPreconditionError(
        "snapshot " + FingerprintToHex(fingerprint) +
        " does not match the catalog schema of " + relation);
  }
  size_t old_table_bytes = table->ApproximateBytes();
  size_t rows = snapshot.rows;
  DBRE_RETURN_IF_ERROR(
      table->AdoptColumns(std::move(snapshot.columns), snapshot.rows));
  // The footer fingerprint was written by ComputeFingerprint over these
  // same columns, so interning can reuse it instead of re-hashing; sharing
  // still requires equal codes and dictionaries (AdoptSharedExtension).
  bool shared = registry_ != nullptr &&
                registry_->InternPrecomputed(table, snapshot.fingerprint);
  size_t new_table_bytes = shared ? 0 : table->ApproximateBytes();
  DBRE_RETURN_IF_ERROR(
      ReserveDelta(bytes_, bytes_ - old_table_bytes + new_table_bytes));
  if (rows_out != nullptr) *rows_out = rows;
  return Status::Ok();
}

Status Session::AddJoins(const std::vector<EquiJoin>& joins) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  for (const EquiJoin& join : joins) {
    DBRE_RETURN_IF_ERROR(join.Validate());
    if (!database_.HasRelation(join.left_relation)) {
      return NotFoundError("join references unknown relation " +
                           join.left_relation);
    }
    if (!database_.HasRelation(join.right_relation)) {
      return NotFoundError("join references unknown relation " +
                           join.right_relation);
    }
  }
  joins_.insert(joins_.end(), joins.begin(), joins.end());
  if (persist_ && !joins.empty()) persist_->LogJoins(joins);
  return Status::Ok();
}

size_t Session::join_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return joins_.size();
}

size_t Session::relation_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return database_.NumRelations();
}

size_t Session::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::function<void()> Session::EmitEventLocked(const char* type,
                                               Json payload) {
  Json event = Json::MakeObject();
  event.Set("seq", Json::Int(static_cast<int64_t>(++event_seq_)));
  event.Set("type", Json::Str(type));
  for (auto& [key, value] : payload.object()) {
    event.Set(key, std::move(value));
  }
  events_.push_back(std::move(event));
  while (events_.size() > kMaxEvents) events_.pop_front();
  return listener_;
}

std::vector<Json> Session::EventsSince(uint64_t after_seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Json> out;
  for (const Json& event : events_) {
    if (static_cast<uint64_t>(event.GetInt("seq")) > after_seq) {
      out.push_back(event);
    }
  }
  return out;
}

uint64_t Session::event_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return event_seq_;
}

void Session::SeedAnswer(Json record) {
  std::lock_guard<std::mutex> lock(mutex_);
  answers_.push_back(std::move(record));
}

void Session::RecordAnswer(Json record) {
  std::lock_guard<std::mutex> lock(mutex_);
  answers_.push_back(std::move(record));
}

Status Session::ApplyMutation(const std::string& sql,
                              sql::DmlStats* stats_out) {
  std::function<void()> listener;
  Status reserved = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kIdle && state_ != State::kDone &&
        state_ != State::kFailed) {
      return FailedPreconditionError("session " + id_ +
                                     " cannot mutate while " +
                                     StateName(state_));
    }
    if (database_.NumRelations() == 0) {
      return FailedPreconditionError("session " + id_ +
                                     " has no catalog: load_ddl first");
    }
    // Byte accounting snapshot before the script runs: the script names
    // its target tables only after parsing, and a mutated table that was
    // interned detaches copy-on-write (its bytes become this session's).
    std::vector<std::pair<std::string, size_t>> before;
    for (const std::string& relation : database_.RelationNames()) {
      Result<const Table*> table = database_.GetTable(relation);
      if (table.ok()) {
        before.emplace_back(relation, (*table)->ApproximateBytes());
      }
    }
    DBRE_ASSIGN_OR_RETURN(sql::DmlStats stats,
                          sql::ExecuteDmlScript(sql, &database_));
    size_t old_sum = 0;
    size_t new_sum = 0;
    for (const auto& [relation, old_bytes] : before) {
      Result<const Table*> table = database_.GetTable(relation);
      if (table.ok()) {
        old_sum += old_bytes;
        new_sum += (*table)->ApproximateBytes();
      }
    }
    size_t new_bytes = bytes_ + new_sum - std::min(old_sum, bytes_ + new_sum);
    // The rows are already mutated, so a budget failure here cannot undo
    // them; journal first regardless — the journal must reflect what the
    // catalog absorbed — then surface the budget error.
    if (persist_) persist_->LogMutation(sql);
    reserved = ReserveDelta(bytes_, new_bytes);
    Json payload = Json::MakeObject();
    payload.Set("statements",
                Json::Int(static_cast<int64_t>(stats.statements)));
    payload.Set("inserted",
                Json::Int(static_cast<int64_t>(stats.rows_inserted)));
    payload.Set("updated",
                Json::Int(static_cast<int64_t>(stats.rows_updated)));
    payload.Set("deleted",
                Json::Int(static_cast<int64_t>(stats.rows_deleted)));
    Json tables = Json::MakeArray();
    for (const sql::TableMutation& mutation : stats.tables) {
      Json entry = Json::MakeObject();
      entry.Set("table", Json::Str(mutation.table));
      entry.Set("inserted",
                Json::Int(static_cast<int64_t>(mutation.inserted)));
      entry.Set("updated", Json::Int(static_cast<int64_t>(mutation.updated)));
      entry.Set("deleted", Json::Int(static_cast<int64_t>(mutation.deleted)));
      entry.Set("structural", Json::Bool(mutation.structural));
      tables.Append(std::move(entry));
    }
    payload.Set("tables", std::move(tables));
    listener = EmitEventLocked("mutate", std::move(payload));
    if (stats_out != nullptr) *stats_out = std::move(stats);
  }
  if (listener) listener();
  return reserved;
}

Status Session::BeginRun(const RunOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle && state_ != State::kDone &&
      state_ != State::kFailed) {
    return FailedPreconditionError("session " + id_ +
                                   " cannot start a run while " +
                                   StateName(state_));
  }
  if (database_.NumRelations() == 0) {
    return FailedPreconditionError("session " + id_ +
                                   " has no catalog: load_ddl first");
  }
  if (options.oracle != "async" && options.oracle != "default" &&
      options.oracle != "threshold") {
    return InvalidArgumentError("unknown oracle policy '" + options.oracle +
                                "' (want async, default or threshold)");
  }
  state_ = State::kRunning;
  phase_.clear();
  report_.reset();
  error_ = Status::Ok();
  abort_reason_ = Status::Ok();
  cancel_.store(false, std::memory_order_relaxed);
  // A recovery re-run (options.replay set) is already journaled; logging
  // it again would double the record on the next replay.
  if (persist_ && !options.replay) {
    persist_->LogRunStart(options.infer_keys, options.close_inds,
                          options.merge_isa_cycles, options.oracle);
  }
  return Status::Ok();
}

void Session::ExecuteRun(const RunOptions& options) {
  // The deadline clock starts here, when the run actually executes — not
  // in BeginRun at admission. An admitted run may wait in the queue behind
  // max_inflight; the watchdog must not abort a run that never got a
  // worker as "exceeding its deadline".
  run_started_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
  // The catalog is frozen while kRunning (loads are rejected), so reading
  // database_/joins_ without the session lock is safe here.
  if (registry_ != nullptr) registry_->InternDatabase(&database_);

  PipelineOptions pipeline_options;
  pipeline_options.infer_missing_keys = options.infer_keys;
  pipeline_options.close_inds = options.close_inds;
  pipeline_options.translate.merge_isa_cycles = options.merge_isa_cycles;
  pipeline_options.cancel = &cancel_;
  pipeline_options.trace = &trace_;
  pipeline_options.on_phase = [this](const char* phase) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      phase_ = phase;
    }
    if (persist_) persist_->LogPhase(phase);
  };

  DefaultOracle default_oracle;
  ThresholdOracle::Options threshold_options;
  threshold_options.nei_conceptualize_ratio = 2.0;
  threshold_options.nei_force_ratio = 0.5;
  threshold_options.accept_hidden_objects = true;
  threshold_options.enforce_fd_max_error = 0.01;
  ThresholdOracle threshold_oracle(threshold_options);
  ExpertOracle* oracle = &oracle_;
  if (options.oracle == "default") oracle = &default_oracle;
  if (options.oracle == "threshold") oracle = &threshold_oracle;

  // Oracle chain: ReplayOracle(recorded answers) → JournalingOracle →
  // RecordingOracle → the live policy. Replayed answers never hit the
  // journaling/recording layers, so only decisions made *now* (client
  // answers, timeouts) are appended — to the journal and to the session's
  // in-memory answer log alike.
  RecordingOracle recording(oracle, this);
  oracle = &recording;
  std::optional<JournalingOracle> journaling;
  if (persist_ != nullptr) {
    journaling.emplace(oracle, persist_.get());
    oracle = &*journaling;
  }
  std::shared_ptr<ReplayOracle> replay = options.replay;
  if (replay == nullptr) {
    // Incremental rerun: replay this session's own answer log so the
    // re-validation only re-asks what the expert never answered. On a
    // first run the log is empty and this stays null.
    std::lock_guard<std::mutex> lock(mutex_);
    if (!answers_.empty()) {
      replay = std::make_shared<ReplayOracle>();
      for (const Json& record : answers_) {
        PrimeReplayAnswer(replay.get(), record);
      }
    }
  }
  if (replay != nullptr) {
    replay->SetFallback(oracle);
    oracle = replay.get();
  }

  auto result = RunPipeline(database_, joins_, oracle, pipeline_options);

  std::function<void()> listener;
  bool finished_ok = false;
  bool log_finished = false;
  std::string finished_error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_.clear();
    run_started_us_.store(0, std::memory_order_release);
    if (state_ == State::kClosed) {
      // Closed while running: drop the result, stay closed.
    } else if (result.ok()) {
      report_ = std::move(result).value();
      state_ = State::kDone;
      log_finished = true;
      finished_ok = true;
      // Watchers get the presumption *delta* against the previous report,
      // not the whole report — that is the point of the watch stream.
      PresumptionSet presumptions = ExtractPresumptions(*report_);
      PresumptionDiff diff =
          DiffPresumptions(last_presumptions_, presumptions);
      Json payload = Json::MakeObject();
      payload.Set("initial", Json::Bool(!has_presumptions_));
      payload.Set("changed",
                  Json::Bool(has_presumptions_ && !diff.empty()));
      payload.Set("inds", Json::Int(static_cast<int64_t>(
                              presumptions.inds.size())));
      payload.Set("fds", Json::Int(static_cast<int64_t>(
                             presumptions.fds.size())));
      payload.Set("inds_added", StringList(diff.inds.added));
      payload.Set("inds_removed", StringList(diff.inds.removed));
      payload.Set("fds_added", StringList(diff.fds.added));
      payload.Set("fds_removed", StringList(diff.fds.removed));
      payload.Set("lhs_added", StringList(diff.lhs.added));
      payload.Set("lhs_removed", StringList(diff.lhs.removed));
      last_presumptions_ = std::move(presumptions);
      has_presumptions_ = true;
      EmitEventLocked("report", std::move(payload));
    } else {
      // A watchdog abort surfaces its reason (e.g. the exceeded
      // deadline), not the pipeline's generic cancellation status.
      error_ = abort_reason_.ok() ? result.status() : abort_reason_;
      state_ = State::kFailed;
      log_finished = true;
      finished_error = error_.ToString();
      Json payload = Json::MakeObject();
      payload.Set("error", Json::Str(finished_error));
      EmitEventLocked("run_failed", std::move(payload));
    }
    finished_.notify_all();
    listener = listener_;
  }
  if (persist_ && log_finished) {
    persist_->LogFinished(finished_ok, finished_error);
  }
  if (listener) listener();
}

void Session::AttachPersistence(
    std::shared_ptr<SessionPersistence> persist) {
  std::lock_guard<std::mutex> lock(mutex_);
  persist_ = std::move(persist);
}

void Session::DisarmPersistence() {
  if (persist_) persist_->set_replaying(true);
}

void Session::SetListener(std::function<void()> listener) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listener_ = listener;
  }
  oracle_.SetListener(std::move(listener));
}

bool Session::WaitFinished(int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto terminal = [this] {
    return state_ == State::kDone || state_ == State::kFailed ||
           state_ == State::kClosed;
  };
  if (timeout_ms < 0) {
    finished_.wait(lock, terminal);
    return true;
  }
  return finished_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            terminal);
}

Status Session::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

Result<std::string> Session::ReportJson(bool include_timings) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  JsonOptions options;
  options.include_timings = include_timings;
  return ReportToJson(*report_, options);
}

Result<std::string> Session::ExportDdl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  return sql::WriteDdl(report_->restruct.database);
}

Result<std::string> Session::ExportEerDot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  return eer::ToDot(report_->eer);
}

Result<std::string> Session::ExportNavigationDot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  return NavigationGraphToDot(report_->working_database, report_->ind);
}

Result<std::string> Session::SummaryText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  return report_->Summary();
}

void Session::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    // A running pipeline keeps its worker until the next phase boundary;
    // ExecuteRun observes kClosed when it finishes and drops its result.
    state_ = State::kClosed;
    if (budget_) budget_->Release(bytes_);
    bytes_ = 0;
    finished_.notify_all();
  }
  cancel_.store(true, std::memory_order_relaxed);
  oracle_.CancelAll();
}

bool Session::AbortRun(const Status& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kRunning || !abort_reason_.ok()) return false;
    abort_reason_ = reason;
  }
  cancel_.store(true, std::memory_order_relaxed);
  oracle_.CancelAll();
  return true;
}

}  // namespace dbre::service
