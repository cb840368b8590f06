// Workload `serve`: expert dialogues through the shipped daemons.
//
// dbre_router runs in front of two dbre_serve epoll workers that share a
// --data-dir (journal fsync batch at the daemon default of 8 records;
// answers always sync) and serve extensions paged through a buffer pool
// smaller than the live sessions' combined extensions. One client process
// drives a closed loop over nproc connections (an expert's client waits
// for every reply; the question/answer handshake forces that). Each
// connection runs one session at a time: hello, create, load_ddl,
// load_csv per relation, add_joins, run, answer every question by a fixed
// policy, report, one mutate, run, answer, watch until the report event,
// report, close. A session's database is one of a few generated variants
// (a few thousand rows per relation, with orphaned references so NEI
// questions arise), so concurrent sessions sometimes share interned
// extensions and sometimes do not. The load falls on service, store,
// pagestore, cluster and the transport; core does little.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/oracle.h"
#include "pipeline_util.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "sql/dml.h"

namespace dbre::bench {
namespace {

using service::Json;

constexpr size_t kVariants = 4;
constexpr size_t kRowsPerEntity = 4'000;
constexpr double kOrphanRate = 0.02;
// 16 pages of 64 KiB, against ~1 MiB of extension per live session.
constexpr int kBufferPoolMb = 1;
constexpr int kSetupRepeats = 3;
constexpr int64_t kWaitMs = 10'000;

// ---------------------------------------------------------------------------
// Daemon processes.

// A child process whose first stdout line is its port; killed and reaped
// when the object dies.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Kill(); }

  Status Start(const std::vector<std::string>& argv, const std::string& log) {
    // Everything the child needs is prepared before fork: between fork
    // and exec it may only make async-signal-safe calls.
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return InternalError("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) return InternalError("fork failed");
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::close(pipe_fds[0]);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    stdout_fd_ = pipe_fds[0];
    // The port line, within 10 s.
    std::string line;
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (line.find('\n') == std::string::npos) {
      int left = static_cast<int>(std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now()).count());
      pollfd fd{stdout_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&fd, 1, left) <= 0) {
        return InternalError(argv[0] + " did not report a port");
      }
      char buffer[64];
      ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (n <= 0) return InternalError(argv[0] + " exited at start-up");
      line.append(buffer, static_cast<size_t>(n));
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str(), nullptr, 10));
    return port_ != 0 ? Status::Ok()
                      : InternalError(argv[0] + " printed no port");
  }

  uint16_t port() const { return port_; }

  // Peak resident set size of the reaped process, in MiB (0 while it
  // runs).
  double peak_rss_mb() const { return peak_rss_mb_; }

  // Waits up to `grace_ms` for a requested exit, then kills.
  bool Stop(int64_t grace_ms) {
    if (pid_ <= 0) return true;
    for (int64_t waited = 0; waited < grace_ms; waited += 10) {
      if (Reap(WNOHANG)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Kill();
    return false;
  }

 private:
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Reap(0);
    }
    Release();
  }
  bool Reap(int options) {
    struct rusage usage {};
    if (::wait4(pid_, nullptr, options, &usage) != pid_) return false;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
    Release();
    return true;
  }
  void Release() {
    pid_ = -1;
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double peak_rss_mb_ = 0.0;
};

Json Command(const char* cmd, const std::string& session = "") {
  Json request = Json::MakeObject();
  request.Set("cmd", Json::Str(cmd));
  if (!session.empty()) request.Set("session", Json::Str(session));
  return request;
}

// One connection; every call is timed.
class Client {
 public:
  Status Connect(uint16_t port) {
    auto channel = service::TcpConnectWithRetry("127.0.0.1", port, 5'000,
                                                60'000);
    if (!channel.ok()) return channel.status();
    channel_ = std::move(channel).value();
    return Status::Ok();
  }

  // The response envelope; `rtt_us` receives the round trip.
  Result<Json> Call(Json request, double* rtt_us = nullptr) {
    request.Set("id", Json::Int(next_id_++));
    int64_t start = NowUs();
    DBRE_RETURN_IF_ERROR(channel_->WriteLine(request.Dump()));
    DBRE_ASSIGN_OR_RETURN(std::string line, channel_->ReadLine());
    if (rtt_us != nullptr) *rtt_us = static_cast<double>(NowUs() - start);
    return Json::Parse(line);
  }

 private:
  std::unique_ptr<service::SocketChannel> channel_;
  int64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// Inputs and the fixed answer policy.

struct Variant {
  TextInputs inputs;
  Json joins;
  std::string mutation;
  std::string initial_report, mutated_report;  // in-process references
};

// The fixed expert: a ThresholdOracle consulted with each question's
// structured context, so a wire session answers exactly as the
// in-process reference run does.
Json AnswerParams(ExpertOracle* expert, const Json& question) {
  Json params = Json::MakeObject();
  std::string kind = question.GetString("kind");
  auto strings = [](const Json* array) {
    std::vector<std::string> out;
    if (array != nullptr) {
      for (const Json& element : array->array()) {
        out.push_back(element.AsString());
      }
    }
    return out;
  };
  if (kind == "nei") {
    auto join = service::ParseJoin(*question.Find("join"));
    const Json* counts_json = question.Find("counts");
    JoinCounts counts;
    counts.n_left = static_cast<size_t>(counts_json->GetInt("left"));
    counts.n_right = static_cast<size_t>(counts_json->GetInt("right"));
    counts.n_join = static_cast<size_t>(counts_json->GetInt("join"));
    NeiDecision decision = expert->DecideNonEmptyIntersection(
        join.ok() ? *join : EquiJoin{}, counts);
    const char* action = "ignore";
    if (decision.action == NeiAction::kConceptualize) action = "conceptualize";
    if (decision.action == NeiAction::kForceLeftInRight) action = "force_left";
    if (decision.action == NeiAction::kForceRightInLeft) {
      action = "force_right";
    }
    params.Set("action", Json::Str(action));
    if (!decision.relation_name.empty()) {
      params.Set("name", Json::Str(decision.relation_name));
    }
    return params;
  }
  if (kind == "enforce_fd" || kind == "validate_fd" || kind == "name_fd") {
    const Json* fd_json = question.Find("fd");
    FunctionalDependency fd(fd_json->GetString("relation"),
                            AttributeSet(strings(fd_json->Find("lhs"))),
                            AttributeSet(strings(fd_json->Find("rhs"))));
    if (kind == "enforce_fd") {
      const Json* g3 = question.Find("g3_error");
      params.Set("value",
                 Json::Bool(g3 != nullptr
                                ? expert->EnforceFailedFd(fd, g3->AsNumber())
                                : expert->EnforceFailedFd(fd)));
    } else if (kind == "validate_fd") {
      params.Set("value", Json::Bool(expert->ValidateFd(fd)));
    } else {
      params.Set("name", Json::Str(expert->NameRelationForFd(fd)));
    }
    return params;
  }
  const Json* candidate_json = question.Find("candidate");
  QualifiedAttributes candidate{
      candidate_json->GetString("relation"),
      AttributeSet(strings(candidate_json->Find("attributes")))};
  if (kind == "hidden_object") {
    params.Set("value",
               Json::Bool(expert->ConceptualizeHiddenObject(candidate)));
  } else {
    params.Set("name", Json::Str(expert->NameHiddenObjectRelation(candidate)));
  }
  return params;
}

// Variant `index` is generated from shape seed index + 1; `order_seed`
// orders its rows (see RenderInputs).
Result<Variant> MakeVariant(size_t index, uint64_t order_seed) {
  workload::SyntheticSpec spec;
  spec.num_entities = 3;
  spec.num_merged = 1;
  spec.rows_per_entity = kRowsPerEntity;
  spec.orphan_rate = kOrphanRate;
  spec.emit_program_sources = false;
  spec.seed = index + 1;
  DBRE_ASSIGN_OR_RETURN(workload::SyntheticDatabase db,
                        workload::GenerateSynthetic(spec));
  Variant variant;
  variant.inputs = RenderInputs(db, order_seed);
  variant.joins = Json::MakeArray();
  for (const EquiJoin& join : db.queries) {
    variant.joins.Append(service::JoinToJson(join));
  }
  // Rewrites the merged payload of the first 50 host tuples: the
  // ground-truth FD stops holding, so the rerun asks again.
  const FunctionalDependency& fd = db.true_fds.front();
  DBRE_ASSIGN_OR_RETURN(const Table* host, db.database.GetTable(fd.relation));
  const std::string& key =
      host->schema().unique_constraints().front().names().front();
  variant.mutation = "UPDATE " + fd.relation + " SET " +
                     fd.rhs.names().front() + " = 'mutated' WHERE " + key +
                     " <= 50;";

  ThresholdOracle oracle;
  DBRE_ASSIGN_OR_RETURN(Database catalog, LoadCatalog(variant.inputs));
  DBRE_ASSIGN_OR_RETURN(PipelineReport initial,
                        RunPipeline(catalog, db.queries, &oracle));
  variant.initial_report = ReportText(initial);
  DBRE_ASSIGN_OR_RETURN(Database mutated, LoadCatalog(variant.inputs));
  DBRE_RETURN_IF_ERROR(
      sql::ExecuteDmlScript(variant.mutation, &mutated).status());
  DBRE_ASSIGN_OR_RETURN(PipelineReport after,
                        RunPipeline(mutated, db.queries, &oracle));
  variant.mutated_report = ReportText(after);
  return variant;
}

// ---------------------------------------------------------------------------
// Sessions.

// Per-connection tallies, merged after the connections join.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  Samples session_ms, question_us, dialogue_ms;
  std::map<std::string, Samples> command_us;
  size_t sessions = 0;
  double csv_bytes = 0;  // loaded by the completed sessions
  double session_wall_ms = 0, request_ms = 0;

  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
    session_ms.Append(other.session_ms);
    question_us.Append(other.question_us);
    dialogue_ms.Append(other.dialogue_ms);
    for (const auto& [cmd, samples] : other.command_us) {
      command_us[cmd].Append(samples);
    }
    sessions += other.sessions;
    csv_bytes += other.csv_bytes;
    session_wall_ms += other.session_wall_ms;
    request_ms += other.request_ms;
  }
};

class SessionRunner {
 public:
  SessionRunner(Client* client, Tally* tally, Tracer* tracer)
      : client_(client), tally_(tally), tracer_(tracer) {}

  // Runs one whole session; false when anything failed (already tallied).
  bool Drive(const std::string& name, const Variant& variant);

 private:
  // One request; the result object, or nullopt after tallying a failure.
  std::optional<Json> Call(Json request);
  bool Fail(const std::string& why) {
    ++tally_->failed;
    if (tally_->failures.size() < 8) tally_->failures.push_back(why);
    return false;
  }
  // Answers questions until the run ends; false on failure.
  bool AnswerUntilDone(const std::string& session);
  bool CheckReport(const std::string& session, const std::string& expected,
                   const char* which);

  Client* client_;
  Tally* tally_;
  Tracer* tracer_;
  int64_t root_ = 0;  // the session's span
  ThresholdOracle expert_;
};

std::optional<Json> SessionRunner::Call(Json request) {
  std::string cmd = request.GetString("cmd");
  ++tally_->attempted;
  double rtt_us = 0;
  int64_t start_us = NowUs();
  Result<Json> response = client_->Call(std::move(request), &rtt_us);
  tracer_->Record("serve." + cmd, start_us, NowUs(), root_);
  tally_->request_ms += rtt_us / 1e3;
  tally_->command_us[cmd].Add(rtt_us);
  if (!response.ok()) {
    Fail(cmd + ": " + response.status().ToString());
    return std::nullopt;
  }
  if (!response->GetBool("ok")) {
    Fail(cmd + ": " + response->Dump());
    return std::nullopt;
  }
  const Json* result = response->Find("result");
  return result != nullptr ? *result : Json::MakeObject();
}

bool SessionRunner::AnswerUntilDone(const std::string& session) {
  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(kWaitMs));
    auto waited = Call(std::move(wait));
    if (!waited) return false;
    Clock::time_point asked = Clock::now();
    std::string state = waited->GetString("state");
    if (state == "done") return true;
    if (state != "running") return Fail("run ended " + state);
    if (waited->GetInt("pending") == 0) continue;
    auto listed = Call(Command("questions", session));
    if (!listed) return false;
    const Json* questions = listed->Find("questions");
    if (questions == nullptr) return Fail("questions: " + listed->Dump());
    for (const Json& question : questions->array()) {
      Json answer = Command("answer", session);
      answer.Set("question", Json::Int(question.GetInt("qid")));
      Json params = AnswerParams(&expert_, question);
      for (const auto& [key, value] : params.object()) answer.Set(key, value);
      if (!Call(std::move(answer))) return false;
      tally_->question_us.Add(
          std::chrono::duration<double, std::micro>(Clock::now() - asked)
              .count());
    }
  }
}

bool SessionRunner::CheckReport(const std::string& session,
                                const std::string& expected,
                                const char* which) {
  auto report = Call(Command("report", session));
  if (!report) return false;
  if (report->GetString("report") != expected) {
    return Fail(std::string(which) + " report of " + session +
                " differs from the in-process reference");
  }
  return true;
}

bool SessionRunner::Drive(const std::string& name, const Variant& variant) {
  Clock::time_point start = Clock::now();
  root_ = tracer_->Open("serve.session", NowUs());
  double requests_before = tally_->request_ms;
  auto ok = [&]() -> bool {
    if (!Call(Command("hello"))) return false;
    Json create = Command("create");
    create.Set("name", Json::Str(name));
    auto created = Call(std::move(create));
    if (!created) return false;
    std::string session = created->GetString("session");

    Json load_ddl = Command("load_ddl", session);
    load_ddl.Set("sql", Json::Str(variant.inputs.ddl));
    if (!Call(std::move(load_ddl))) return false;
    for (const auto& [relation, csv] : variant.inputs.csvs) {
      Json load_csv = Command("load_csv", session);
      load_csv.Set("relation", Json::Str(relation));
      load_csv.Set("csv", Json::Str(csv));
      if (!Call(std::move(load_csv))) return false;
    }
    Json add_joins = Command("add_joins", session);
    add_joins.Set("joins", variant.joins);
    if (!Call(std::move(add_joins))) return false;

    Clock::time_point run_start = Clock::now();
    if (!Call(Command("run", session)) || !AnswerUntilDone(session)) {
      return false;
    }
    tally_->dialogue_ms.Add(
        std::chrono::duration<double, std::milli>(Clock::now() - run_start)
            .count());
    if (!CheckReport(session, variant.initial_report, "initial")) return false;

    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str(variant.mutation));
    if (!Call(std::move(mutate))) return false;
    if (!Call(Command("run", session)) || !AnswerUntilDone(session)) {
      return false;
    }
    // The event stream must carry the rerun's report after the mutation.
    bool mutated = false, reported = false;
    int64_t cursor = 0;
    while (!reported) {
      Json watch = Command("watch", session);
      watch.Set("after_seq", Json::Int(cursor));
      watch.Set("timeout_ms", Json::Int(kWaitMs));
      auto watched = Call(std::move(watch));
      if (!watched) return false;
      const Json* events = watched->Find("events");
      if (events == nullptr || events->array().empty()) {
        return Fail("watch on " + session + " timed out");
      }
      for (const Json& event : events->array()) {
        std::string type = event.GetString("type");
        if (type == "mutate") mutated = true;
        if (type == "report" && mutated) reported = true;
      }
      cursor = watched->GetInt("next_seq");
    }
    if (!CheckReport(session, variant.mutated_report, "post-mutation")) {
      return false;
    }
    return Call(Command("close", session)).has_value();
  }();
  double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  tracer_->Close(root_, NowUs());
  if (ok) {
    ++tally_->sessions;
    tally_->csv_bytes += variant.inputs.csv_bytes;
    tally_->session_ms.Add(ms);
    tally_->session_wall_ms += ms;
  } else {
    // Keep the accounting consistent: a failed session's requests leave
    // the covered time too.
    tally_->request_ms = requests_before;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// The workload.

class Serve {
 public:
  Serve(const Args& args, Outcome* out) : args_(args), out_(out) {}
  void Run();

 private:
  Status StartFleet();
  // Shuts the fleet down; returns the summed peak RSS of its processes.
  double StopFleet();
  Result<MetricText> Metrics(uint16_t port);
  // The closed loop over nproc connections for `seconds`.
  Tally Load(double seconds, const std::string& tag, Tracer* tracer);
  Status Probe(std::atomic<bool>* stop, Samples* routed_us,
               Samples* direct_us);
  void ReportLayers(const Tally& tally, const MetricText& workers_before,
                    const MetricText& workers_after,
                    const MetricText& router_before,
                    const MetricText& router_after, const Samples& routed_us,
                    const Samples& direct_us, double trace_overhead_pct);

  const Args& args_;
  Outcome* out_;
  std::vector<Variant> variants_;
  std::string data_dir_;
  std::unique_ptr<Daemon> workers_[2];
  std::unique_ptr<Daemon> router_;
  size_t connections_ = 1;
};

Status Serve::StartFleet() {
  std::error_code error;
  std::filesystem::remove_all(data_dir_, error);
  if (!std::filesystem::create_directories(data_dir_, error)) {
    return InternalError("cannot create " + data_dir_);
  }
  const std::string log = args_.work_dir + "/serve-daemons.log";
  std::vector<std::string> specs;
  for (int i = 0; i < 2; ++i) {
    std::string id = "w" + std::to_string(i + 1);
    workers_[i] = std::make_unique<Daemon>();
    DBRE_RETURN_IF_ERROR(workers_[i]->Start(
        {args_.bin_dir + "/dbre_serve", "--port", "0", "--worker-id", id,
         "--data-dir", data_dir_, "--buffer-pool-mb",
         std::to_string(kBufferPoolMb)},
        log));
    specs.push_back(id + "=127.0.0.1:" + std::to_string(workers_[i]->port()));
  }
  router_ = std::make_unique<Daemon>();
  return router_->Start({args_.bin_dir + "/dbre_router", "--port", "0",
                         "--worker", specs[0], "--worker", specs[1]},
                        log);
}

double Serve::StopFleet() {
  double peak_rss_mb = 0.0;
  for (Daemon* daemon : {router_.get(), workers_[0].get(), workers_[1].get()}) {
    if (daemon == nullptr) continue;
    Client client;
    if (client.Connect(daemon->port()).ok()) {
      (void)client.Call(Command("shutdown"));
    }
    if (!daemon->Stop(5'000)) out_->notes.push_back("a daemon was killed");
    peak_rss_mb += daemon->peak_rss_mb();
  }
  router_.reset();
  workers_[0].reset();
  workers_[1].reset();
  std::error_code ignored;
  std::filesystem::remove_all(data_dir_, ignored);
  return peak_rss_mb;
}

Result<MetricText> Serve::Metrics(uint16_t port) {
  Client client;
  DBRE_RETURN_IF_ERROR(client.Connect(port));
  DBRE_ASSIGN_OR_RETURN(Json response, client.Call(Command("metrics")));
  const Json* result = response.Find("result");
  if (result == nullptr) return InternalError("metrics: " + response.Dump());
  return ParsePrometheus(result->GetString("metrics"));
}

Tally Serve::Load(double seconds, const std::string& tag, Tracer* tracer) {
  std::vector<Tally> tallies(connections_);
  std::vector<std::thread> threads;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < connections_; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      Status connected = client.Connect(router_->port());
      if (!connected.ok()) {
        ++tallies[c].attempted;
        ++tallies[c].failed;
        tallies[c].failures.push_back(connected.ToString());
        return;
      }
      std::mt19937_64 rng(args_.seed * 1'000'003 + c);
      SessionRunner runner(&client, &tallies[c], tracer);
      for (size_t n = 0; Clock::now() < deadline; ++n) {
        const Variant& variant = variants_[rng() % variants_.size()];
        runner.Drive(tag + "c" + std::to_string(c) + "s" + std::to_string(n),
                     variant);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Tally merged;
  for (const Tally& tally : tallies) merged.Merge(tally);
  return merged;
}

Status Serve::Probe(std::atomic<bool>* stop, Samples* routed_us,
                    Samples* direct_us) {
  // A low-rate observer beside the load: one session's `status` routed
  // against sent straight to its owner.
  Client routed, direct_owner;
  DBRE_RETURN_IF_ERROR(routed.Connect(router_->port()));
  Json create = Command("create");
  create.Set("name", Json::Str("probe"));
  DBRE_RETURN_IF_ERROR(routed.Call(std::move(create)).status());
  DBRE_ASSIGN_OR_RETURN(Json route, routed.Call(Command("route", "probe")));
  const Json* result = route.Find("result");
  std::string owner = result != nullptr ? result->GetString("worker") : "";
  DBRE_RETURN_IF_ERROR(
      direct_owner.Connect(workers_[owner == "w2" ? 1 : 0]->port()));
  while (!stop->load()) {
    double via_router = 0, direct = 0;
    DBRE_RETURN_IF_ERROR(
        routed.Call(Command("status", "probe"), &via_router).status());
    DBRE_RETURN_IF_ERROR(
        direct_owner.Call(Command("status", "probe"), &direct).status());
    routed_us->Add(via_router);
    direct_us->Add(direct);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return routed.Call(Command("close", "probe")).status();
}

void Serve::Run() {
  connections_ = std::max(1u, std::thread::hardware_concurrency());
  data_dir_ = args_.work_dir + "/serve-data";

  // Set-up: the variants with their in-process references, then the
  // fleet (started and stopped kSetupRepeats - 1 extra times for a
  // median), then one warm-up session per variant.
  Samples generate_s, fleet_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    std::vector<Variant> variants;
    for (size_t v = 0; v < kVariants; ++v) {
      auto variant = MakeVariant(v, args_.seed);
      if (!variant.ok()) {
        out_->Fail("variant: " + variant.status().ToString());
        return;
      }
      variants.push_back(std::move(variant).value());
    }
    variants_ = std::move(variants);
    generate_s.Add(SecondsBetween(start, Clock::now()));
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    Status started = StartFleet();
    Client probe;
    if (started.ok()) started = probe.Connect(router_->port());
    if (started.ok()) started = probe.Call(Command("cluster")).status();
    if (!started.ok()) {
      out_->Fail("fleet start: " + started.ToString());
      StopFleet();
      return;
    }
    fleet_s.Add(SecondsBetween(start, Clock::now()));
    if (i + 1 < kSetupRepeats) StopFleet();
  }
  // Warm-up: one session per variant, kSetupRepeats times for a median.
  Samples warmup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point warmup_start = Clock::now();
    Tally warmup;
    Tracer off(false);
    Client client;
    Status connected = client.Connect(router_->port());
    SessionRunner runner(&client, &warmup, &off);
    for (size_t v = 0; connected.ok() && v < variants_.size(); ++v) {
      runner.Drive("warmup" + std::to_string(i) + "v" + std::to_string(v),
                   variants_[v]);
    }
    if (!connected.ok() || warmup.failed > 0) {
      out_->Fail("warm-up: " + (connected.ok() ? warmup.failures.front()
                                               : connected.ToString()));
      StopFleet();
      return;
    }
    warmup_s.Add(SecondsBetween(warmup_start, Clock::now()));
  }
  size_t session_bytes = 0;
  for (const Variant& variant : variants_) {
    session_bytes += variant.inputs.csv_bytes;
  }
  out_->notes.push_back(
      "setup: variants+references median " +
      FormatNumber(generate_s.Median()) + " s, fleet start median " +
      FormatNumber(fleet_s.Median()) + " s over " +
      std::to_string(kSetupRepeats) + ", warm-up median " + FormatNumber(warmup_s.Median()) +
      " s; router + 2 epoll workers, shared data dir, fsync batch 8 "
      "(daemon default), buffer pool " + std::to_string(kBufferPoolMb) +
      " MiB against " + FormatNumber(session_bytes / kVariants / 1048576.0) +
      " MiB of CSV per session and " + std::to_string(connections_) +
      " connections");
  double setup_s =
      generate_s.Median() + fleet_s.Median() + warmup_s.Median();

  double untraced_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  Clock::time_point start = Clock::now();
  Tracer tracer(false);
  Tally untraced = Load(untraced_s, "u", &tracer);
  double wall_s = SecondsBetween(start, Clock::now());

  Tally traced;
  MetricText workers_before, workers_after, router_before, router_after;
  Samples routed_us, direct_us;
  if (args_.trace) {
    auto snapshot = [&](MetricText* workers, MetricText* router) {
      for (auto& worker : workers_) {
        auto text = Metrics(worker->port());
        if (!text.ok()) return false;
        for (const auto& [key, value] : *text) (*workers)[key] += value;
      }
      auto text = Metrics(router_->port());
      if (!text.ok()) return false;
      *router = std::move(text).value();
      return true;
    };
    if (!snapshot(&workers_before, &router_before)) {
      out_->Fail("metrics snapshot failed");
    }
    std::atomic<bool> stop{false};
    Status probed;
    std::thread probe(
        [&] { probed = Probe(&stop, &routed_us, &direct_us); });
    tracer.set_enabled(true);
    traced = Load(args_.seconds / 2, "t", &tracer);
    tracer.set_enabled(false);
    stop = true;
    probe.join();
    if (!probed.ok()) out_->Fail("probe: " + probed.ToString());
    if (!snapshot(&workers_after, &router_after)) {
      out_->Fail("metrics snapshot failed");
    }
  }

  double peak_rss = StopFleet();

  Tally all = untraced;
  all.Merge(traced);
  out_->attempted += all.attempted;
  for (const std::string& failure : all.failures) {
    out_->notes.push_back(failure);
  }
  out_->failed += all.failed;
  out_->notes.push_back(
      "serve: " + std::to_string(untraced.sessions) + " untraced sessions (" +
      std::to_string(untraced.question_us.size()) + " question round trips)" +
      (args_.trace ? ", " + std::to_string(traced.sessions) + " traced" : ""));
  out_->notes.push_back("question_rtt_us " + untraced.question_us.Ladder());
  // op: one whole session; step: its first dialogue, from `run` until the
  // run is done with every question answered. (A question's round trip
  // alone, under a millisecond, reads the host's wake-up latency: its
  // median moved by half between runs while the host was contended.)
  if (!args_.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss;
    e2e.op_ms = untraced.session_ms;
    e2e.step_ms = untraced.dialogue_ms;
    e2e.ops_per_s = untraced.sessions / wall_s;
    ReportEndToEnd(e2e, out_);
    return;
  }
  ReportLayers(traced, workers_before, workers_after, router_before,
               router_after, routed_us, direct_us,
               100.0 * (traced.session_ms.Median() -
                        untraced.session_ms.Median()) /
                   untraced.session_ms.Median());
  if (!tracer.WriteJsonLines(args_.spans_file)) {
    out_->Fail("cannot write " + args_.spans_file);
  }
  out_->notes.push_back("spans: " + args_.spans_file);
}

void Serve::ReportLayers(const Tally& tally, const MetricText& wb,
                         const MetricText& wa, const MetricText& rb,
                         const MetricText& ra, const Samples& routed_us,
                         const Samples& direct_us, double trace_overhead_pct) {
  Layers layers;
  layers.ops = static_cast<double>(tally.sessions);
  layers.wall_ms = tally.session_wall_ms;
  double wait_ms = 0;
  for (const auto& [cmd, samples] : tally.command_us) {
    out_->notes.push_back("traced " + cmd + "_us " + samples.Ladder());
    if (cmd == "wait" || cmd == "watch") wait_ms += samples.Sum() / 1e3;
  }
  // The client's view: wire round trips that do work, and long polls
  // waiting for a run's questions or events.
  layers.busy_ms["service.request_pct"] = tally.request_ms - wait_ms;
  layers.busy_ms["service.wait_pct"] = wait_ms;
  // The workers' view, nested in those round trips: pipeline phases,
  // journal fsyncs, pagestore reads and oracle waits.
  for (const char* phase : {"ind_discovery", "lhs_discovery", "rhs_discovery",
                            "restruct", "translate"}) {
    std::string labels = std::string("{phase=\"") + phase + "\"}";
    layers.busy_ms["core." + PhaseShortName(phase) + "_pct"] +=
        SeriesDelta(wb, wa, "dbre_pipeline_phase_us_sum" + labels) / 1e3;
  }
  AddRegistryDeltas(wb, wa, &layers);
  layers.value["store.write_amplification"] =
      Ratio(FamilyDelta(wb, wa, "dbre_journal_bytes_total") +
                FamilyDelta(wb, wa, "dbre_snapshot_bytes_written_total"),
            tally.csv_bytes);
  layers.value["cluster.forward_retries"] =
      FamilyDelta(rb, ra, "dbre_router_forward_retries_total");
  // A routed `status` round trip against the same one sent straight to
  // the owning worker.
  layers.value["cluster.router_hop_pct"] =
      100.0 * Ratio(routed_us.Median() - direct_us.Median(),
                    routed_us.Median());
  out_->notes.push_back("probe: routed status_us " + routed_us.Ladder() +
                        "; direct status_us " + direct_us.Ladder());
  CheckAccounting("serve", tally.request_ms, args_.span_tolerance_pct,
                  &layers, out_);
  layers.value["obs.trace_overhead_pct"] = trace_overhead_pct;
  dbre::bench::ReportLayers(layers, out_);
}

}  // namespace

Outcome RunServe(const Args& args) {
  Outcome out;
  Serve(args, &out).Run();
  return out;
}

}  // namespace dbre::bench
