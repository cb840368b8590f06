// dbre_client — talk to a running dbre_serve daemon.
//
//   dbre_client [--host H] --port N           # REPL: one JSON request per
//                                             # stdin line, response printed
//   dbre_client [--host H] --port N demo      # drive the paper's example
//
// Connecting retries ECONNREFUSED with capped backoff for --timeout-ms
// milliseconds (default 5000), so scripting `dbre_serve ... & dbre_client`
// needs no sleep between the two — the client waits out the daemon's bind.
//                                             # session end to end, asking
//                                             # the expert questions on the
//                                             # terminal
//
// The demo mode is the tutorial session from TUTORIAL.md: it creates a
// session, uploads the paper's dictionary and extension, registers the
// five equi-joins of §5 and runs the pipeline with the asynchronous
// oracle. Every time the pipeline suspends on an expert question the
// client prints the question (with its join valuations or g3 error) and
// forwards your terminal answer over the wire.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/csv.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/transport.h"
#include "sql/ddl_writer.h"
#include "workload/paper_example.h"

namespace {

using dbre::service::Json;

struct ClientArgs {
  std::string host = "127.0.0.1";
  int port = 7411;
  long timeout_ms = 5000;
  std::string mode = "repl";
  bool show_help = false;
};

// A whole decimal string in [min, max], nothing trailing.
bool ParseNumber(std::string_view text, long min, long max, long* out) {
  long value = 0;
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() ||
      value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, ClientArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--host" && i + 1 < argc) {
      args->host = argv[++i];
    } else if (flag == "--port" && i + 1 < argc) {
      long port = 0;
      if (!ParseNumber(argv[++i], 1, 65535, &port)) {
        std::fprintf(stderr, "bad --port '%s' (want 1..65535)\n", argv[i]);
        return false;
      }
      args->port = static_cast<int>(port);
    } else if (flag == "--timeout-ms" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], 0, std::numeric_limits<long>::max(),
                       &args->timeout_ms)) {
        std::fprintf(stderr, "bad --timeout-ms '%s' (want a count >= 0)\n",
                     argv[i]);
        return false;
      }
    } else if (flag == "repl" || flag == "demo") {
      args->mode = flag;
    } else if (flag == "--help" || flag == "-h") {
      args->show_help = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Sends one request and returns the parsed "result" object; dies on any
// transport or protocol error (this is an example, not a library).
class Connection {
 public:
  explicit Connection(std::unique_ptr<dbre::service::SocketChannel> channel)
      : channel_(std::move(channel)) {}

  Json Call(Json request) {
    request.Set("id", Json::Int(next_id_++));
    if (auto status = channel_->WriteLine(request.Dump()); !status.ok()) {
      Die(status.ToString());
    }
    auto line = channel_->ReadLine();
    if (!line.ok()) Die("server closed the connection");
    auto response = Json::Parse(*line);
    if (!response.ok()) Die(response.status().ToString());
    const Json* ok = response->Find("ok");
    if (ok == nullptr || !ok->IsBool() || !ok->AsBool()) {
      const Json* error = response->Find("error");
      Die(error != nullptr ? error->Dump() : *line);
    }
    const Json* result = response->Find("result");
    return result != nullptr ? *result : Json::MakeObject();
  }

 private:
  [[noreturn]] void Die(const std::string& message) {
    std::fprintf(stderr, "dbre_client: %s\n", message.c_str());
    std::exit(1);
  }

  std::unique_ptr<dbre::service::SocketChannel> channel_;
  int64_t next_id_ = 1;
};

Json Command(const char* cmd) {
  Json request = Json::MakeObject();
  request.Set("cmd", Json::Str(cmd));
  return request;
}

Json SessionCommand(const char* cmd, const std::string& session) {
  Json request = Command(cmd);
  request.Set("session", Json::Str(session));
  return request;
}

void PrintQuestion(const Json& question) {
  std::printf("\n[%s] %s\n", question.GetString("kind").c_str(),
              question.GetString("subject").c_str());
  const Json* counts = question.Find("counts");
  if (counts != nullptr) {
    std::printf("  valuations: |left|=%lld |right|=%lld |join|=%lld\n",
                static_cast<long long>(counts->GetInt("left")),
                static_cast<long long>(counts->GetInt("right")),
                static_cast<long long>(counts->GetInt("join")));
  }
  const Json* g3 = question.Find("g3_error");
  if (g3 != nullptr) {
    std::printf("  g3 error: %.4f\n", g3->AsNumber());
  }
}

// Reads the expert's terminal answer for `question` into answer fields on
// `request`. Returns false to skip (leave the question pending).
bool ReadAnswer(const Json& question, Json* request) {
  std::string kind = question.GetString("kind");
  std::string line;
  if (kind == "nei") {
    std::printf("  [c]onceptualize / force [l]eft⊆right / force "
                "[r]ight⊆left / [i]gnore > ");
    if (!std::getline(std::cin, line) || line.empty()) return false;
    switch (line[0]) {
      case 'c': {
        request->Set("action", Json::Str("conceptualize"));
        std::printf("  relation name (empty = derive): ");
        std::string name;
        std::getline(std::cin, name);
        if (!name.empty()) request->Set("name", Json::Str(name));
        return true;
      }
      case 'l': request->Set("action", Json::Str("force_left")); return true;
      case 'r': request->Set("action", Json::Str("force_right")); return true;
      case 'i': request->Set("action", Json::Str("ignore")); return true;
      default: return false;
    }
  }
  if (kind == "enforce_fd" || kind == "validate_fd" ||
      kind == "hidden_object") {
    std::printf("  accept? [y/n] > ");
    if (!std::getline(std::cin, line) || line.empty()) return false;
    request->Set("value", Json::Bool(line[0] == 'y' || line[0] == 'Y'));
    return true;
  }
  std::printf("  name (empty = derive) > ");
  if (!std::getline(std::cin, line)) return false;
  request->Set("name", Json::Str(line));
  return true;
}

int RunDemo(Connection* connection) {
  auto db = dbre::workload::BuildPaperDatabase();
  if (!db.ok()) {
    std::fprintf(stderr, "paper database: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  Json created = connection->Call(Command("create"));
  std::string session = created.GetString("session");
  std::printf("session %s created\n", session.c_str());

  Json load_ddl = SessionCommand("load_ddl", session);
  load_ddl.Set("sql", Json::Str(dbre::sql::WriteDdl(*db)));
  Json ddl_result = connection->Call(std::move(load_ddl));
  std::printf("dictionary: %lld relations\n",
              static_cast<long long>(ddl_result.GetInt("relations")));

  for (const std::string& relation : db->RelationNames()) {
    auto table = db->GetMutableTable(relation);
    if (!table.ok()) continue;
    Json load_csv = SessionCommand("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(dbre::WriteCsvText(**table)));
    Json csv_result = connection->Call(std::move(load_csv));
    std::printf("  %s: %lld tuples\n", relation.c_str(),
                static_cast<long long>(csv_result.GetInt("rows")));
  }

  Json add_joins = SessionCommand("add_joins", session);
  Json joins = Json::MakeArray();
  for (const dbre::EquiJoin& join : dbre::workload::PaperJoinSet()) {
    joins.Append(dbre::service::JoinToJson(join));
  }
  add_joins.Set("joins", std::move(joins));
  Json joins_result = connection->Call(std::move(add_joins));
  std::printf("workload Q: %lld equi-joins\n",
              static_cast<long long>(joins_result.GetInt("added")));

  connection->Call(SessionCommand("run", session));
  std::printf("pipeline running; answer the expert questions below.\n");

  while (true) {
    Json wait = SessionCommand("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(5000));
    Json waited = connection->Call(std::move(wait));
    std::string state = waited.GetString("state");
    if (state == "done" || state == "failed" || state == "closed") break;
    if (waited.GetInt("pending") == 0) continue;

    Json listed = connection->Call(SessionCommand("questions", session));
    const Json* questions = listed.Find("questions");
    if (questions == nullptr || !questions->IsArray()) continue;
    for (const Json& question : questions->array()) {
      PrintQuestion(question);
      Json answer = SessionCommand("answer", session);
      answer.Set("question", Json::Int(question.GetInt("qid")));
      if (!ReadAnswer(question, &answer)) continue;
      connection->Call(std::move(answer));
    }
  }

  Json status = connection->Call(SessionCommand("status", session));
  if (status.GetString("state") == "failed") {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 status.GetString("error").c_str());
    return 1;
  }
  Json summary = connection->Call(SessionCommand("summary", session));
  std::printf("\n%s", summary.GetString("summary").c_str());
  connection->Call(SessionCommand("close", session));
  return 0;
}

int RunRepl(Connection* connection) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    auto request = Json::Parse(line);
    if (!request.ok() || !request->IsObject()) {
      std::fprintf(stderr, "not a JSON object: %s\n", line.c_str());
      continue;
    }
    Json result = connection->Call(std::move(*request));
    std::printf("%s\n", result.Dump().c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClientArgs args;
  if (!ParseArgs(argc, argv, &args) || args.show_help) {
    std::printf(
        "usage: dbre_client [--host H] [--port N] [--timeout-ms MS] "
        "[repl|demo]\n");
    return args.show_help ? 0 : 2;
  }
  auto channel = dbre::service::TcpConnectWithRetry(
      args.host, static_cast<uint16_t>(args.port), args.timeout_ms);
  if (!channel.ok()) {
    std::fprintf(stderr, "dbre_client: %s\n",
                 channel.status().ToString().c_str());
    return 1;
  }
  Connection connection(std::move(*channel));
  return args.mode == "demo" ? RunDemo(&connection) : RunRepl(&connection);
}
