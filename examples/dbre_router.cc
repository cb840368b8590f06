// dbre_router — shard dbred sessions across a fleet of dbre_serve workers.
//
//   dbre_router [--port N] --worker [ID=]HOST:PORT [--worker ...]
//               [--vnodes N] [--health-interval-ms MS] [--lease-ms MS]
//
//   --port N        listen on 127.0.0.1:N, 0..65535 (0 = ephemeral; the
//                   chosen port prints as the first stdout line, like
//                   dbre_serve)
//   --worker SPEC   one backend dbre_serve, repeatable. SPEC is HOST:PORT
//                   or ID=HOST:PORT; without an explicit ID the worker is
//                   named w1, w2, ... in argument order. The ID is the
//                   consistent-hash ring key — keep ids stable across
//                   router restarts or sessions will hash elsewhere.
//   --vnodes N      virtual nodes per worker on the ring (default 64)
//   --health-interval-ms MS
//                   period of the health prober that detects dead workers
//                   and revives returning ones (default 500; 0 disables —
//                   failures are then detected only when a forward hits
//                   the dead socket)
//   --lease-ms MS   worker lease duration (default 3000). The prober
//                   renews each worker's lease with the `lease` control
//                   command; a worker whose lease expires is declared
//                   dead and its sessions fail over *proactively* to
//                   their new ring owners, with their ownership epochs
//                   bumped so the old worker — even one merely paused —
//                   is fenced out of the journals. 0 disables leases
//                   (failover falls back to lazy, on first client touch)
//
// Clients speak the ordinary dbred protocol to the router; it forwards
// session-scoped commands to the owning worker verbatim and adds `route`,
// `cluster`, `migrate` and `drain` (docs/CLUSTER.md). For migration and
// failover to work the workers must share a --data-dir and carry distinct
// --worker-id values.
//
// Runs until a client sends {"cmd":"shutdown"} — to the router; workers
// are independent processes and keep running.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/router.h"

namespace {

struct RouterArgs {
  uint16_t port = 7410;
  std::vector<dbre::cluster::RouterWorkerConfig> workers;
  long vnodes = 64;
  long health_interval_ms = 500;
  long lease_ms = 3000;
  bool show_help = false;
};

// A decimal TCP port, 0..65535, with nothing trailing.
bool ParsePort(std::string_view text, uint16_t* port) {
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), *port);
  return error == std::errc() && end == text.data() + text.size();
}

// HOST:PORT or ID=HOST:PORT.
bool ParseWorkerSpec(const std::string& spec, size_t ordinal,
                     dbre::cluster::RouterWorkerConfig* config) {
  std::string rest = spec;
  size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    config->id = rest.substr(0, eq);
    rest = rest.substr(eq + 1);
  } else {
    config->id = "w" + std::to_string(ordinal);
  }
  size_t colon = rest.rfind(':');
  if (config->id.empty() || colon == std::string::npos || colon == 0 ||
      colon + 1 >= rest.size()) {
    return false;
  }
  config->host = rest.substr(0, colon);
  return ParsePort(rest.c_str() + colon + 1, &config->port) &&
         config->port != 0;
}

bool ParseArgs(int argc, char** argv, RouterArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--port") {
      const char* value = next("--port");
      if (value == nullptr) return false;
      if (!ParsePort(value, &args->port)) {
        std::fprintf(stderr, "bad --port '%s' (want 0..65535)\n", value);
        return false;
      }
    } else if (flag == "--worker") {
      const char* value = next("--worker");
      if (value == nullptr) return false;
      dbre::cluster::RouterWorkerConfig config;
      if (!ParseWorkerSpec(value, args->workers.size() + 1, &config)) {
        std::fprintf(stderr,
                     "bad --worker spec '%s' (want [ID=]HOST:PORT)\n",
                     value);
        return false;
      }
      args->workers.push_back(std::move(config));
    } else if (flag == "--vnodes") {
      const char* value = next("--vnodes");
      if (value == nullptr) return false;
      args->vnodes = std::strtol(value, nullptr, 10);
    } else if (flag == "--health-interval-ms") {
      const char* value = next("--health-interval-ms");
      if (value == nullptr) return false;
      args->health_interval_ms = std::strtol(value, nullptr, 10);
    } else if (flag == "--lease-ms") {
      const char* value = next("--lease-ms");
      if (value == nullptr) return false;
      args->lease_ms = std::strtol(value, nullptr, 10);
    } else if (flag == "--help" || flag == "-h") {
      args->show_help = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: dbre_router [--port N] --worker [ID=]HOST:PORT "
      "[--worker ...]\n"
      "                   [--vnodes N] [--health-interval-ms MS] "
      "[--lease-ms MS]\n");
}

}  // namespace

int main(int argc, char** argv) {
  RouterArgs args;
  if (!ParseArgs(argc, argv, &args) || args.show_help) {
    PrintUsage();
    return args.show_help ? 0 : 2;
  }
  if (args.workers.empty()) {
    std::fprintf(stderr, "dbre_router: at least one --worker required\n");
    PrintUsage();
    return 2;
  }
  dbre::cluster::RouterOptions options;
  if (args.vnodes > 0) options.vnodes_per_node = static_cast<size_t>(args.vnodes);
  options.health_interval_ms = args.health_interval_ms;
  options.lease_ms = args.lease_ms;
  dbre::cluster::Router router(args.workers, options);
  if (auto status = router.Start(args.port); !status.ok()) {
    std::fprintf(stderr, "dbre_router: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%u\n", router.port());
  std::fflush(stdout);
  std::fprintf(stderr, "dbre_router listening on 127.0.0.1:%u (%zu workers)\n",
               router.port(), args.workers.size());
  router.WaitUntilShutdown();
  router.Stop();
  return 0;
}
