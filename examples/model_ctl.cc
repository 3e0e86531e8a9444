// Model lifecycle admin CLI (DESIGN.md §4.8): speaks the MODEL_LOAD /
// MODEL_ACTIVATE / MODEL_STATUS frames to a running serve_server — or to a
// serve_router, which rolls the verb across every backend one at a time and
// stops at the first failure (README "Rolling a new checkpoint").
//
// Usage:
//   model_ctl [--host=H] --port=N load <name> <checkpoint-path>
//   model_ctl [--host=H] --port=N activate <name> [--rebase]
//   model_ctl [--host=H] --port=N candidate <name> <fraction>
//   model_ctl [--host=H] --port=N shadow <name>
//   model_ctl [--host=H] --port=N clear-candidate|clear-shadow
//   model_ctl [--host=H] --port=N status
//
// `activate` drains by default (old sessions finish on their pinned
// version); --rebase refolds live sessions onto the new primary at their
// next touch. `status` prints the registry's JSON (per backend when
// pointed at a router). The whole command line is checked before anything
// connects: a malformed port or fraction, an unknown flag, or a wrong
// command shape prints usage to stderr and exits 2. Exits 0 on success, 1
// with the server's typed error on stderr otherwise.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/client.h"

namespace net = tpgnn::net;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: model_ctl [--host=H] --port=N <command>\n"
      "  load <name> <checkpoint-path>   register an inactive version\n"
      "  activate <name> [--rebase]      swap primary (drain by default)\n"
      "  candidate <name> <fraction>     A/B: fraction of sessions to name\n"
      "  shadow <name>                   mirror scores to name (metrics only)\n"
      "  clear-candidate | clear-shadow  stop A/B / shadow scoring\n"
      "  status                          print registry status JSON\n");
  return 2;
}

// A TCP port in [1, 65535], spelled as a whole decimal number.
bool ParsePort(const std::string& text, int* port) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || value < 1 ||
      value > 65535) {
    return false;
  }
  *port = static_cast<int>(value);
  return true;
}

// A fraction in [0, 1], spelled as a whole decimal number.
bool ParseFraction(const std::string& text, double* fraction) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno != 0 || !(value >= 0.0) ||
      value > 1.0) {
    return false;
  }
  *fraction = value;
  return true;
}

// One admin request, fully checked before any connection is made.
struct Request {
  std::string command;
  std::string name;
  std::string path;
  net::ModelAdminMode mode = net::ModelAdminMode::kActivateDrain;
  double fraction = 0.0;
};

// Fills `*request` from the positional arguments; false when their shape
// matches no command.
bool ParseRequest(const std::vector<std::string>& args, Request* request) {
  const size_t n = args.size();
  if (n == 0) return false;
  request->command = args[0];
  if (n >= 2) request->name = args[1];
  const std::string& command = args[0];
  if (command == "load" && n == 3) {
    request->path = args[2];
    return true;
  }
  if (command == "activate" && (n == 2 || (n == 3 && args[2] == "--rebase"))) {
    request->mode = n == 3 ? net::ModelAdminMode::kActivateRebase
                           : net::ModelAdminMode::kActivateDrain;
    return true;
  }
  if (command == "candidate" && n == 3) {
    request->mode = net::ModelAdminMode::kSetCandidate;
    return ParseFraction(args[2], &request->fraction);
  }
  if (command == "shadow" && n == 2) {
    request->mode = net::ModelAdminMode::kSetShadow;
    return true;
  }
  if (command == "clear-candidate" && n == 1) {
    request->mode = net::ModelAdminMode::kClearCandidate;
    return true;
  }
  if (command == "clear-shadow" && n == 1) {
    request->mode = net::ModelAdminMode::kClearShadow;
    return true;
  }
  return command == "status" && n == 1;
}

}  // namespace

int main(int argc, char** argv) {
  net::ClientOptions options;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      options.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!ParsePort(arg.substr(7), &options.port)) return Usage();
    } else if (arg.rfind("--", 0) == 0 && arg != "--rebase") {
      return Usage();
    } else {
      args.push_back(arg);
    }
  }
  Request request;
  if (options.port == 0 || !ParseRequest(args, &request)) return Usage();

  net::Client client(options);
  tpgnn::Status status = client.Connect();
  if (!status.ok()) {
    std::fprintf(stderr, "connect %s:%d: %s\n", options.host.c_str(),
                 options.port, status.ToString().c_str());
    return 1;
  }

  std::string json;
  if (request.command == "load") {
    status = client.ModelLoad(request.name, request.path);
  } else if (request.command == "status") {
    status = client.ModelStatus(&json);
  } else {
    status = client.ModelActivate(request.name, request.mode, request.fraction);
  }

  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", request.command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (request.command == "status") {
    std::printf("%s\n", json.c_str());
  } else {
    std::printf("ok\n");
  }
  return 0;
}
