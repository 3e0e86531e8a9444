#include "util/flags.h"

#include <charconv>
#include <cstdio>
#include <utility>

namespace tpgnn {

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void Flags::Add(const std::string& name, std::string* value,
                std::string help) {
  flags_.push_back({name, value, std::move(help), "\"" + *value + "\""});
}

void Flags::Add(const std::string& name, int64_t* value, std::string help) {
  flags_.push_back({name, value, std::move(help), std::to_string(*value)});
}

const Flags::Flag* Flags::Find(const std::string& name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool Flags::Parse(int argc, const char* const* argv, int* exit_code) const {
  auto fail = [&](const std::string& error) {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), error.c_str(),
                 Usage().c_str());
    *exit_code = 2;
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(Usage().c_str(), stdout);
      *exit_code = 0;
      return false;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return fail("expected --name=value, got '" + arg + "'");
    }
    const Flag* flag = Find(arg.substr(2, eq - 2));
    if (flag == nullptr) {
      return fail("unknown flag '" + arg.substr(0, eq) + "'");
    }
    const std::string value = arg.substr(eq + 1);
    if (auto* text = std::get_if<std::string*>(&flag->value)) {
      **text = value;
      continue;
    }
    int64_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || ec != std::errc() || ptr != end) {
      return fail("--" + flag->name + " takes an integer, got '" + value +
                  "'");
    }
    *std::get<int64_t*>(flag->value) = parsed;
  }
  return true;
}

std::string Flags::Usage() const {
  std::string out = "usage: " + program_ + " [--name=value ...]\n" +
                    summary_ + "\n\nflags:\n";
  for (const Flag& flag : flags_) {
    out += "  --" + flag.name + "  " + flag.help +
           " (default: " + flag.default_text + ")\n";
  }
  out += "  --help  print this text and exit\n";
  return out;
}

}  // namespace tpgnn
