#ifndef TPGNN_UTIL_FLAGS_H_
#define TPGNN_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

// Strict `--name=value` command-line flags for the example and bench
// binaries. A binary declares each flag with a default and a help line;
// Parse rejects anything it was not told about, so a typo fails loudly
// instead of silently running with defaults.
//
//   int64_t port = 7471;
//   tpgnn::Flags flags("serve_server", "Serves the wire protocol.");
//   flags.Add("port", &port, "TCP port, 0 = ephemeral");
//   int exit_code = 0;
//   if (!flags.Parse(argc, argv, &exit_code)) return exit_code;

namespace tpgnn {

class Flags {
 public:
  Flags(std::string program, std::string summary);

  // Declares a flag bound to `*value`, whose current value is the default.
  void Add(const std::string& name, std::string* value, std::string help);
  void Add(const std::string& name, int64_t* value, std::string help);

  // Parses argv[1..] into the bound values. Returns true when the program
  // should run. Otherwise the usage text has been printed and *exit_code
  // is 0 after --help (to stdout) or 2 after an unknown flag, an argument
  // that is not --name=value, or a non-integer value for an integer flag
  // (to stderr, after the error).
  bool Parse(int argc, const char* const* argv, int* exit_code) const;

  std::string Usage() const;

 private:
  struct Flag {
    std::string name;
    std::variant<std::string*, int64_t*> value;
    std::string help;
    std::string default_text;
  };
  const Flag* Find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
};

}  // namespace tpgnn

#endif  // TPGNN_UTIL_FLAGS_H_
