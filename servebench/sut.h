#ifndef SERVEBENCH_SUT_H_
#define SERVEBENCH_SUT_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/status.h"

// Lifecycle of the system under test when it runs as child processes:
// spawn, ephemeral-port discovery through port files, /proc sampling, and
// teardown (a SHUTDOWN cascade first, a timed kill as the fallback). Every
// spawned child is reaped before the run ends.

namespace servebench {

class ChildProcess {
 public:
  ChildProcess() = default;
  // Kills and reaps a child that is still running.
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // Starts `binary` with `args`, stdout and stderr appended to `log_path`.
  // The child dies with the benchmark (PR_SET_PDEATHSIG).
  tpgnn::Status Spawn(const std::string& binary,
                      const std::vector<std::string>& args,
                      const std::string& log_path);

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0 && !reaped_; }
  bool reaped() const { return reaped_; }

  // Reaps the child if it has exited; true once it has.
  bool PollExit();
  // Waits up to `timeout_s` for the child to exit on its own.
  bool WaitExit(double timeout_s);
  // SIGKILL and reap.
  void Kill();

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

// Waits for `child` to write its bound port to `path` as one complete
// line. Fails when the child exits first or `timeout_s` passes.
tpgnn::Status WaitForPortFile(const std::string& path, ChildProcess& child,
                              double timeout_s, int* port);

// CPU time (user + system) and memory of one process, from /proc.
struct ProcSample {
  double cpu_s = 0.0;
  double rss_mb = 0.0;  // VmRSS.
  double hwm_mb = 0.0;  // VmHWM, the peak resident set.
};
// `pid` 0 reads this process.
bool ReadProcSample(pid_t pid, ProcSample* sample);

}  // namespace servebench

#endif  // SERVEBENCH_SUT_H_
