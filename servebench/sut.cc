#include "sut.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleeps a little longer each round: quick while a child is starting, cheap
// while it takes its time.
void Backoff(int round) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(round < 50 ? 200 : 2000));
}

}  // namespace

ChildProcess::~ChildProcess() {
  if (running()) {
    Kill();
  }
}

tpgnn::Status ChildProcess::Spawn(const std::string& binary,
                                  const std::vector<std::string>& args,
                                  const std::string& log_path) {
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return tpgnn::Status::Internal("cannot open " + log_path + ": " +
                                   std::strerror(errno));
  }
  // argv is built before fork: only async-signal-safe calls run in the
  // child between fork and exec.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return tpgnn::Status::Internal(std::string("fork: ") +
                                   std::strerror(errno));
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);
    }
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    // No benchmark socket may outlive the benchmark's own close of it.
    for (int fd = STDERR_FILENO + 1; fd < 1024; ++fd) {
      close(fd);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  pid_ = pid;
  reaped_ = false;
  return tpgnn::Status::Ok();
}

bool ChildProcess::PollExit() {
  if (pid_ <= 0 || reaped_) {
    return true;
  }
  int status = 0;
  const pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) {
    reaped_ = true;
  }
  return reaped_;
}

bool ChildProcess::WaitExit(double timeout_s) {
  const double deadline = Now() + timeout_s;
  for (int round = 0; !PollExit(); ++round) {
    if (Now() >= deadline) {
      return false;
    }
    Backoff(round);
  }
  return true;
}

void ChildProcess::Kill() {
  if (!running()) {
    return;
  }
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
}

tpgnn::Status WaitForPortFile(const std::string& path, ChildProcess& child,
                              double timeout_s, int* port) {
  const double deadline = Now() + timeout_s;
  for (int round = 0;; ++round) {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The writer ends the line after the port; a partial read lacks it.
    if (!text.empty() && text.back() == '\n') {
      *port = std::stoi(text);
      std::remove(path.c_str());
      return tpgnn::Status::Ok();
    }
    if (child.PollExit()) {
      return tpgnn::Status::Internal("child exited before writing " + path);
    }
    if (Now() >= deadline) {
      return tpgnn::Status::DeadlineExceeded("no port in " + path);
    }
    Backoff(round);
  }
}

bool ReadProcSample(pid_t pid, ProcSample* sample) {
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) {
    return false;
  }
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close_paren = line.rfind(')');
  if (close_paren == std::string::npos) {
    return false;
  }
  std::istringstream fields(line.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) {
      ticks += std::stod(field);
    }
  }
  sample->cpu_s = ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  if (pid == 0) {
    // Microsecond resolution where the kernel offers it.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    sample->cpu_s = static_cast<double>(usage.ru_utime.tv_sec +
                                        usage.ru_stime.tv_sec) +
                    1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                               usage.ru_stime.tv_usec);
  }

  std::ifstream status(dir + "/status");
  while (std::getline(status, line)) {
    double* target = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) {
      target = &sample->rss_mb;
    } else if (line.rfind("VmHWM:", 0) == 0) {
      target = &sample->hwm_mb;
    }
    if (target != nullptr) {
      *target = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return true;
}

}  // namespace servebench
