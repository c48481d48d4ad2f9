#include "sat/dimacs_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace sepe::sat {

namespace {

/// Resolve `command` against PATH (returns "" when not found). A command
/// containing a slash is used as-is when executable.
std::string resolve_command(const std::string& command) {
  if (command.empty()) return "";
  if (command.find('/') != std::string::npos)
    return access(command.c_str(), X_OK) == 0 ? command : "";
  const char* path = std::getenv("PATH");
  if (path == nullptr) return "";
  std::istringstream dirs(path);
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    if (dir.empty()) continue;
    const std::string candidate = dir + "/" + command;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

std::string probe_external_solver() {
  if (const char* env = std::getenv("SEPE_EXTERNAL_SOLVER")) {
    // An explicit request that does not resolve leaves the backend
    // unavailable rather than silently falling back to a probed solver.
    return resolve_command(env);
  }
  for (const char* candidate : {"kissat", "cadical"}) {
    const std::string resolved = resolve_command(candidate);
    if (!resolved.empty()) return resolved;
  }
  return "";
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

struct TempFile {
  std::string path;
  int fd = -1;

  explicit TempFile(const char* tag) {
    const char* tmpdir = std::getenv("TMPDIR");
    path = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
           "/sepe-" + tag + "-XXXXXX";
    fd = mkstemp(path.data());
  }
  ~TempFile() {
    if (fd >= 0) close(fd);
    if (!path.empty()) unlink(path.c_str());
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
};

}  // namespace

DimacsBackend::DimacsBackend() : solver_path_(probe_external_solver()) {}

std::string DimacsBackend::name() const {
  return available() ? "dimacs:" + basename_of(solver_path_) : "dimacs:unavailable";
}

int DimacsBackend::new_var() { return num_vars_++; }

bool DimacsBackend::add_clause(std::vector<Lit> clause_lits) {
  if (root_unsat_) return false;
  if (clause_lits.empty()) {
    root_unsat_ = true;
    return false;
  }
  clauses_.push_back(std::move(clause_lits));
  return true;
}

SolveResult DimacsBackend::solve(const std::vector<Lit>& assumptions) {
  core_.clear();
  if (root_unsat_) return SolveResult::Unsat;
  if (!available()) return SolveResult::Unknown;

  // Transient subprocess failures — a spawn that fails, a child stuck or
  // killed from outside, truncated model output — are retried a bounded
  // number of times with deterministic backoff, then reported as an
  // honest Unknown. Faults cost retries, never wrong verdicts.
  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (stop_requested()) return SolveResult::Unknown;
    if (attempt > 0) {
      ++retries_;
      // 10ms << (attempt-1), napped in slices so a stop request during
      // the backoff still aborts promptly.
      long remaining_ns = 10'000'000L << (attempt - 1);
      while (remaining_ns > 0 && !stop_requested()) {
        const long slice = remaining_ns < 2'000'000L ? remaining_ns : 2'000'000L;
        const struct timespec nap = {0, slice};
        nanosleep(&nap, nullptr);
        remaining_ns -= slice;
      }
    }
    SolveResult result = SolveResult::Unknown;
    if (solve_attempt(assumptions, &result)) return result;
  }
  return SolveResult::Unknown;
}

bool DimacsBackend::model_satisfies(const std::vector<Lit>& assumptions) const {
  const auto lit_true = [this](Lit l) {
    return l.var() < static_cast<int>(model_.size()) &&
           model_[l.var()] == (l.sign() ? Value::False : Value::True);
  };
  for (const Lit a : assumptions)
    if (!lit_true(a)) return false;
  for (const auto& clause : clauses_) {
    bool satisfied = false;
    for (const Lit l : clause) {
      if (lit_true(l)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

bool DimacsBackend::solve_attempt(const std::vector<Lit>& assumptions,
                                  SolveResult* result) {
  // Write the CNF, assumptions as trailing unit clauses. The temp files
  // are RAII-owned: every exit path below — including the injected ones —
  // unlinks them, so a failing attempt leaves no /tmp litter.
  TempFile cnf("cnf");
  TempFile out("out");
  if (cnf.fd < 0 || out.fd < 0) return false;  // transient: ENOSPC/EMFILE
  {
    const int write_fd = dup(cnf.fd);
    std::FILE* f = write_fd >= 0 ? fdopen(write_fd, "w") : nullptr;
    if (f == nullptr) {
      if (write_fd >= 0) close(write_fd);
      return false;
    }
    std::fprintf(f, "p cnf %d %zu\n", num_vars_, clauses_.size() + assumptions.size());
    for (const auto& clause : clauses_) {
      for (const Lit l : clause)
        std::fprintf(f, "%d ", l.sign() ? -(l.var() + 1) : l.var() + 1);
      std::fputs("0\n", f);
    }
    for (const Lit a : assumptions)
      std::fprintf(f, "%d 0\n", a.sign() ? -(a.var() + 1) : a.var() + 1);
    const bool write_failed = std::ferror(f) != 0 || std::fclose(f) != 0;
    if (write_failed || fault::hit("dimacs.write").has_value()) return false;
  }

  if (fault::hit("dimacs.spawn").has_value()) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;  // transient: EAGAIN under fork pressure
  if (pid == 0) {
    // Child: stdout -> the capture file, stderr -> /dev/null.
    dup2(out.fd, STDOUT_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDERR_FILENO);
    execl(solver_path_.c_str(), solver_path_.c_str(), cnf.path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // Parent: poll for completion so the global stop and the time budget
  // stay responsive (the conflict budget cannot be metered from outside
  // the subprocess and is documented as best-effort). Every path out of
  // this loop reaps the child — no zombies.
  const bool simulate_stuck_child = fault::hit("dimacs.hang").has_value();
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0 && errno != EINTR) {
      // waitpid itself failed: kill and reap synchronously so the child
      // cannot linger as a zombie, then retry the attempt.
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
      return false;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (simulate_stuck_child && elapsed >= 0.01) {
      // Injected stuck child: treat it like a hung solver we gave up on —
      // kill, reap, retry.
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
      return false;
    }
    if (stop_requested() || (time_budget_seconds_ > 0 && elapsed >= time_budget_seconds_)) {
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
      *result = SolveResult::Unknown;
      return true;
    }
    const struct timespec nap = {0, 2'000'000};  // 2 ms
    nanosleep(&nap, nullptr);
  }
  // A child that died on a signal (OOM-killed, external SIGKILL) is a
  // transient host condition, not an answer: retry.
  if (!WIFEXITED(status)) return false;

  const int code = WEXITSTATUS(status);
  if (code == 20) {
    if (assumptions.empty()) {
      root_unsat_ = true;
    } else {
      // No core from the subprocess: report every assumption (a sound,
      // maximal over-approximation; callers treat cores as hints).
      for (const Lit a : assumptions) core_.push_back(~a);
    }
    *result = SolveResult::Unsat;
    return true;
  }
  if (code != 10) return false;  // crashed/misbehaving solver: retry

  // SAT: parse "v" lines (space-separated DIMACS literals, 0-terminated).
  if (fault::hit("dimacs.parse").has_value()) {
    // Injected truncation: chop the captured output mid-model so the
    // validation below must catch it.
    struct stat st;
    if (fstat(out.fd, &st) == 0) {
      if (ftruncate(out.fd, st.st_size / 2) != 0) return false;
    }
  }
  model_.assign(num_vars_, Value::False);
  std::ifstream in(out.path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[0] != 'v') continue;
    std::istringstream lits(line.substr(1));
    long lit = 0;
    while (lits >> lit) {
      if (lit == 0) break;
      const int var = static_cast<int>(lit > 0 ? lit : -lit) - 1;
      if (var >= 0 && var < num_vars_) model_[var] = lit > 0 ? Value::True : Value::False;
    }
  }
  // A truncated or torn model stream parses "successfully" into a wrong
  // assignment (missing variables default to false). Validate against the
  // full formula; a non-model means the output was damaged — retry.
  if (!model_satisfies(assumptions)) return false;
  *result = SolveResult::Sat;
  return true;
}

}  // namespace sepe::sat
