// perfbench — wall-clock benchmark of whole SEPE-SQED campaigns.
//
// One invocation runs one workload the way a user runs it (the default
// `sepe-run` campaign flags: portfolio 1, sharing off, witness check on,
// race on), checks every output against an independent expectation, and
// prints one JSON object as its last stdout line:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"wall_s": {"value": ..., "unit": "s"}, ...}}
//
// Workloads (closed batch, one campaign per repetition):
//   table1-serial    Table-1 grid, 8 classes x {EDDI-V, EDSEP-V}, bound 6,
//                    max-k 2, xlen 4, 1 worker thread;
//   table1-parallel  the same grid on 4 worker threads;
//   table1-warm      the same grid on 4 threads against a verdict cache
//                    filled during set-up (every row comes from the
//                    journal; FALSIFIED rows are re-derived and replayed);
//   synth-hpf        HPF-CEGIS over the 26 Figure-3 cases (29-component
//                    library, n=3, k=3, xlen 8, one shared PriorityDict,
//                    no wall cap).
//
// Untraced runs (--trace 0) time the user path with the benchmark's own
// clock and report the end-to-end metrics, with times scaled to a
// reference host speed measured between repetitions (HostSpeed). Traced runs (--trace 1) drive
// the same work through the modules' public functions with a span around
// every call and report the per-layer metrics. NOTES.md lists every
// metric, its unit, and which end-to-end metric it is expected to move.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE --work-dir DIR [--trace-out FILE]
//             [--rows N] [--cases N]
// --expected is the stable-form Table-1 report run.py derives from the
// verdict fields of bench/baseline.json; --rows/--cases shrink the grid
// for the self-test.
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bmc/bmc.hpp"
#include "bmc/kind.hpp"
#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/report_io.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "synth/cegis.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace sepe;

namespace {

// ---------------------------------------------------------------------
// Arguments, metrics, outcome

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;
  std::string work_dir;
  std::string trace_out;
  unsigned rows = 8;
  unsigned cases = 26;
};

struct Metric {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs), in output order.
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}};

/// Per-layer metrics (traced runs), in output order. A traced run reports
/// every one; those its workload never exercises read 0 and are listed
/// under "not_measured".
constexpr Metric kPerLayer[] = {
    {"engine.pinned_table_s", "s"},  {"engine.expand_s", "s"},
    {"engine.job_s.p50", "s"},       {"engine.job_s.max", "s"},
    {"engine.pool_busy_ratio", "ratio"},
    {"first_bug_s", "s"},            {"case_p50_s", "s"},
    {"verdict_cache.lookups", "count"}, {"verdict_cache.hits", "count"},
    {"verdict_cache.lookup_s", "s"}, {"verdict_cache.append_s", "s"},
    {"qed.build_s", "s"},            {"bmc.check_s.eddi", "s"},
    {"bmc.check_s.edsep", "s"},      {"bmc.bound6_s", "s"},
    {"kind.prove_s", "s"},           {"sat.conflicts", "count"},
    {"sat.propagations", "count"},   {"sat.decisions", "count"},
    {"sat.props_per_s", "1/s"},      {"sat.eliminated_vars", "count"},
    {"sat.subsumed_clauses", "count"}, {"sat.vivified_clauses", "count"},
    {"smt.cnf_vars", "count"},       {"smt.cnf_clauses", "count"},
    {"witness.extract_s", "s"},      {"witness.replay_s", "s"},
    {"witness.shrink_s", "s"},       {"witness.trace_len", "steps"},
    {"witness.trace_len_shrunk", "steps"},
    {"synth.case_s.max", "s"},       {"synth.multisets_tried", "count"},
    {"synth.multisets_succeeded", "count"}, {"synth.success_ratio", "ratio"},
    {"synth.s_per_multiset", "s"},   {"synth.verify_s", "s"},
    {"trace.unattributed_s", "s"}};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  void set(const std::string& name, double value) { values[name] = value; }
};

/// The fastest repetition, after host-speed scaling. Neighbours on a
/// shared host add 10-40% to single repetitions in bursts of seconds, too
/// short for the samples on either side to see; the fastest repetition
/// is the one they touched least (NOTES.md, "Noise and bounds").
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// User + system CPU seconds of the whole process (every thread).
double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Resets the process's resident high-water mark (VmHWM) to its current
/// resident memory. Without clear_refs support the mark stays the whole
/// process's, and peak_rss_mb may be the set-up's.
void reset_hwm() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush))
    std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb covers set-up\n");
}

/// Starts a new peak-memory window just before a timed part, so its peak
/// is not the set-up's: returns freed heap to the kernel, then reset_hwm.
void reset_peak_rss() {
  malloc_trim(0);
  reset_hwm();
}

/// Peak resident memory (VmHWM) since the last reset, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// How fast the host runs right now, from a fixed piece of work that no
/// change to the program can move: map and touch 32 MiB (the page-fault
/// and page-walk path) and sort 2^18 pseudo-random keys (branchy,
/// cache-missing compares). On shared hosts the same campaign drifts by
/// 30% and more within an hour; of the kernels tried, these two tracked
/// that drift best (NOTES.md, "Host-speed scaling"). Samples are taken
/// between repetitions, never during one. Times are reported scaled by
/// kReferenceSeconds / (nearby samples): "seconds on a host where the
/// reference takes kReferenceSeconds". The memory is unmapped after each
/// run, so it never counts in the program's resident memory.
class HostSpeed {
 public:
  static constexpr double kReferenceSeconds = 0.04;

  /// `threads` copies of the reference run at once: as many as the timed
  /// part keeps busy, so a 4-worker campaign is scaled by how fast the
  /// host runs four threads, not one.
  explicit HostSpeed(unsigned threads) : threads_(threads) {}

  /// Times the reference three times and keeps the median: one run alone
  /// is sometimes caught by a burst of a neighbour's load.
  void sample() {
    double runs[3];
    for (double& run : runs) {
      const Stopwatch clock;
      std::vector<std::thread> others;
      for (unsigned t = 1; t < threads_; ++t) others.emplace_back([] { reference(); });
      reference();
      for (std::thread& t : others) t.join();
      run = clock.seconds();
    }
    std::sort(std::begin(runs), std::end(runs));
    samples_.push_back(runs[1]);
  }

  /// The number of samples so far: marks where a repetition starts.
  std::size_t mark() const { return samples_.size(); }

  /// Multiplier taking a repetition that started at `mark` to the
  /// reference speed, from the median of the two samples before it and
  /// the two after it.
  double scale_around(std::size_t mark) const {
    const std::size_t lo = mark >= 2 ? mark - 2 : 0;
    const std::size_t hi = std::min(samples_.size(), mark + 2);
    return kReferenceSeconds /
           median(std::vector<double>(samples_.begin() + lo, samples_.begin() + hi));
  }

  /// The same from the median of every sample so far; for set-up, taken
  /// right after it.
  double scale_so_far() const { return kReferenceSeconds / median(samples_); }

 private:
  static void reference() {
    constexpr std::size_t kWords = std::size_t{1} << 23;  // 32 MiB
    constexpr std::size_t kKeys = std::size_t{1} << 18;
    const std::size_t bytes = kWords * sizeof(std::uint32_t);
    void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (map == MAP_FAILED) {
      std::perror("perfbench: mmap");
      std::exit(1);
    }
    auto* words = static_cast<std::uint32_t*>(map);
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = static_cast<std::uint32_t>(i) * 2654435761u;
    std::sort(words, words + kKeys);
    sink_.fetch_xor(words[kKeys / 2], std::memory_order_relaxed);
    munmap(map, bytes);
  }

  unsigned threads_;
  std::vector<double> samples_;
  static inline std::atomic<std::uint32_t> sink_{0};
};

/// The job order of each Table-1 repetition, drawn from the run's seed:
/// seed 1 keeps the canonical order every time; any other seed draws a
/// fresh Fisher-Yates shuffle per repetition from one RNG stream, so a
/// run spans several orders.
class Orders {
 public:
  explicit Orders(std::uint64_t seed) : canonical_(seed == 1), rng_(seed) {}

  std::vector<std::size_t> next(std::size_t n) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (canonical_) return order;
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng_.below(i)]);
    return order;
  }

 private:
  bool canonical_;
  Rng rng_;
};

/// Run fn(i) for every i in [0, n) on `threads` workers that pull indices
/// from one cursor in order — the engine pool's scheduling.
void for_each_index(std::size_t n, unsigned threads,
                    const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------------
// Spans (traced runs only)

/// In-memory span list: name, job, bound, start/end since the trace
/// began, parent span and thread. Written out as Chrome trace events.
class Trace {
 public:
  struct Span {
    std::string name;
    std::string job;
    int bound = -1;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    unsigned thread = 0;
    double seconds() const { return end - start; }
  };

  /// RAII span; nests under the innermost open span of its thread.
  class Scope {
   public:
    Scope(Trace& trace, std::string name, std::string job = {}, int bound = -1)
        : trace_(trace), parent_(current_) {
      Span s;
      s.name = std::move(name);
      s.job = std::move(job);
      s.bound = bound;
      s.parent = parent_;
      s.thread = thread_index();
      s.start = trace_.clock_.seconds();
      std::lock_guard<std::mutex> lock(trace_.mu_);
      index_ = static_cast<int>(trace_.spans_.size());
      trace_.spans_.push_back(std::move(s));
      current_ = index_;
    }
    ~Scope() {
      const double end = trace_.clock_.seconds();
      std::lock_guard<std::mutex> lock(trace_.mu_);
      trace_.spans_[index_].end = end;
      current_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int parent_;
    int index_ = -1;
  };

  /// Durations of every finished span called `name` (optionally of one job).
  std::vector<double> durations(const std::string& name,
                                const std::string* job = nullptr) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name && (!job || s.job == *job)) out.push_back(s.seconds());
    return out;
  }
  double total(const std::string& name, const std::string* job = nullptr) const {
    const auto d = durations(name, job);
    return std::accumulate(d.begin(), d.end(), 0.0);
  }
  double total_at_bound(int bound) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.bound == bound) sum += s.seconds();
    return sum;
  }

  bool write_chrome_json(const std::string& path) const {
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char times[96];
      std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f", s.start * 1e6,
                    s.seconds() * 1e6);
      os << (i ? ",\n" : "\n") << "{\"name\": ";
      json_escape(os, s.name);
      os << ", \"ph\": \"X\", " << times << ", \"pid\": 1, \"tid\": " << s.thread
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << ", \"job\": ";
      json_escape(os, s.job);
      os << ", \"bound\": " << s.bound << "}}";
    }
    os << "\n]}\n";
    return engine::write_text_file_atomic(path, os.str());
  }

 private:
  static unsigned thread_index() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned mine = next.fetch_add(1);
    return mine;
  }

  Stopwatch clock_;
  std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local int current_;
};

thread_local int Trace::current_ = -1;

// ---------------------------------------------------------------------
// Table-1 campaigns

/// sepe-run's checkpoint/cache fingerprint for `--xlen 4 --modes both`.
constexpr const char* kFingerprint = "xlen=4;modes=both";
constexpr unsigned kTable1Bound = 6;
constexpr unsigned kTable1MaxK = 2;
constexpr unsigned kParallelThreads = 4;

struct Table1 {
  std::unique_ptr<engine::PinnedTable> pinned;  // outlives spec's builders
  engine::CampaignSpec spec;                    // jobs in canonical order

  /// The campaign with its jobs in the next order drawn from `orders`.
  engine::CampaignSpec next(Orders& orders) const {
    engine::CampaignSpec out;
    out.seed = spec.seed;
    for (std::size_t i : orders.next(spec.jobs.size())) out.jobs.push_back(spec.jobs[i]);
    return out;
  }
};

/// Set-up of every Table-1 workload: pinned-table synthesis plus matrix
/// expansion, exactly what `sepe-run --bugs table1 --rows N --bound 6
/// --max-k 2` does before its campaign. Spans only when `trace` is set.
Table1 make_table1(const Args& args, Trace* trace) {
  Table1 t;
  {
    std::optional<Trace::Scope> span;
    if (trace) span.emplace(*trace, "engine.pinned_table");
    t.pinned = engine::make_pinned_table(4);
  }
  engine::CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  auto bugs = proc::table1_single_instruction_bugs();
  if (args.rows < bugs.size()) bugs.resize(args.rows);
  matrix.mutations = std::move(bugs);
  matrix.equivalences = &t.pinned->table;
  matrix.extra_opcodes = {isa::Opcode::ADD, isa::Opcode::ADDI};
  matrix.budget.max_bound = kTable1Bound;
  matrix.budget.max_k = kTable1MaxK;
  std::optional<Trace::Scope> span;
  if (trace) span.emplace(*trace, "engine.expand");
  t.spec = engine::expand(matrix, 1);
  return t;
}

/// The expected rows: the stable-form report from --expected, restricted
/// to the jobs of this grid and rendered once as reference bytes.
struct Expected {
  engine::CampaignReport report;  // canonical job order
  std::string stable_json;
};

bool load_expected(const Args& args, const engine::CampaignSpec& spec, Expected* out) {
  const auto text = engine::read_text_file(args.expected_path);
  engine::CampaignReport all;
  std::string error;
  if (!text || !engine::parse_report(*text, &all, &error)) {
    std::fprintf(stderr, "perfbench: cannot read expected report '%s': %s\n",
                 args.expected_path.c_str(), error.c_str());
    return false;
  }
  out->report.seed = spec.seed;
  for (const engine::JobResult& j : all.jobs) {
    const bool in_grid =
        std::any_of(spec.jobs.begin(), spec.jobs.end(),
                    [&](const engine::JobSpec& s) { return s.name == j.name; });
    if (in_grid) out->report.jobs.push_back(j);
  }
  if (out->report.jobs.size() != spec.jobs.size()) {
    std::fprintf(stderr, "perfbench: expected report covers %zu of %zu jobs\n",
                 out->report.jobs.size(), spec.jobs.size());
    return false;
  }
  out->stable_json = out->report.to_json(/*include_timing=*/false);
  return true;
}

/// Correctness gate for one campaign: every row must match its expected
/// verdict fields (an UNKNOWN row never does), and the report, put back
/// into canonical job order, must render byte-identical stable JSON to
/// the expected report — the same bytes for every Table-1 workload.
void check_campaign(const engine::CampaignReport& got, const Expected& expected,
                    const char* what, Outcome* out) {
  engine::CampaignReport canonical;
  canonical.seed = got.seed;
  std::uint64_t bad = 0;
  for (const engine::JobResult& e : expected.report.jobs) {
    ++out->attempted;
    const auto it =
        std::find_if(got.jobs.begin(), got.jobs.end(),
                     [&](const engine::JobResult& g) { return g.name == e.name; });
    if (it == got.jobs.end()) {
      out->fail(std::string(what) + ": job '" + e.name + "' missing");
      ++bad;
      continue;
    }
    canonical.jobs.push_back(*it);
    if (it->verdict == engine::Verdict::Unknown || it->verdict != e.verdict ||
        it->trace_length != e.trace_length || it->bad_label != e.bad_label ||
        it->proved_k != e.proved_k || it->note != e.note ||
        it->provenance.mode != e.provenance.mode) {
      out->fail(std::string(what) + ": job '" + e.name + "' is " +
                engine::verdict_name(it->verdict) + ", expected " +
                engine::verdict_name(e.verdict));
      ++bad;
    }
  }
  if (got.jobs.size() != expected.report.jobs.size()) {
    out->fail(std::string(what) + ": report has " + std::to_string(got.jobs.size()) +
              " rows, expected " + std::to_string(expected.report.jobs.size()));
  } else if (bad == 0 && canonical.to_json(false) != expected.stable_json) {
    out->fail(std::string(what) + ": stable JSON differs from the expected report");
  }
}

struct CampaignRun {
  engine::CampaignReport report;
  double wall = 0.0;
  double cpu = 0.0;
};

using JobDone = std::function<void(std::size_t, const engine::JobResult&)>;

/// One campaign through run_sharded, as sepe-run drives it; `on_job_done`
/// is the pool's completion hook (traced runs only).
CampaignRun run_user_campaign(const engine::CampaignSpec& spec, unsigned threads,
                              const std::string& cache_dir, JobDone on_job_done = {}) {
  engine::ShardRunOptions options;
  options.pool.threads = threads;
  options.pool.on_job_done = std::move(on_job_done);
  options.cache_dir = cache_dir;
  options.fingerprint = kFingerprint;
  CampaignRun run;
  std::string error;
  const double cpu0 = cpu_seconds();
  const Stopwatch clock;
  run.report = engine::run_sharded(spec, options, &error);
  run.wall = clock.seconds();
  run.cpu = cpu_seconds() - cpu0;
  if (!error.empty()) std::fprintf(stderr, "perfbench: campaign: %s\n", error.c_str());
  return run;
}

unsigned threads_of(const std::string& workload) {
  return workload == "table1-serial" ? 1 : kParallelThreads;
}

/// A fresh, empty cache directory under the work dir.
std::string fresh_dir(const Args& args, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Repeat `rep` (one timed repetition) while another one fits in about
/// --seconds, at least once: a repetition starts only if the previous one
/// took less than twice the time left. So a run's repetition count does
/// not flip when one repetition takes close to --seconds.
template <class Rep>
void repeat_for(const Args& args, Rep rep) {
  const Stopwatch elapsed;
  for (;;) {
    const double start = elapsed.seconds();
    rep();
    const double end = elapsed.seconds();
    if (end + 0.5 * (end - start) >= args.seconds) return;
  }
}

/// A timed stretch of work: its host times and where it started among the
/// host-speed samples. A sample follows every part.
struct Part {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t mark = 0;
};

/// One timed repetition: a campaign (one part), or an HPF pass (one part
/// per case, so a pass of ~30 s is scaled case by case).
using Repetition = std::vector<Part>;

/// Sets wall_s and cpu_s from the fastest repetition, each part scaled to
/// the reference speed by the samples around it. Takes one more sample
/// first: the last part's second one after it.
void report_repetitions(const char* what, const std::vector<Repetition>& reps,
                        HostSpeed& host, Outcome* out) {
  host.sample();
  std::vector<double> walls, cpus;
  for (const Repetition& rep : reps) {
    double wall = 0.0, cpu = 0.0, host_wall = 0.0, host_cpu = 0.0;
    for (const Part& part : rep) {
      const double scale = host.scale_around(part.mark);
      wall += scale * part.wall;
      cpu += scale * part.cpu;
      host_wall += part.wall;
      host_cpu += part.cpu;
    }
    walls.push_back(wall);
    cpus.push_back(cpu);
    std::fprintf(stderr, "perfbench: %s %.3fs wall, %.3fs cpu, host scale %.3f\n", what,
                 host_wall, host_cpu, wall / host_wall);
  }
  out->set("wall_s", fastest(walls));
  out->set("cpu_s", fastest(cpus));
}

/// The cold fill of table1-warm: a full campaign journaling every verdict
/// into `cache_dir`, run in a child process. The warm process then starts
/// its timed part as a user's warm `sepe-run --cache` process does, with
/// no cold campaign in its heap, so peak_rss_mb is the warm path's own.
/// The child checks the fill's rows and exits with the number that failed.
void cold_fill(const engine::CampaignSpec& spec, const std::string& cache_dir,
               const Expected& expected, Outcome* out) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    Outcome child;
    check_campaign(run_user_campaign(spec, kParallelThreads, cache_dir).report, expected,
                   "cold fill", &child);
    std::_Exit(static_cast<int>(std::min<std::uint64_t>(child.failed, 100)));
  }
  int status = 0;
  const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status);
  out->attempted += spec.jobs.size();
  if (!exited)
    out->fail("cold fill: child process did not exit normally");
  else
    out->failed += static_cast<unsigned>(WEXITSTATUS(status));
}

constexpr int kSetupRepeats = 21;
constexpr int kWarmSetupRepeats = 3;
constexpr int kEdgeSamples = 3;  // host-speed samples before set-up / the timed part

/// Untraced Table-1 run: set-up (repeated; median reported), then whole
/// campaigns until --seconds have elapsed, with a host-speed sample after
/// each (report_repetitions).
bool table1_untraced(const Args& args, Outcome* out) {
  const bool warm = args.workload == "table1-warm";
  const unsigned threads = threads_of(args.workload);
  Orders orders(args.seed);
  // Host-speed references as wide as the work they scale: set-up is one
  // thread, except table1-warm's 4-worker cold fills; the timed part keeps
  // the pool busy, except on table1-warm, whose cached rows are
  // re-derived on the calling thread.
  HostSpeed setup_host(warm ? kParallelThreads : 1);
  HostSpeed host(warm ? 1 : threads);
  for (int i = 0; i < kEdgeSamples; ++i) setup_host.sample();
  std::vector<double> setups;
  Table1 t;
  Expected expected;
  std::string cache_dir;
  for (int i = 0; i < (warm ? kWarmSetupRepeats : kSetupRepeats); ++i) {
    const Stopwatch clock;
    t = make_table1(args, nullptr);
    double setup = clock.seconds();
    if (i == 0 && !load_expected(args, t.spec, &expected)) return false;
    if (warm) {
      cache_dir = fresh_dir(args, "verdict-cache");
      const Stopwatch fill;
      cold_fill(t.next(orders), cache_dir, expected, out);
      setup += fill.seconds();
      setup_host.sample();
    }
    setups.push_back(setup);
  }
  setup_host.sample();
  for (int i = 0; i < kEdgeSamples; ++i) host.sample();

  std::vector<Repetition> reps;
  std::vector<double> peaks;
  repeat_for(args, [&] {
    const std::size_t mark = host.mark();
    reset_peak_rss();
    const CampaignRun run = run_user_campaign(t.next(orders), threads, cache_dir);
    peaks.push_back(peak_rss_mb());
    host.sample();
    reps.push_back({{run.wall, run.cpu, mark}});
    check_campaign(run.report, expected, args.workload.c_str(), out);
    if (warm) {
      for (const engine::JobResult& j : run.report.jobs)
        if (!j.from_cache) out->fail("warm: job '" + j.name + "' missed the cache");
    }
  });
  report_repetitions((args.workload + " campaign").c_str(), reps, host, out);
  out->set("setup_s", setup_host.scale_so_far() * median(setups));
  out->set("peak_rss_mb", *std::max_element(peaks.begin(), peaks.end()));
  return true;
}

// ---------------------------------------------------------------------
// Traced Table-1 runs: the same work through public module calls

/// SAT and CNF totals of the solver stacks the layer pass ran.
struct SolverTotals {
  std::uint64_t conflicts = 0, propagations = 0, decisions = 0;
  std::uint64_t eliminated = 0, subsumed = 0, vivified = 0;
  std::uint64_t cnf_vars = 0, cnf_clauses = 0;

  /// Adds a bmc::BmcStats or a bmc::KInductionResult (same field names).
  template <class Stats>
  void add(const Stats& s) {
    conflicts += s.solver_conflicts;
    propagations += s.solver_propagations;
    decisions += s.solver_decisions;
    eliminated += s.eliminated_vars;
    subsumed += s.subsumed_clauses;
    vivified += s.vivified_clauses;
    cnf_vars += s.cnf_vars;
    cnf_clauses += s.cnf_clauses;
  }
};

/// Witness-layer totals.
struct WitnessTotals {
  std::uint64_t trace_len = 0, trace_len_shrunk = 0;
};

const char* mode_key(const engine::JobSpec& job) {
  return job.provenance.mode == "EDDI-V" ? "bmc.check.eddi" : "bmc.check.edsep";
}

/// BMC on a freshly built model, driven bound by bound up to `max_bound`
/// (the default-config entrant of run_job, or the warm re-derivation of
/// witness_post_pass), then the witness layer on a counterexample. Runs
/// k-induction to max-k 2 on models without one, as the race's other
/// prover does. Returns false when the model does not build or the
/// witness does not replay; *length gets the counterexample's length (0 =
/// none).
bool layer_pass_job(const engine::JobSpec& job, unsigned max_bound, bool with_kind,
                    const std::shared_ptr<smt::ConeCache>& cones, Trace& trace,
                    std::mutex& mu, SolverTotals* sat, WitnessTotals* wit,
                    unsigned* length) {
  *length = 0;
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  std::string error;
  bool built = false;
  {
    Trace::Scope span(trace, "qed.build", job.name);
    built = job.build(ts, &error);
  }
  if (!built) return false;
  bmc::Bmc checker(ts, sat::SolverConfig{}, job.budget.plaisted_greenbaum.value_or(false),
                   cones);
  std::optional<bmc::Witness> found;
  for (unsigned b = 0; b <= max_bound && !found; ++b) {
    Trace::Scope span(trace, mode_key(job), job.name, static_cast<int>(b));
    bmc::BmcOptions bo;
    bo.max_bound = b;
    found = checker.check(bo);
  }
  std::optional<bmc::KInductionResult> kind;
  if (!found && with_kind) {
    smt::TermManager kmgr;
    ts::TransitionSystem kts(kmgr);
    {
      Trace::Scope span(trace, "qed.build", job.name);
      if (!job.build(kts, &error)) return false;
    }
    Trace::Scope span(trace, "kind.prove", job.name);
    bmc::KInductionOptions ko;
    ko.max_k = job.budget.max_k;
    ko.plaisted_greenbaum = job.budget.plaisted_greenbaum.value_or(false);
    ko.cone_cache = cones;
    kind = bmc::prove_by_k_induction(kts, ko);
  }
  bool replayed = true;
  unsigned len = 0, shrunk = 0;
  if (found) {
    engine::WitnessTrace wt;
    {
      Trace::Scope span(trace, "witness.extract", job.name);
      wt = engine::extract_trace(ts, *found);
    }
    {
      Trace::Scope span(trace, "witness.replay", job.name);
      replayed = engine::replay_trace(ts, wt).ok;
    }
    if (replayed) {
      Trace::Scope span(trace, "witness.shrink", job.name);
      shrunk = engine::shrink_trace(ts, &wt);
    }
    len = wt.length;
  }
  *length = len;
  std::lock_guard<std::mutex> lock(mu);
  sat->add(checker.stats());
  if (kind) sat->add(*kind);
  wit->trace_len += len;
  wit->trace_len_shrunk += shrunk;
  return replayed;
}

/// Sets `metric` to the total of the `span` spans, when there are any.
void set_span_total(Outcome* out, const char* metric, const Trace& trace,
                    const char* span) {
  if (!trace.durations(span).empty()) out->set(metric, trace.total(span));
}

void add_solver_metrics(const SolverTotals& sat, const WitnessTotals& wit,
                        const Trace& trace, Outcome* out) {
  const double solve_s = trace.total("bmc.check.eddi") + trace.total("bmc.check.edsep") +
                         trace.total("kind.prove");
  set_span_total(out, "qed.build_s", trace, "qed.build");
  set_span_total(out, "bmc.check_s.eddi", trace, "bmc.check.eddi");
  set_span_total(out, "bmc.check_s.edsep", trace, "bmc.check.edsep");
  out->set("bmc.bound6_s", trace.total_at_bound(static_cast<int>(kTable1Bound)));
  set_span_total(out, "kind.prove_s", trace, "kind.prove");
  out->set("sat.conflicts", static_cast<double>(sat.conflicts));
  out->set("sat.propagations", static_cast<double>(sat.propagations));
  out->set("sat.decisions", static_cast<double>(sat.decisions));
  out->set("sat.props_per_s", solve_s > 0 ? sat.propagations / solve_s : 0.0);
  out->set("sat.eliminated_vars", static_cast<double>(sat.eliminated));
  out->set("sat.subsumed_clauses", static_cast<double>(sat.subsumed));
  out->set("sat.vivified_clauses", static_cast<double>(sat.vivified));
  out->set("smt.cnf_vars", static_cast<double>(sat.cnf_vars));
  out->set("smt.cnf_clauses", static_cast<double>(sat.cnf_clauses));
  set_span_total(out, "witness.extract_s", trace, "witness.extract");
  set_span_total(out, "witness.replay_s", trace, "witness.replay");
  set_span_total(out, "witness.shrink_s", trace, "witness.shrink");
  out->set("witness.trace_len", static_cast<double>(wit.trace_len));
  out->set("witness.trace_len_shrunk", static_cast<double>(wit.trace_len_shrunk));
}

/// Cold traced run (table1-serial / table1-parallel). Engine pass: one
/// campaign through run_sharded, as users run it, observed through the
/// pool's on_job_done hook. Layer pass: the same jobs decomposed into
/// model build, bound-by-bound BMC, k-induction and the witness layer.
bool table1_cold_traced(const Args& args, Trace& trace, Outcome* out) {
  const unsigned threads = threads_of(args.workload);
  Orders orders(args.seed);
  const Table1 t = make_table1(args, &trace);
  Expected expected;
  if (!load_expected(args, t.spec, &expected)) return false;
  const engine::CampaignSpec spec = t.next(orders);
  const std::size_t n = spec.jobs.size();

  std::vector<double> job_s(n);  // run_job's wall time (JobResult::seconds)
  std::mutex mu;
  double first_bug = 0.0;
  CampaignRun engine_pass;
  {
    Trace::Scope span(trace, "engine.campaign");
    const Stopwatch pass;
    engine_pass = run_user_campaign(
        spec, threads, "", [&](std::size_t i, const engine::JobResult& r) {
          const double done = pass.seconds();
          std::lock_guard<std::mutex> lock(mu);
          job_s[i] = r.seconds;
          if (r.verdict == engine::Verdict::Falsified && first_bug == 0.0) first_bug = done;
        });
  }
  const engine::CampaignReport& report = engine_pass.report;
  const double wall = engine_pass.wall;
  check_campaign(report, expected, "engine pass", out);
  if (report.jobs.size() != n) return true;

  SolverTotals sat;
  WitnessTotals wit;
  const auto layer_cones = std::make_shared<smt::ConeCache>();
  for_each_index(n, threads, [&](std::size_t i) {
    const engine::JobSpec& job = spec.jobs[i];
    const engine::JobResult& r = report.jobs[i];
    unsigned length = 0;
    const bool ok = layer_pass_job(job, kTable1Bound, /*with_kind=*/true, layer_cones,
                                   trace, mu, &sat, &wit, &length);
    const unsigned expected_length =
        r.verdict == engine::Verdict::Falsified ? r.trace_length : 0;
    if (!ok || length != expected_length) {
      std::lock_guard<std::mutex> lock(mu);
      out->fail("layer pass: job '" + job.name + "' disagrees with run_job");
    }
  });

  // What the outside view misses: per job, run_job's wall time minus the
  // layer spans on its critical path (model build + BMC sweep).
  double unattributed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = spec.jobs[i].name;
    const auto builds = trace.durations("qed.build", &name);
    const double critical = (builds.empty() ? 0.0 : builds.front()) +
                            trace.total("bmc.check.eddi", &name) +
                            trace.total("bmc.check.edsep", &name);
    unattributed += job_s[i] - critical;
  }

  const double busy = std::accumulate(job_s.begin(), job_s.end(), 0.0);
  out->set("engine.pinned_table_s", trace.total("engine.pinned_table"));
  out->set("engine.expand_s", trace.total("engine.expand"));
  out->set("engine.job_s.p50", median(job_s));
  out->set("engine.job_s.max", *std::max_element(job_s.begin(), job_s.end()));
  out->set("engine.pool_busy_ratio", busy / (threads * wall));
  out->set("first_bug_s", first_bug);
  add_solver_metrics(sat, wit, trace, out);
  out->set("trace.unattributed_s", unattributed);
  return true;
}

/// Warm traced run. Set-up: a cold campaign, its verdicts appended to a
/// fresh journal through VerdictCache::append. Timed part, as run_sharded
/// serves a warm campaign: journal open + one lookup per job, then every
/// cached FALSIFIED row re-derived (bound-by-bound BMC to its claimed
/// length), replayed and shrunk.
bool table1_warm_traced(const Args& args, Trace& trace, Outcome* out) {
  Orders orders(args.seed);
  const Table1 t = make_table1(args, &trace);
  Expected expected;
  if (!load_expected(args, t.spec, &expected)) return false;
  const engine::CampaignSpec spec = t.next(orders);
  const CampaignRun cold = run_user_campaign(spec, kParallelThreads, "");
  check_campaign(cold.report, expected, "cold fill", out);
  const std::string dir = fresh_dir(args, "verdict-cache-traced");
  std::string error;
  {
    auto cache = engine::VerdictCache::open(dir, &error);
    if (!cache) {
      std::fprintf(stderr, "perfbench: verdict cache: %s\n", error.c_str());
      return false;
    }
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
      const engine::JobSpec& job = spec.jobs[i];
      const engine::JobResult& r = cold.report.jobs[i];
      engine::VerdictCache::Entry e;
      e.verdict = r.verdict;
      e.trace_length = r.trace_length;
      e.bad_label = r.bad_label;
      e.proved_k = r.proved_k;
      e.note = r.note;
      Trace::Scope span(trace, "verdict_cache.append", job.name);
      cache->append(engine::VerdictCache::key_of(job, kFingerprint), e);
    }
  }

  std::unique_ptr<engine::VerdictCache> cache;
  {
    Trace::Scope span(trace, "verdict_cache.lookup", "(journal open)");
    cache = engine::VerdictCache::open(dir, &error);
  }
  if (!cache) {
    std::fprintf(stderr, "perfbench: verdict cache: %s\n", error.c_str());
    return false;
  }
  SolverTotals sat;
  WitnessTotals wit;
  std::mutex mu;
  const auto cones = std::make_shared<smt::ConeCache>();
  std::uint64_t hits = 0;
  for (const engine::JobSpec& job : spec.jobs) {
    std::optional<engine::VerdictCache::Entry> hit;
    {
      Trace::Scope span(trace, "verdict_cache.lookup", job.name);
      hit = cache->lookup(engine::VerdictCache::key_of(job, kFingerprint));
    }
    ++out->attempted;
    if (!hit) {
      out->fail("warm: job '" + job.name + "' missed the cache");
      continue;
    }
    ++hits;
    if (hit->verdict != engine::Verdict::Falsified) continue;
    unsigned length = 0;
    if (!layer_pass_job(job, hit->trace_length, /*with_kind=*/false, cones, trace, mu,
                        &sat, &wit, &length) ||
        length != hit->trace_length)
      out->fail("warm: cached FALSIFIED row '" + job.name + "' did not reproduce");
  }

  // The user path over the same journal, for the unattributed share.
  const CampaignRun warm = run_user_campaign(spec, kParallelThreads, dir);
  check_campaign(warm.report, expected, "warm campaign", out);

  double children = 0.0;
  for (const char* name : {"verdict_cache.lookup", "qed.build", "bmc.check.edsep",
                           "bmc.check.eddi", "witness.extract", "witness.replay",
                           "witness.shrink"})
    children += trace.total(name);

  out->set("engine.pinned_table_s", trace.total("engine.pinned_table"));
  out->set("engine.expand_s", trace.total("engine.expand"));
  out->set("verdict_cache.lookups", static_cast<double>(cache->stats().lookups));
  out->set("verdict_cache.hits", static_cast<double>(hits));
  out->set("verdict_cache.lookup_s", trace.total("verdict_cache.lookup"));
  out->set("verdict_cache.append_s", trace.total("verdict_cache.append"));
  add_solver_metrics(sat, wit, trace, out);
  out->set("trace.unattributed_s", warm.wall - children);
  return true;
}

// ---------------------------------------------------------------------
// synth-hpf

constexpr unsigned kSynthXlen = 8;
constexpr unsigned kSynthPrograms = 3;  // k

struct Synth {
  std::vector<synth::Component> lib;
  std::vector<synth::SynthSpec> cases;  // programs point into this vector
  synth::DriverOptions opts;
};

Synth make_synth(const Args& args) {
  Synth s;
  s.lib = synth::make_standard_library();
  s.cases = synth::make_figure3_cases();
  if (args.cases < s.cases.size()) s.cases.resize(args.cases);
  s.opts.cegis.xlen = kSynthXlen;
  s.opts.multiset_size = 3;
  s.opts.target_programs = kSynthPrograms;
  s.opts.max_seconds = 0.0;  // no cap: multisets_tried is deterministic
  return s;
}

struct SynthPass {
  std::vector<synth::SynthesisResult> results;  // by case index
  std::vector<double> case_s;                   // by case index
  double wall = 0.0;
  double cpu = 0.0;
  Repetition parts;      // with a HostSpeed: one per case
  double peak_mb = 0.0;  // with a HostSpeed: the highest case's VmHWM
};

/// One HPF-CEGIS pass over every case with one shared PriorityDict
/// (Algorithm 1, line 2). Always in the canonical Figure-3 order, whatever
/// the seed: the dict carries what earlier cases taught it into later
/// ones, so another order is another workload (NOTES.md, "Seeds"). With
/// `host` (untraced runs), a host-speed sample follows every case, and
/// each case has its own peak-memory window, which the samples' memory
/// stays out of.
SynthPass run_synth(const Synth& s, Trace* trace, HostSpeed* host) {
  SynthPass p;
  p.results.resize(s.cases.size());
  p.case_s.resize(s.cases.size());
  const synth::HpfOptions hpf;
  synth::PriorityDict dict(s.lib.size(), hpf);
  const double cpu0 = cpu_seconds();
  const Stopwatch pass;
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    std::optional<Trace::Scope> span;
    if (trace) span.emplace(*trace, "synth.case", s.cases[i].name);
    if (host) reset_hwm();
    const double case_cpu0 = cpu_seconds();
    const Stopwatch clock;
    p.results[i] = synth::hpf_cegis(s.cases[i], s.lib, s.opts, hpf, &dict);
    p.case_s[i] = clock.seconds();
    if (host) {
      p.parts.push_back({p.case_s[i], cpu_seconds() - case_cpu0, host->mark()});
      p.peak_mb = std::max(p.peak_mb, peak_rss_mb());
      host->sample();
    }
  }
  p.wall = pass.seconds();
  p.cpu = cpu_seconds() - cpu0;
  return p;
}

/// Correctness gate: every case yields k programs, each re-proved with
/// verify_program at the synthesis width. Untraced runs spread the
/// re-proofs over the worker threads (the gate is outside the timed
/// part); traced runs keep them serial so synth.verify_s is uncontended.
void check_synth(const Synth& s, const SynthPass& p, Trace* trace, Outcome* out) {
  std::vector<const synth::SynthProgram*> programs;
  std::vector<std::size_t> case_of;
  for (std::size_t i = 0; i < s.cases.size(); ++i)
    for (const synth::SynthProgram& program : p.results[i].programs) {
      programs.push_back(&program);
      case_of.push_back(i);
    }
  std::vector<char> ok(programs.size(), 0);
  for_each_index(programs.size(), trace ? 1 : kParallelThreads, [&](std::size_t j) {
    std::optional<Trace::Scope> span;
    if (trace) span.emplace(*trace, "synth.verify", s.cases[case_of[j]].name);
    ok[j] = synth::verify_program(*programs[j], kSynthXlen);
  });
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    ++out->attempted;
    const std::size_t found = p.results[i].programs.size();
    std::size_t proved = 0;
    for (std::size_t j = 0; j < programs.size(); ++j) proved += case_of[j] == i && ok[j];
    if (proved < kSynthPrograms || proved != found)
      out->fail("synth: case '" + s.cases[i].name + "' has " + std::to_string(proved) +
                " of " + std::to_string(found) + " programs re-proved (need " +
                std::to_string(kSynthPrograms) + ")");
  }
}

/// Set-up batches: building the library and cases takes microseconds,
/// too short to time alone, so each batch builds them kSetupBatch times.
constexpr int kSetupBatch = 1000;

bool synth_untraced(const Args& args, Outcome* out) {
  HostSpeed host(1);
  for (int i = 0; i < kEdgeSamples; ++i) host.sample();
  std::vector<double> setups;
  Synth s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch clock;
    for (int j = 0; j < kSetupBatch; ++j) s = make_synth(args);
    setups.push_back(clock.seconds() / kSetupBatch);
  }
  host.sample();
  const double setup_scale = host.scale_so_far();
  std::vector<SynthPass> passes;
  std::vector<Repetition> reps;
  std::vector<double> peaks;
  repeat_for(args, [&] {
    malloc_trim(0);
    passes.push_back(run_synth(s, nullptr, &host));
    reps.push_back(passes.back().parts);
    peaks.push_back(passes.back().peak_mb);
  });
  report_repetitions("synth-hpf pass", reps, host, out);
  for (const SynthPass& p : passes) check_synth(s, p, nullptr, out);
  out->set("setup_s", setup_scale * median(setups));
  out->set("peak_rss_mb", *std::max_element(peaks.begin(), peaks.end()));
  return true;
}

bool synth_traced(const Args& args, Trace& trace, Outcome* out) {
  Synth s;
  {
    Trace::Scope span(trace, "synth.setup");
    s = make_synth(args);
  }
  const SynthPass p = run_synth(s, &trace, nullptr);
  check_synth(s, p, &trace, out);
  unsigned tried = 0, succeeded = 0;
  for (const synth::SynthesisResult& r : p.results) {
    tried += r.multisets_tried;
    succeeded += r.multisets_succeeded;
  }
  const double case_total = trace.total("synth.case");
  // hpf_cegis returns no solver counters, so the sat.* layer of synthesis
  // stays unmeasured here.
  out->set("synth.case_s.max", *std::max_element(p.case_s.begin(), p.case_s.end()));
  out->set("case_p50_s", median(p.case_s));
  out->set("synth.multisets_tried", tried);
  out->set("synth.multisets_succeeded", succeeded);
  out->set("synth.success_ratio", tried ? static_cast<double>(succeeded) / tried : 0.0);
  out->set("synth.s_per_multiset", tried ? case_total / tried : 0.0);
  out->set("synth.verify_s", trace.total("synth.verify"));
  out->set("trace.unattributed_s", p.wall - case_total);
  return true;
}

// ---------------------------------------------------------------------

/// Prints the metrics of `table` (unset ones as 0, named in a
/// "not_measured" line first) and the result object as the last line.
template <std::size_t N>
void print_result(const Outcome& out, const Metric (&table)[N]) {
  std::ostringstream os;
  std::vector<const char*> unset;
  for (const Metric& m : table)
    if (!out.values.count(m.name)) unset.push_back(m.name);
  if (!unset.empty()) {
    os << "{\"not_measured\": [";
    for (std::size_t i = 0; i < unset.size(); ++i) {
      os << (i ? ", " : "");
      json_escape(os, unset[i]);
    }
    os << "]}\n";
  }
  os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = out.values.find(table[i].name);
    char value[40];
    const double v = it == out.values.end() ? 0.0 : it->second;
    std::snprintf(value, sizeof value, "%.17g", v);
    os << (i ? ", " : "");
    json_escape(os, table[i].name);
    os << ": {\"value\": " << value << ", \"unit\": ";
    json_escape(os, table[i].unit);
    os << "}";
  }
  os << "}}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table1-serial|table1-parallel|"
               "table1-warm|synth-hpf --seed N --seconds S --trace 0|1 --expected FILE "
               "--work-dir DIR [--trace-out FILE] [--rows N] [--cases N]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, &end, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, &end);
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--expected") a.expected_path = v;
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else if (flag == "--rows") a.rows = static_cast<unsigned>(std::strtoul(v, &end, 10));
    else if (flag == "--cases")
      a.cases = static_cast<unsigned>(std::strtoul(v, &end, 10));
    else usage(("unknown flag " + flag).c_str());
    if (end && *end) usage(("malformed value for " + flag).c_str());
  }
  if (a.workload.empty() || a.work_dir.empty() || a.rows == 0 || a.cases == 0 ||
      !(a.seconds > 0))
    usage("missing or invalid arguments");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string workloads[] = {"table1-serial", "table1-parallel", "table1-warm",
                                   "synth-hpf"};
  if (std::find(std::begin(workloads), std::end(workloads), args.workload) ==
      std::end(workloads))
    usage("unknown workload");
  const bool table1 = args.workload != "synth-hpf";
  if (table1 && args.expected_path.empty()) usage("table1 workloads need --expected");

  Outcome out;
  bool ok = false;
  if (!args.trace) {
    ok = table1 ? table1_untraced(args, &out) : synth_untraced(args, &out);
  } else {
    Trace trace;
    if (args.workload == "table1-warm")
      ok = table1_warm_traced(args, trace, &out);
    else if (table1)
      ok = table1_cold_traced(args, trace, &out);
    else
      ok = synth_traced(args, trace, &out);
    if (ok && !args.trace_out.empty() && !trace.write_chrome_json(args.trace_out))
      std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                   args.trace_out.c_str());
  }
  if (!ok) return 1;  // set-up failed: no result line
  if (args.trace)
    print_result(out, kPerLayer);
  else
    print_result(out, kEndToEnd);
  return out.failed == 0 ? 0 : 1;
}
