#include "util/fault.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <vector>

namespace sepe::fault {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<bool> g_stop{false};

enum class Trigger : std::uint8_t { Always, Nth, Probability };

struct PlanEntry {
  std::string point;
  Action action = Action::Fail;
  Trigger trigger = Trigger::Always;
  std::uint64_t nth = 0;         // Trigger::Nth (1-based)
  double probability = 0.0;      // Trigger::Probability
  // Mutable firing state, guarded by g_mutex.
  std::uint64_t hits = 0;
  std::uint64_t rng_state = 0;   // per-entry splitmix64 stream
};

struct Plan {
  std::uint64_t seed = 1;
  std::vector<PlanEntry> entries;
};

std::mutex g_mutex;
Plan g_plan;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parse_action(const std::string& name, Action* out) {
  if (name == "fail") *out = Action::Fail;
  else if (name == "torn") *out = Action::Torn;
  else if (name == "short") *out = Action::Short;
  else if (name == "enospc") *out = Action::Enospc;
  else if (name == "oom") *out = Action::Oom;
  else if (name == "kill") *out = Action::Kill;
  else if (name == "hang") *out = Action::Hang;
  else if (name == "stop") *out = Action::Stop;
  else return false;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (v > (~0ULL - (c - '0')) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// point=NAME:ACTION[@TRIGGER]
bool parse_point(const std::string& spec, PlanEntry* out, std::string* error) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    if (error) *error = "fault point '" + spec + "': expected NAME:ACTION";
    return false;
  }
  out->point = spec.substr(0, colon);
  std::string action_part = spec.substr(colon + 1);
  const std::size_t at = action_part.find('@');
  std::string trigger_part;
  if (at != std::string::npos) {
    trigger_part = action_part.substr(at + 1);
    action_part = action_part.substr(0, at);
  }
  if (!parse_action(action_part, &out->action)) {
    if (error)
      *error = "fault point '" + out->point + "': unknown action '" + action_part + "'";
    return false;
  }
  if (at == std::string::npos) {
    out->trigger = Trigger::Always;
    return true;
  }
  if (trigger_part.find('.') != std::string::npos) {
    char* end = nullptr;
    const double p = std::strtod(trigger_part.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
      if (error)
        *error =
            "fault point '" + out->point + "': bad probability '" + trigger_part + "'";
      return false;
    }
    out->trigger = Trigger::Probability;
    out->probability = p;
    return true;
  }
  if (!parse_u64(trigger_part, &out->nth) || out->nth == 0) {
    if (error)
      *error = "fault point '" + out->point + "': bad trigger '" + trigger_part + "'";
    return false;
  }
  out->trigger = Trigger::Nth;
  return true;
}

bool parse_plan(const std::string& text, Plan* out, std::string* error) {
  *out = Plan{};
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    const std::string field = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (field.empty()) continue;
    if (field.rfind("seed=", 0) == 0) {
      if (!parse_u64(field.substr(5), &out->seed)) {
        if (error) *error = "fault plan: bad seed '" + field.substr(5) + "'";
        return false;
      }
      continue;
    }
    if (field.rfind("point=", 0) == 0) {
      PlanEntry entry;
      if (!parse_point(field.substr(6), &entry, error)) return false;
      out->entries.push_back(std::move(entry));
      continue;
    }
    if (error) *error = "fault plan: unknown field '" + field + "'";
    return false;
  }
  // Seed the per-entry probability streams: deterministic in (seed, name),
  // independent of entry order elsewhere in the plan.
  for (PlanEntry& e : out->entries) e.rng_state = out->seed ^ fnv1a(e.point);
  return true;
}

bool entry_fires(PlanEntry& e) {
  ++e.hits;
  switch (e.trigger) {
    case Trigger::Always:
      return true;
    case Trigger::Nth:
      return e.hits == e.nth;
    case Trigger::Probability: {
      const double draw =
          static_cast<double>(splitmix64(&e.rng_state) >> 11) * 0x1.0p-53;
      return draw < e.probability;
    }
  }
  return false;
}

}  // namespace

bool configure(const std::string& plan, std::string* error) {
  Plan parsed;
  if (!parse_plan(plan, &parsed, error)) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_plan = Plan{};
    g_armed.store(false, std::memory_order_relaxed);
    return false;
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  g_plan = std::move(parsed);
  g_armed.store(!g_plan.entries.empty(), std::memory_order_relaxed);
  return true;
}

bool init_from_environment() {
  std::string plan;
  if (const char* env = std::getenv("SEPE_FAULT")) plan = env;
  if (plan.empty()) return true;
  std::string error;
  if (!configure(plan, &error)) {
    std::fprintf(stderr, "[fault] ignoring malformed SEPE_FAULT: %s\n", error.c_str());
    return false;
  }
  return true;
}

bool armed() { return g_armed.load(std::memory_order_relaxed); }

std::optional<Action> hit(const char* point) {
  if (!g_armed.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (PlanEntry& e : g_plan.entries) {
    if (e.point != point) continue;
    if (entry_fires(e)) return e.action;
  }
  return std::nullopt;
}

void execute_process_action(Action action) {
  switch (action) {
    case Action::Kill:
      std::raise(SIGKILL);
      return;
    case Action::Hang: {
      // Interruptible stall: a hung process must still die promptly to
      // SIGTERM (the handler raises the global stop flag we poll here)
      // and is bounded so a forgotten hang cannot outlive CI timeouts.
      constexpr int kMaxNaps = 12000;  // ~10 minutes at 50ms
      for (int i = 0; i < kMaxNaps && !global_stop_requested(); ++i) {
        timespec nap{0, 50 * 1000 * 1000};
        nanosleep(&nap, nullptr);
      }
      return;
    }
    case Action::Stop:
      request_global_stop();
      return;
    default:
      return;  // data actions are honoured at the call site
  }
}

bool global_stop_requested() { return g_stop.load(std::memory_order_relaxed); }

void request_global_stop() { g_stop.store(true, std::memory_order_relaxed); }

void clear_global_stop() { g_stop.store(false, std::memory_order_relaxed); }

}  // namespace sepe::fault
