#include "util/failpoint.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace sepriv {
namespace failpoint {

namespace internal {
std::atomic<int> armed_rules{-1};  // -1: SEPRIV_FAILPOINTS not yet consulted
}  // namespace internal

namespace {

struct Rule {
  Action action = Action::kNone;
  // Trigger selection: exactly one of the three modes.
  bool every_hit = false;
  uint64_t nth_hit = 0;      // 1-based; 0 ⇒ not an @N rule
  bool and_after = false;     // @N+: every hit from the Nth on
  double probability = -1.0;  // < 0 ⇒ not probabilistic
  Rng rng{0};                 // stream for probabilistic rules
  uint64_t hits = 0;
  uint64_t fires = 0;
};

struct Registry {
  Mutex mu;
  // std::map: deterministic iteration order and no rehash surprises. The
  // registry is tiny (a handful of rules) and only touched on armed paths.
  std::map<std::string, Rule> rules SEPRIV_GUARDED_BY(mu);
  bool env_consumed SEPRIV_GUARDED_BY(mu) = false;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // never destroyed: atexit-safe
  return *registry;
}

constexpr uint64_t kDefaultProbSeed = 0xfa11fa11fa11ULL;

bool ParseAction(const std::string& token, Action* out) {
  if (token == "err") { *out = Action::kError; return true; }
  if (token == "enospc") { *out = Action::kEnospc; return true; }
  if (token == "torn") { *out = Action::kTorn; return true; }
  if (token == "crash") { *out = Action::kCrash; return true; }
  return false;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno != 0) return false;
  *out = v;
  return true;
}

bool ParseProbability(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno != 0) return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  *out = v;
  return true;
}

/// Parses one `name=action[~P][@N[+]]` rule. Returns false on malformed input.
bool ParseRule(const std::string& text, std::string* name, Rule* rule) {
  const size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *name = text.substr(0, eq);
  std::string rhs = text.substr(eq + 1);

  // Split off @suffix (Nth hit for deterministic rules, seed for ~P rules).
  std::string at_suffix;
  const size_t at = rhs.find('@');
  if (at != std::string::npos) {
    at_suffix = rhs.substr(at + 1);
    rhs = rhs.substr(0, at);
    if (at_suffix.empty()) return false;  // dangling '@'
  }
  // Split off ~probability.
  std::string prob_suffix;
  const size_t tilde = rhs.find('~');
  if (tilde != std::string::npos) {
    prob_suffix = rhs.substr(tilde + 1);
    rhs = rhs.substr(0, tilde);
    if (prob_suffix.empty()) return false;  // dangling '~'
  }

  if (!ParseAction(rhs, &rule->action)) return false;

  if (!prob_suffix.empty()) {
    if (!ParseProbability(prob_suffix, &rule->probability)) return false;
    uint64_t seed = kDefaultProbSeed;
    if (!at_suffix.empty() && !ParseU64(at_suffix, &seed)) return false;
    rule->rng.Seed(seed);
    return true;
  }
  if (!at_suffix.empty()) {
    if (at_suffix.back() == '+') {
      rule->and_after = true;
      at_suffix.pop_back();
    }
    if (!ParseU64(at_suffix, &rule->nth_hit) || rule->nth_hit == 0) {
      return false;
    }
    return true;
  }
  rule->every_hit = true;
  return true;
}

/// Parses a full comma-separated spec into `out`. All-or-nothing.
bool ParseSpec(const std::string& spec, std::map<std::string, Rule>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string piece = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (piece.empty()) continue;
    std::string name;
    Rule rule;
    if (!ParseRule(piece, &name, &rule)) return false;
    (*out)[name] = rule;
  }
  return true;
}

void InstallLocked(Registry& reg, std::map<std::string, Rule>&& rules)
    SEPRIV_REQUIRES(reg.mu) {
  reg.rules = std::move(rules);
  internal::armed_rules.store(static_cast<int>(reg.rules.size()),
                              std::memory_order_relaxed);
}

/// First-armed-touch initialisation from SEPRIV_FAILPOINTS. Called under the
/// registry lock from every public entry point.
void MaybeInitFromEnvLocked(Registry& reg) SEPRIV_REQUIRES(reg.mu) {
  if (reg.env_consumed) return;
  reg.env_consumed = true;
  const std::string spec = GetStringEnv("SEPRIV_FAILPOINTS");
  if (spec.empty()) return;
  std::map<std::string, Rule> rules;
  if (!ParseSpec(spec, &rules)) {
    std::fprintf(stderr, "[seprivgemb] ignoring invalid SEPRIV_FAILPOINTS=%s\n",
                 spec.c_str());
    return;
  }
  InstallLocked(reg, std::move(rules));
}

}  // namespace

namespace internal {

Action EvaluateSlow(const char* name) {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  MaybeInitFromEnvLocked(reg);
  auto it = reg.rules.find(name);
  if (it == reg.rules.end()) return Action::kNone;
  Rule& rule = it->second;
  ++rule.hits;
  bool fire = false;
  if (rule.every_hit) {
    fire = true;
  } else if (rule.nth_hit != 0) {
    fire = rule.and_after ? rule.hits >= rule.nth_hit
                          : rule.hits == rule.nth_hit;
  } else if (rule.probability >= 0.0) {
    fire = rule.rng.Bernoulli(rule.probability);
  }
  if (!fire) return Action::kNone;
  ++rule.fires;
  return rule.action;
}

}  // namespace internal

bool SetSpec(const std::string& spec) {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  reg.env_consumed = true;  // programmatic config wins over the env var
  std::map<std::string, Rule> rules;
  if (!ParseSpec(spec, &rules)) {
    InstallLocked(reg, {});
    return false;
  }
  InstallLocked(reg, std::move(rules));
  return true;
}

void ClearAll() {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  reg.env_consumed = true;
  InstallLocked(reg, {});
}

uint64_t HitCount(const std::string& name) {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  auto it = reg.rules.find(name);
  return it == reg.rules.end() ? 0 : it->second.hits;
}

uint64_t FireCount(const std::string& name) {
  Registry& reg = GetRegistry();
  MutexLock lock(reg.mu);
  auto it = reg.rules.find(name);
  return it == reg.rules.end() ? 0 : it->second.fires;
}

void CrashNow() {
  // _exit, not abort(): no signal handlers, no atexit, no stream flush —
  // buffered-but-unflushed state must be lost exactly as in a real crash.
  ::_exit(137);
}

}  // namespace failpoint
}  // namespace sepriv
