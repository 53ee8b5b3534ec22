// Deterministic fault injection for the out-of-core IO stack.
//
// A failpoint is a named hook planted at an IO boundary (page read, manifest
// write, cache save, checkpoint publish). In production the registry is empty
// and each hook costs one relaxed atomic load of a global counter — no map
// lookup, no lock, no branch on string data. Tests and the fault-injection CI
// job arm failpoints either programmatically (failpoint::SetSpec) or through
// the SEPRIV_FAILPOINTS environment variable (read via util/env.h, once).
//
// Spec grammar (comma-separated rules):
//
//   name=action          fire on every hit
//   name=action@N        fire on the Nth hit only (1-based, one-shot)
//   name=action@N+       fire on the Nth hit and every hit after it (a
//                        fault that outlasts the callers' bounded retries)
//   name=action~P        fire each hit with probability P (seeded Rng)
//   name=action~P@SEED   same, with an explicit stream seed
//
// Actions:
//
//   err     the boundary reports a generic IO failure
//   enospc  the boundary reports out-of-space (non-retryable)
//   torn    a write stops halfway / a read returns corrupted bytes —
//           exercises the checksum-detection and re-read paths
//   crash   the process _exit()s mid-operation, after any partial effect —
//           the crash-recovery harness forks a child around this
//
// Example: SEPRIV_FAILPOINTS="page_file.read=err@3,proxcache.shard.read=torn"
//
// Probabilistic schedules draw from a dedicated sepriv::Rng per rule, so a
// given (spec, seed) pair produces the same fault sequence on every run —
// fault injection must never be a source of flakiness.

#ifndef SEPRIVGEMB_UTIL_FAILPOINT_H_
#define SEPRIVGEMB_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sepriv {
namespace failpoint {

enum class Action {
  kNone = 0,  // not armed / rule did not fire
  kError,     // report generic IO failure
  kEnospc,    // report out-of-space
  kTorn,      // half-write or corrupted read
  kCrash,     // _exit the process at the boundary
};

namespace internal {
// Number of armed rules across the registry, or -1 before SEPRIV_FAILPOINTS
// has been consulted. Zero ⇒ every Evaluate() is a single relaxed load and
// an early return; -1 forces the first Evaluate through the slow path so the
// env var is parsed exactly once. The value only transitions under the
// registry mutex; readers tolerate staleness (a racing Evaluate may miss a
// rule armed concurrently, which is fine — schedules are per-test).
extern std::atomic<int> armed_rules;

// Full evaluation: registry lookup, hit counting, schedule decision.
Action EvaluateSlow(const char* name);
}  // namespace internal

/// Evaluates the named failpoint. Returns kNone unless a matching armed rule
/// decides to fire. Thread-safe; hot-path cost is one relaxed atomic load.
inline Action Evaluate(const char* name) {
  if (internal::armed_rules.load(std::memory_order_relaxed) == 0) {
    return Action::kNone;
  }
  return internal::EvaluateSlow(name);
}

/// Replaces the whole registry with rules parsed from `spec` (the
/// SEPRIV_FAILPOINTS grammar). An empty spec disarms everything. Returns
/// false (and disarms) when the spec does not parse. Also marks the env as
/// consumed, so a later Evaluate will not re-read SEPRIV_FAILPOINTS over
/// a programmatic configuration.
bool SetSpec(const std::string& spec);

/// Disarms all failpoints and resets hit counters.
void ClearAll();

/// Number of times the named failpoint was evaluated with a rule armed
/// (whether or not the rule fired). Zero for unknown names.
uint64_t HitCount(const std::string& name);

/// Number of times the named failpoint actually fired.
uint64_t FireCount(const std::string& name);

/// Terminates the process immediately without running atexit handlers or
/// flushing streams — the honest model of a crash. Call sites reach this
/// through Action::kCrash after performing their partial (torn) effect.
[[noreturn]] void CrashNow();

}  // namespace failpoint
}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_FAILPOINT_H_
