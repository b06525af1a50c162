// soak_oracles.h — post-run oracles over a soak scenario's counter totals.
//
// After a scenario's own C++ checks pass, examples/soak.cpp hands its
// registry totals (obs::Registry::total) to the common oracle and to the
// scenario's oracle below.  Each oracle returns the first invariant the
// totals break, or nullptr when all hold.  They take the totals as a
// function so tests/test_soak_oracles.cpp can feed them violating maps.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace cmtos::soak {

/// Total of one counter across all its label sets.
using Totals = std::function<std::int64_t(const std::string&)>;
using Oracle = const char* (*)(const Totals&);

/// Every scenario: no contract was violated.
inline const char* no_contract_violations(const Totals& t) {
  return t("contract.violations") != 0 ? "contract violations" : nullptr;
}

/// Chaos scenarios: the engine really injected faults.
inline const char* faults_injected(const Totals& t) {
  return t("faults.injected") <= 0 ? "no faults recorded" : nullptr;
}

/// Split brain with epoch fencing: the healed orchestrator was nacked, never
/// applied a target, and retired exactly once.
inline const char* fenced(const Totals& t) {
  if (const char* why = faults_injected(t)) return why;
  if (t("orch.stale_epoch_rejected") <= 0 || t("orch.stale_target_applied") != 0 ||
      t("orch.superseded") != 1)
    return "fencing invariants violated";
  return nullptr;
}

/// Split brain without fencing: the contrast proves nothing unless stale
/// targets actually landed.
inline const char* unfenced(const Totals& t) {
  if (const char* why = faults_injected(t)) return why;
  return t("orch.stale_target_applied") <= 0 ? "no split brain without fencing" : nullptr;
}

/// storm_recover: the closed loop degraded automatically.
inline const char* degraded(const Totals& t) {
  return t("qos.degrade") <= 0 ? "no automatic degrades recorded" : nullptr;
}

/// preempt: admission preempted by importance.
inline const char* preempted(const Totals& t) {
  return t("admission.preempt") <= 0 ? "no preemption recorded" : nullptr;
}

/// consumer_stall: the watermark shedder did its job.
inline const char* shed(const Totals& t) {
  return t("buffer.shed") <= 0 ? "stalled consumer shed nothing" : nullptr;
}

/// Byzantine scenarios: line noise never quarantines a well-behaved peer.
inline const char* no_quarantine(const Totals& t) {
  return t("wire.peer_quarantined") != 0 ? "line noise quarantined a well-behaved peer"
                                         : nullptr;
}

/// byzantine_storm: the wire fought back.
inline const char* wire_fought_back(const Totals& t) {
  if (t("wire.decode_failed") + t("wire.checksum_failed") <= 0)
    return "the wire never fought back";
  return no_quarantine(t);
}

/// dup_flood: duplication is lossless, but dedup had real work to do.
inline const char* dups_dropped(const Totals& t) {
  if (t("transport.dup_dropped") <= 0) return "no duplicates dropped";
  return no_quarantine(t);
}

/// City scenarios: the federation root ingested digests and the domains
/// fanned in at least one per-VC report per digest.
inline const char* federated(const Totals& t) {
  if (t("fed.root_aggregates") <= 0) return "federation root never ingested a digest";
  if (t("fed.domain_reports") < t("fed.root_aggregates"))
    return "domain fan-in ratio below 1: the root is not aggregating";
  return nullptr;
}

}  // namespace cmtos::soak
