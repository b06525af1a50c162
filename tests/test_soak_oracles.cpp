// The soak driver's post-run oracles (examples/soak_oracles.h): each must
// accept a healthy run's totals and reject totals that break the invariant
// it stands for, so no oracle can pass vacuously.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "soak_oracles.h"

namespace {

using Map = std::map<std::string, std::int64_t>;

cmtos::soak::Totals totals_of(const Map& m) {
  return [m](const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? std::int64_t{0} : it->second;
  };
}

/// `oracle` accepts `good` and rejects `good` with each override applied.
void expect_rejects(cmtos::soak::Oracle oracle, const Map& good,
                    const std::vector<Map>& violations) {
  EXPECT_EQ(oracle(totals_of(good)), nullptr);
  for (const Map& v : violations) {
    Map bad = good;
    for (const auto& [k, val] : v) bad[k] = val;
    EXPECT_NE(oracle(totals_of(bad)), nullptr) << "accepted " << v.begin()->first;
  }
}

TEST(SoakOracles, CommonOracleRejectsContractViolations) {
  expect_rejects(cmtos::soak::no_contract_violations, {}, {{{"contract.violations", 1}}});
}

// Former chaos-soak CI checks.
TEST(SoakOracles, ChaosRejectsRunWithoutFaults) {
  expect_rejects(cmtos::soak::faults_injected, {{"faults.injected", 2}},
                 {{{"faults.injected", 0}}});
}

TEST(SoakOracles, FencedSplitBrainRejectsEveryBrokenFence) {
  const Map good = {{"faults.injected", 2},
                    {"orch.stale_epoch_rejected", 3},
                    {"orch.stale_target_applied", 0},
                    {"orch.superseded", 1}};
  expect_rejects(cmtos::soak::fenced, good,
                 {{{"faults.injected", 0}},
                  {{"orch.stale_epoch_rejected", 0}},
                  {{"orch.stale_target_applied", 1}},
                  {{"orch.superseded", 0}},
                  {{"orch.superseded", 2}}});
}

TEST(SoakOracles, UnfencedContrastRejectsRunWithoutSplitBrain) {
  expect_rejects(cmtos::soak::unfenced,
                 {{"faults.injected", 2}, {"orch.stale_target_applied", 4}},
                 {{{"faults.injected", 0}}, {{"orch.stale_target_applied", 0}}});
}

// Former overload-soak CI checks.
TEST(SoakOracles, StormRecoverRejectsRunWithoutDegrade) {
  expect_rejects(cmtos::soak::degraded, {{"qos.degrade", 1}}, {{{"qos.degrade", 0}}});
}

TEST(SoakOracles, PreemptRejectsRunWithoutPreemption) {
  expect_rejects(cmtos::soak::preempted, {{"admission.preempt", 1}},
                 {{{"admission.preempt", 0}}});
}

TEST(SoakOracles, ConsumerStallRejectsRunWithoutShedding) {
  expect_rejects(cmtos::soak::shed, {{"buffer.shed", 5}}, {{{"buffer.shed", 0}}});
}

// Former fuzz-smoke byzantine CI checks.
TEST(SoakOracles, ByzantineStormRejectsSilentWireOrQuarantine) {
  expect_rejects(cmtos::soak::wire_fought_back,
                 {{"wire.decode_failed", 3}, {"wire.checksum_failed", 3}},
                 {{{"wire.decode_failed", 0}, {"wire.checksum_failed", 0}},
                  {{"wire.peer_quarantined", 1}}});
}

TEST(SoakOracles, DupFloodRejectsNoDedupOrQuarantine) {
  expect_rejects(cmtos::soak::dups_dropped, {{"transport.dup_dropped", 7}},
                 {{{"transport.dup_dropped", 0}}, {{"wire.peer_quarantined", 1}}});
}

TEST(SoakOracles, NoQuarantineRejectsQuarantinedPeer) {
  expect_rejects(cmtos::soak::no_quarantine, {}, {{{"wire.peer_quarantined", 1}}});
}

// Former scale-soak CI checks.
TEST(SoakOracles, CityRejectsStarvedRootOrCollapsedFanIn) {
  expect_rejects(cmtos::soak::federated,
                 {{"fed.root_aggregates", 120}, {"fed.domain_reports", 960}},
                 {{{"fed.root_aggregates", 0}, {"fed.domain_reports", 0}},
                  {{"fed.domain_reports", 119}}});
}

}  // namespace
