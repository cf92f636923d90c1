//! Every fault-bearing fleet policy must actually inject faults.
//!
//! A policy lowers to a [`RunSpec`](smartconf_harness::RunSpec) and each
//! scenario turns that spec into a chaos-armed control plane. A lowering
//! or a scenario that drops the fault spec would still render a
//! plausible report — a clean run labelled `Chaos-X` — so this test runs
//! every chaos class and campaign, frozen and adaptive, on all seven
//! scenarios and requires a nonzero injected-fault count from each.

use smartconf_bench::chaos::chaos_policies;
use smartconf_bench::fleet::fleet_scenarios;
use smartconf_bench::resilience::campaign_policies;
use smartconf_harness::{run_fleet, FleetExecutor, Policy};

#[test]
fn every_fault_bearing_shard_injects_faults() {
    let policies: Vec<Policy> = chaos_policies()
        .into_iter()
        .chain(campaign_policies())
        .filter(|p| !matches!(p, Policy::Smart | Policy::Adaptive))
        .collect();
    assert_eq!(policies.len(), 22, "14 chaos + 8 campaign policies");
    let scenarios = fleet_scenarios();
    let report = run_fleet(&scenarios, &[42], &policies, &FleetExecutor::new(2));
    assert_eq!(report.shards.len(), scenarios.len() * policies.len());
    for shard in &report.shards {
        let injected: u64 = shard.channels.iter().map(|(_, c)| c.faults_injected).sum();
        assert!(
            injected > 0,
            "{} {}: no fault injected",
            shard.scenario_id,
            shard.policy
        );
    }
}
