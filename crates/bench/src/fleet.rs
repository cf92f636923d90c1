//! The fleet smoke evaluation: all seven scenarios × seeds × policies
//! on the deterministic multi-threaded [`FleetExecutor`].
//!
//! This is the bench-level face of the harness fleet API: a fixed
//! roster (the six Figure 5 case studies plus the §6.5 twin-queue
//! experiment), a fixed policy set, and a JSON artifact recording the
//! wall-clock of each executor phase so CI can watch both correctness
//! (byte-identical reports at 1 vs. N threads) and the parallel
//! speedup.

use std::time::{Duration, Instant};

use smartconf_harness::{run_fleet, Baseline, FleetReport, Policy, Scenario};
use smartconf_kvstore::scenarios::TwinQueues;
use smartconf_runtime::FleetExecutor;

use crate::artifact::{self, Json};

/// All seven scenarios — the six Figure 5 case studies plus the §6.5
/// twin-queue experiment — boxed behind the common trait.
pub fn fleet_scenarios() -> Vec<Box<dyn Scenario + Send + Sync>> {
    let mut scenarios = crate::figure5::all_scenarios();
    scenarios.push(Box::new(TwinQueues::standard()));
    scenarios
}

/// The smoke policies: SmartConf plus the two issue defaults (which
/// every scenario in the roster defines, so no shard is unresolved),
/// plus the adaptive-model variant of SmartConf. `Adaptive` stays last
/// so the frozen policies' report lines keep their historical order.
pub const SMOKE_POLICIES: [Policy; 4] = [
    Policy::Smart,
    Policy::Static(Baseline::BuggyDefault),
    Policy::Static(Baseline::PatchDefault),
    Policy::Adaptive,
];

/// One timed phase of the smoke run.
#[derive(Debug, Clone)]
pub struct FleetPhase {
    /// Phase name, e.g. `"fleet-1-thread"`.
    pub name: String,
    /// Worker-thread count the phase ran at.
    pub threads: usize,
    /// Wall-clock the phase took.
    pub wall: Duration,
}

impl FleetPhase {
    /// Times `run` as the phase `{prefix}-{threads}-thread(s)`.
    pub fn time<R>(prefix: &str, threads: usize, run: impl FnOnce() -> R) -> (R, FleetPhase) {
        let start = Instant::now();
        let result = run();
        let phase = FleetPhase {
            name: format!(
                "{prefix}-{threads}-thread{}",
                if threads == 1 { "" } else { "s" }
            ),
            threads,
            wall: start.elapsed(),
        };
        (result, phase)
    }
}

/// Runs the seven-scenario roster under `policies` over `seeds` at
/// `threads` workers — the smoke, chaos and resilience fleets.
pub fn run_roster(policies: &[Policy], seeds: &[u64], threads: usize) -> FleetReport {
    run_fleet(
        &fleet_scenarios(),
        seeds,
        policies,
        &FleetExecutor::new(threads),
    )
}

/// Builds the `BENCH_fleet.json` artifact: the fleet's shape, whether
/// the 1-thread and N-thread reports were byte-identical, the per-phase
/// wall-clock, and the parallel speedup.
pub fn bench_json(
    seeds: &[u64],
    report: &FleetReport,
    reports_identical: bool,
    phases: &[FleetPhase],
) -> Json {
    let serial = phases.iter().find(|p| p.threads == 1);
    let fastest_parallel = phases
        .iter()
        .filter(|p| p.threads > 1)
        .min_by(|a, b| a.wall.cmp(&b.wall));
    let speedup = match (serial, fastest_parallel) {
        (Some(s), Some(p)) if p.wall.as_secs_f64() > 0.0 => {
            Json::fixed(s.wall.as_secs_f64() / p.wall.as_secs_f64(), 2)
        }
        _ => Json::Null,
    };
    Json::obj([
        ("scenarios", fleet_scenarios().len().into()),
        ("seeds", Json::arr(seeds.iter().copied())),
        (
            "policies",
            Json::arr(SMOKE_POLICIES.iter().map(|p| p.label())),
        ),
        ("shards", report.shards.len().into()),
        artifact::host_cpus(),
        (
            "note",
            "wall-clock figures are host-dependent; a 1-CPU host cannot show parallel \
             speedup, so parallel_speedup below 1.0 there only measures scheduling overhead"
                .into(),
        ),
        (
            "constraint_satisfaction_rate",
            Json::fixed(report.constraint_satisfaction_rate(), 4),
        ),
        ("reports_identical", reports_identical.into()),
        artifact::phases(phases),
        ("parallel_speedup", speedup),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_all_seven_scenarios() {
        let ids: Vec<String> = fleet_scenarios()
            .iter()
            .map(|s| s.id().to_string())
            .collect();
        assert_eq!(
            ids,
            ["CA6059", "HB2149", "HB3813", "HB6728", "HD4995", "MR2820", "TWIN"]
        );
    }

    #[test]
    fn heterogeneous_periods_byte_identical_across_threads() {
        // The two scenarios migrated to genuinely non-uniform sensing
        // periods: CA6059 senses 4× per second, HD4995 once per 5 s.
        // The event heap's (time, seq) ordering must make their fleet
        // reports independent of worker count — render the same run at
        // 1 and 4 threads and demand byte equality.
        use smartconf_dfs::Hd4995;
        use smartconf_kvstore::scenarios::Ca6059;
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> = vec![
            Box::new(Ca6059::standard().with_sensing_period(250_000)),
            Box::new(Hd4995::standard().with_sensing_period(5_000_000)),
        ];
        let seeds = [42, 43];
        let serial = run_fleet(&scenarios, &seeds, &SMOKE_POLICIES, &FleetExecutor::new(1));
        let threaded = run_fleet(&scenarios, &seeds, &SMOKE_POLICIES, &FleetExecutor::new(4));
        assert_eq!(
            serial.render(),
            threaded.render(),
            "heterogeneous-period fleet reports diverged across thread counts"
        );
    }

    #[test]
    fn adaptive_fleet_byte_identical_across_threads() {
        // The online estimator must not cost determinism: an
        // adaptive-only fleet renders byte-identically at 1 and 4
        // worker threads (the RLS update runs inside the controller
        // step, which both drivers replay in the same order).
        use smartconf_dfs::Hd4995;
        use smartconf_kvstore::scenarios::Hb6728;
        let scenarios: Vec<Box<dyn Scenario + Send + Sync>> =
            vec![Box::new(Hb6728::standard()), Box::new(Hd4995::standard())];
        let seeds = [42, 43];
        let policies = [Policy::Adaptive];
        let serial = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(1));
        let threaded = run_fleet(&scenarios, &seeds, &policies, &FleetExecutor::new(4));
        assert_eq!(
            serial.render(),
            threaded.render(),
            "adaptive fleet reports diverged across thread counts"
        );
    }

    #[test]
    fn bench_json_is_well_formed() {
        let (report, phase) = (
            FleetReport::default(),
            FleetPhase {
                name: "fleet-1-thread".into(),
                threads: 1,
                wall: Duration::from_millis(1500),
            },
        );
        let parallel = FleetPhase {
            name: "fleet-4-threads".into(),
            threads: 4,
            wall: Duration::from_millis(500),
        };
        let json = bench_json(&[42, 43], &report, true, &[phase, parallel]).render();
        assert!(json.contains("\"seeds\": [42, 43]"));
        assert!(json.contains("\"reports_identical\": true"));
        assert!(json.contains("\"parallel_speedup\": 3.00"));
        assert!(json.contains("\"wall_clock_secs\": 1.500"));
    }
}
