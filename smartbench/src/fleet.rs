//! The `fleet` and `chaos` workloads: `run_fleet` over the real plants
//! and `ControlPlane`s, plus a traced replica that re-drives every work
//! item through the public `Scenario` calls with one span per call.
//!
//! * `fleet` — 7 scenarios × 4 seeds × {SmartConf, Static-BuggyDefault,
//!   Static-PatchDefault, Adaptive}, no faults. Three seeds are pinned
//!   and one is drawn by `--seed`: the cost per decision differs by up
//!   to ~10% between seed mixes, so a fully drawn mix would widen the
//!   run-to-run spread.
//! * `chaos` — 7 scenarios × seeds {42, 43} × the frozen and adaptive
//!   SmartConf policies, clean, under each of the 7 fault classes and
//!   under each of the 4 campaigns. Its seeds are pinned, so `--seed`
//!   does not change its inputs: seed 43 keeps the known chaos gaps in
//!   the measured share, and other seeds can crash a shard (MR2820 at
//!   seed 68 under AdaptiveChaos-StaleRepeat), which the crash check
//!   would rightly refuse.

use std::sync::OnceLock;
use std::time::Instant;

use smartconf_bench::chaos::chaos_policies;
use smartconf_bench::fleet::{fleet_scenarios, SMOKE_POLICIES};
use smartconf_bench::resilience::campaign_policies;
use smartconf_core::ProfileSet;
use smartconf_harness::{
    fleet_work_items, run_fleet, FleetReport, FleetWorkItem, Policy, RunResult, Scenario,
    ShardReport,
};
use smartconf_runtime::FleetExecutor;
use smartconf_workload::KeyDistribution;

use crate::trace::{
    plant_layer, Counters, PassTrace, SpanBuf, LAYER_ITEM, LAYER_MERGE, LAYER_PROFILECACHE,
    LAYER_PROFILER, PLANT_IDS,
};

pub type Roster = Vec<Box<dyn Scenario + Send + Sync>>;

/// Scenario seeds on which every SmartConf and Adaptive shard of the
/// clean fleet keeps its constraint, checked over seeds 42..=89. The
/// guarantee is probabilistic (paper §5.6); the other seeds of that
/// range miss it on one shard each: MR2820 at 48, 56, 63 and 81 (both
/// models), TWIN SmartConf at 52, 63, 65, 80 and 88, TWIN Adaptive at
/// 66 and 85, and HB6728 Adaptive at 58 and 61.
pub const SEED_POOL: [u64; 36] = [
    42, 43, 44, 45, 46, 47, 49, 50, 51, 53, 54, 55, 57, 59, 60, 62, 64, 67, 68, 69, 70, 71, 72, 73,
    74, 75, 76, 77, 78, 79, 82, 83, 84, 86, 87, 89,
];

/// The fleet seeds every pass runs; one more is drawn by `--seed`.
pub const FLEET_PINNED_SEEDS: [u64; 3] = [42, 43, 44];

/// The chaos seeds. Seed 43 keeps the known chaos gaps (HB6728, HD4995
/// and HB2149) in the measured share.
pub const CHAOS_SEEDS: [u64; 2] = [42, 43];

/// SplitMix64 step, for drawing seeds from the pool.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pinned fleet seeds plus one pool seed drawn by `seed`.
fn fleet_seeds(seed: u64) -> Vec<u64> {
    let pool: Vec<u64> = SEED_POOL
        .iter()
        .copied()
        .filter(|s| !FLEET_PINNED_SEEDS.contains(s))
        .collect();
    let mut state = seed;
    let drawn = pool[(splitmix64(&mut state) % pool.len() as u64) as usize];
    let mut seeds = FLEET_PINNED_SEEDS.to_vec();
    seeds.push(drawn);
    seeds
}

/// Which of the two fleet-style workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fleet,
    Chaos,
}

/// One fleet-style workload's inputs.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    pub kind: Kind,
    pub seeds: Vec<u64>,
    pub policies: Vec<Policy>,
}

impl FleetInputs {
    pub fn for_seed(kind: Kind, seed: u64) -> FleetInputs {
        match kind {
            Kind::Fleet => FleetInputs {
                kind,
                seeds: fleet_seeds(seed),
                policies: SMOKE_POLICIES.to_vec(),
            },
            Kind::Chaos => FleetInputs {
                kind,
                seeds: CHAOS_SEEDS.to_vec(),
                policies: chaos_fleet_policies(),
            },
        }
    }
}

/// The chaos policy roster: the chaos sweep's 16 policies (clean
/// SmartConf and Adaptive, then frozen and adaptive per fault class)
/// followed by the campaign sweep's 8 campaign policies.
pub fn chaos_fleet_policies() -> Vec<Policy> {
    let mut policies = chaos_policies();
    policies.extend(
        campaign_policies()
            .into_iter()
            .filter(|p| matches!(p, Policy::Campaign(_) | Policy::AdaptiveCampaign(_))),
    );
    policies
}

/// Set-up: the roster plus the process-wide memos the plants share —
/// the YCSB ζ(10⁶) sum and HD4995's 10⁶-inode namespace. The namespace
/// key (10⁶ files, 100 per directory, seed 0xd1f5) mirrors the one the
/// dfs scenario builds its profile and evaluation runs on.
pub fn setup() -> Roster {
    let roster = fleet_scenarios();
    std::hint::black_box(KeyDistribution::ycsb_default(1_000_000));
    std::hint::black_box(smartconf_dfs::Namespace::synthesize_shared(
        1_000_000, 100, 0xd1f5,
    ));
    roster
}

/// One pass through the real entry point.
pub fn run(roster: &Roster, inputs: &FleetInputs, executor: &FleetExecutor) -> FleetReport {
    run_fleet(roster, &inputs.seeds, &inputs.policies, executor)
}

/// Whether a policy is one of the SmartConf family (everything but the
/// static baselines).
pub fn is_smartconf(policy: &str) -> bool {
    !policy.starts_with("Static-")
}

/// `ShardReport` of a finished run, as `run_fleet` builds it.
fn shard_report(id: &str, item: &FleetWorkItem, run: &RunResult) -> ShardReport {
    ShardReport {
        scenario_id: id.to_string(),
        seed: item.seed,
        policy: item.policy.label(),
        resolved: true,
        constraint_ok: run.constraint_ok,
        crashed: run.crashed,
        tradeoff: run.tradeoff,
        tradeoff_name: run.tradeoff_name.clone(),
        channels: run
            .epochs
            .summaries()
            .map(|(name, s)| (name.to_string(), s))
            .collect(),
    }
}

/// One work item, traced: a profile-cache span (with a profiler span
/// inside on a miss) and one plant span around the `Scenario` call.
fn traced_shard(
    scenario: &(dyn Scenario + Send + Sync),
    item: &FleetWorkItem,
    slot: &OnceLock<Vec<ProfileSet>>,
    origin: Instant,
) -> (ShardReport, SpanBuf, Counters) {
    let mut buf = SpanBuf::new(origin);
    let mut c = Counters {
        items: 1,
        ..Counters::default()
    };
    let item_span = buf.open(LAYER_ITEM);
    let id = scenario.id();
    let plant = plant_layer(id);
    let run = if let Policy::Static(baseline) = item.policy {
        // The workloads' baselines are the buggy and patched defaults,
        // which every roster scenario defines.
        let setting = baseline
            .fixed_setting()
            .or_else(|| scenario.static_setting(baseline))
            .unwrap_or_else(|| panic!("{id} defines no {} setting", baseline.label()));
        let span = buf.open(plant);
        let run = scenario.run_static(setting, item.seed);
        buf.close(span);
        run
    } else {
        let lookup = buf.open(LAYER_PROFILECACHE);
        c.cache_lookups += 1;
        let mut missed = false;
        let profiles = slot.get_or_init(|| {
            missed = true;
            let span = buf.open(LAYER_PROFILER);
            let profiles = scenario.evaluation_profiles(item.seed);
            buf.close(span);
            profiles
        });
        if missed {
            c.profiler_runs += 1;
        } else {
            c.cache_hits += 1;
        }
        buf.close(lookup);
        let span = buf.open(plant);
        let run = match item.policy {
            Policy::Smart => scenario.run_smartconf_profiled(item.seed, profiles),
            Policy::Adaptive => scenario.run_adaptive_profiled(item.seed, profiles),
            Policy::Chaos(class) => scenario.run_chaos_profiled(item.seed, class, profiles),
            Policy::AdaptiveChaos(class) => {
                scenario.run_adaptive_chaos_profiled(item.seed, class, profiles)
            }
            Policy::Campaign(campaign) => {
                scenario.run_campaign_profiled(item.seed, campaign, profiles)
            }
            Policy::AdaptiveCampaign(campaign) => {
                scenario.run_adaptive_campaign_profiled(item.seed, campaign, profiles)
            }
            Policy::Static(_) => unreachable!("static policies take the branch above"),
        };
        buf.close(span);
        run
    };
    let report = shard_report(id, item, &run);
    buf.close(item_span);
    let plant_index = (plant - crate::trace::LAYER_PLANT0) as usize;
    for (_, s) in &report.channels {
        c.decisions += s.epochs;
        c.plant_epochs[plant_index] += s.epochs;
        c.faults_injected += s.faults_injected;
        c.guard_activations += s.guard_activations;
        c.fallback_epochs += s.fallback_epochs;
    }
    (report, buf, c)
}

/// The traced replica of [`run_fleet`]: same items, a per-(scenario,
/// seed) profile memo like `ProfileCache`, same report.
pub fn traced_run(
    roster: &Roster,
    inputs: &FleetInputs,
    executor: &FleetExecutor,
) -> (FleetReport, PassTrace, Counters) {
    let origin = Instant::now();
    let items = fleet_work_items(roster.len(), &inputs.seeds, &inputs.policies);
    let slots: Vec<OnceLock<Vec<ProfileSet>>> = (0..roster.len() * inputs.seeds.len())
        .map(|_| OnceLock::new())
        .collect();
    let started = Instant::now();
    let outputs = executor.execute(&items, |_, item| {
        let seed_index = inputs
            .seeds
            .iter()
            .position(|&s| s == item.seed)
            .expect("work items only carry input seeds");
        let slot = &slots[item.scenario * inputs.seeds.len() + seed_index];
        traced_shard(roster[item.scenario].as_ref(), item, slot, origin)
    });
    let execute_s = started.elapsed().as_secs_f64();

    let mut main = SpanBuf::new(origin);
    let merge = main.open(LAYER_MERGE);
    let mut counters = Counters::default();
    let mut shards = Vec::with_capacity(outputs.len());
    let mut item_bufs = Vec::with_capacity(outputs.len());
    for (shard, buf, c) in outputs {
        counters.add(&c);
        shards.push(shard);
        item_bufs.push(buf);
    }
    let report = FleetReport {
        shards,
        workers: executor.threads(),
    };
    main.close(merge);
    let trace = PassTrace {
        items: item_bufs,
        main,
        workers: executor.threads(),
        execute_s,
    };
    (report, trace, counters)
}

/// Control decisions of a report: `EpochSummary::epochs` over every
/// channel of every shard.
pub fn decisions(report: &FleetReport) -> u64 {
    report
        .shards
        .iter()
        .flat_map(|s| s.channels.iter())
        .map(|(_, c)| c.epochs)
        .sum()
}

/// SmartConf-family shards, and those that missed their constraint or
/// crashed, by name.
pub fn smartconf_outcomes(report: &FleetReport) -> (u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = Vec::new();
    for s in report.shards.iter().filter(|s| is_smartconf(&s.policy)) {
        attempted += 1;
        if !s.constraint_ok || s.crashed {
            failed.push(format!("{} seed={} {}", s.scenario_id, s.seed, s.policy));
        }
    }
    (attempted, failed)
}

/// Figure 5's verdict for a static baseline: whether the constraint
/// holds. The Buggy default fails in every case study; the Patch
/// default fails everywhere but HB2149. TWIN (the §6.5 twin queues,
/// outside Figure 5) holds under its patch default and fails under its
/// buggy one.
pub fn static_verdict(scenario: &str, policy: &str) -> Option<bool> {
    match policy {
        "Static-BuggyDefault" => Some(false),
        "Static-PatchDefault" => Some(matches!(scenario, "HB2149" | "TWIN")),
        _ => None,
    }
}

/// The workload's correctness checks; returns one line per failure.
pub fn check(inputs: &FleetInputs, report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    let expected = PLANT_IDS.len() * inputs.seeds.len() * inputs.policies.len();
    if report.shards.len() != expected {
        failures.push(format!(
            "{} shards, expected {expected}",
            report.shards.len()
        ));
    }
    for s in &report.shards {
        let name = format!("{} seed={} {}", s.scenario_id, s.seed, s.policy);
        if !s.resolved {
            failures.push(format!("{name}: unresolved"));
            continue;
        }
        match inputs.kind {
            Kind::Chaos => {
                if s.crashed {
                    failures.push(format!("{name}: crashed"));
                }
            }
            Kind::Fleet => {
                if let Some(ok) = static_verdict(&s.scenario_id, &s.policy) {
                    if s.constraint_ok != ok {
                        failures.push(format!(
                            "{name}: constraint_ok={} but Figure 5 says {ok}",
                            s.constraint_ok
                        ));
                    }
                } else if !s.constraint_ok || s.crashed {
                    failures.push(format!(
                        "{name}: constraint_ok={} crashed={}",
                        s.constraint_ok, s.crashed
                    ));
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_seeds_are_distinct_pool_members_and_repeat() {
        for seed in [0u64, 1, 7, u64::MAX] {
            let a = fleet_seeds(seed);
            assert_eq!(a, fleet_seeds(seed));
            assert_eq!(a[..3], FLEET_PINNED_SEEDS);
            assert!(!FLEET_PINNED_SEEDS.contains(&a[3]));
            assert!(a.iter().all(|s| SEED_POOL.contains(s)));
        }
        assert_ne!(fleet_seeds(1), fleet_seeds(2));
        assert_eq!(FleetInputs::for_seed(Kind::Chaos, 5).seeds, CHAOS_SEEDS);
    }

    #[test]
    fn chaos_roster_is_the_two_sweeps_without_duplicates() {
        let policies = chaos_fleet_policies();
        assert_eq!(policies.len(), 24);
        let labels: Vec<String> = policies.iter().map(Policy::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }
}
