//! The `soak` workload: `soak_run` over the seven-scenario roster × the
//! clean and four fault arms × N tenants on the cohort calendar, plus a
//! traced replica of it that times each layer from outside.
//!
//! The replica re-drives every executor chunk through the same public
//! calls `soak_run` makes (`TrafficShape`, `TenantFaultWindows`,
//! `SoakTemplate`, `QuantileSketch`, `run_cohort_calendar`) and must
//! render a byte-identical [`SoakReport`]. Within one (chunk, cohort
//! tick) it runs each layer as one batch over the cohort's resident
//! tenants, so a span covers a batch, never a single sense.

use std::sync::Arc;
use std::time::Instant;

use smartconf_bench::fleet::fleet_scenarios;
use smartconf_bench::soak::{arm_label, SoakConfig, SoakScenario};
use smartconf_harness::{
    CohortReport, ProfileCache, ScenarioSoakReport, SlabGuardPolicy, SoakReport, SoakSlab,
    SoakTemplate,
};
use smartconf_metrics::QuantileSketch;
use smartconf_runtime::{
    cohort_epochs, run_cohort_calendar, shard_seed, ActiveFaults, FleetExecutor,
    TenantFaultWindows, CHAOS_STREAM,
};
use smartconf_workload::{KeyDistribution, TrafficShape};

use crate::trace::{
    Counters, PassTrace, SpanBuf, LAYER_CALENDAR, LAYER_FAULT, LAYER_GUARD, LAYER_ITEM,
    LAYER_MERGE, LAYER_PROFILER, LAYER_SKETCH, LAYER_TEMPLATE, LAYER_TRAFFIC,
};

/// Tenants per scenario per arm in one pass. Two full executor chunks
/// of the standard 16 Ki, so every (scenario, arm) splits evenly.
pub const TENANTS: u64 = 32_768;

/// The soak's inputs for `seed`: the standard soak shape with the seed
/// driving traffic, churn, fault windows and profiling.
pub fn config(seed: u64, tenants: u64) -> SoakConfig {
    SoakConfig {
        seed,
        ..SoakConfig::standard(tenants)
    }
}

/// The traced set-up: `build_templates` re-driven with a profiler span
/// around each `ProfileCache` fill. Returns the templates and the
/// profiler counters.
pub fn traced_setup(
    config: &SoakConfig,
    origin: Instant,
) -> (Vec<SoakScenario>, Counters, SpanBuf) {
    let scenarios = fleet_scenarios();
    let cache = ProfileCache::new(scenarios.len(), &[config.seed]);
    let mut buf = SpanBuf::new(origin);
    let mut counters = Counters::default();
    let templates = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let start = Instant::now();
            let span = buf.open(LAYER_PROFILER);
            let profiles = cache.profiles(i, s.as_ref(), config.seed);
            buf.close(span);
            counters.profiler_runs += 1;
            counters.cache_lookups += 1;
            let hard = smartconf_bench::chaos::HARD_GOAL_SCENARIOS.contains(&s.id());
            let template =
                SoakTemplate::from_profile(s.id(), hard, &s.candidate_settings(), &profiles[0])
                    .unwrap_or_else(|e| panic!("{}: soak template: {e}", s.id()));
            SoakScenario {
                template: Arc::new(template),
                setup_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect();
    (templates, counters, buf)
}

/// One tenant of a chunk, as `soak_run` slabs it.
struct Tenant {
    id: u64,
    weight: f64,
    arrive_us: u64,
    depart_us: u64,
    policy: u32,
    slab: SoakSlab,
}

/// One (scenario, arm, cohort) partial accumulation.
struct CohortAccum {
    tenants: u64,
    violations: u64,
    sketch: QuantileSketch,
    reengage: QuantileSketch,
    burst: QuantileSketch,
    recovery: QuantileSketch,
    unrecovered: u64,
}

impl CohortAccum {
    fn new() -> CohortAccum {
        CohortAccum {
            tenants: 0,
            violations: 0,
            sketch: QuantileSketch::new(),
            reengage: QuantileSketch::new(),
            burst: QuantileSketch::new(),
            recovery: QuantileSketch::new(),
            unrecovered: 0,
        }
    }

    fn merge(&mut self, other: &CohortAccum) {
        self.tenants += other.tenants;
        self.violations += other.violations;
        self.sketch.merge(&other.sketch);
        self.reengage.merge(&other.reengage);
        self.burst.merge(&other.burst);
        self.recovery.merge(&other.recovery);
        self.unrecovered += other.unrecovered;
    }
}

/// Sketches merged by one [`CohortAccum::merge`].
const SKETCHES_PER_ACCUM: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct SoakItem {
    scenario: usize,
    arm: usize,
    start: u64,
    len: u64,
}

/// The work items `soak_run` builds, in its order.
fn items(config: &SoakConfig, n_scenarios: usize) -> Vec<SoakItem> {
    let n_arms = config.arms.len().max(1);
    let mut items = Vec::new();
    for scenario in 0..n_scenarios {
        for arm in 0..n_arms {
            let mut start = 0;
            while start < config.tenants {
                let len = config.chunk.min(config.tenants - start);
                items.push(SoakItem {
                    scenario,
                    arm,
                    start,
                    len,
                });
                start += len;
            }
        }
    }
    items
}

/// The fault-plane seed `soak_run` gives one (scenario, arm).
fn fault_seed(config: &SoakConfig, scenario: usize, arm: usize) -> u64 {
    shard_seed(
        shard_seed(config.seed, CHAOS_STREAM),
        (scenario as u64) << 3 | arm as u64,
    )
}

/// Per-tick work buffers, reused across ticks.
#[derive(Default)]
struct Scratch {
    active: Vec<usize>,
    jitter: Vec<f64>,
    measured: Vec<f64>,
    faults: Vec<ActiveFaults>,
    ages: Vec<u64>,
    load: Vec<f64>,
    outcomes: Vec<smartconf_harness::StepOutcome>,
}

/// One chunk, traced: `run_chunk` of `soak_run` with every layer run as
/// a batch per cohort tick.
fn traced_chunk(
    config: &SoakConfig,
    template: &SoakTemplate,
    item: &SoakItem,
    origin: Instant,
) -> (Vec<CohortAccum>, SpanBuf, Counters) {
    let mut buf = SpanBuf::new(origin);
    let mut c = Counters {
        items: 1,
        ..Counters::default()
    };
    let item_span = buf.open(LAYER_ITEM);
    let n_cohorts = config.periods_us.len();
    let scen_seed = shard_seed(config.seed, item.scenario as u64);
    let dist = KeyDistribution::ycsb_default(10_000);
    let traffic: &TrafficShape = &config.traffic;
    let arm = config.arms.get(item.arm).copied().flatten();
    let policy = config.guard.encode();
    let windows: Option<Vec<TenantFaultWindows>> = arm.map(|class| {
        (0..n_cohorts)
            .map(|co| {
                TenantFaultWindows::sized_for(
                    class,
                    fault_seed(config, item.scenario, item.arm),
                    cohort_epochs(config.periods_us[co], config.horizon_us),
                )
            })
            .collect()
    });

    let span = buf.open(LAYER_TRAFFIC);
    let mut slabs: Vec<Vec<Tenant>> = (0..n_cohorts).map(|_| Vec::new()).collect();
    for id in item.start..item.start + item.len {
        let cohort = (shard_seed(scen_seed, id) % n_cohorts as u64) as usize;
        let (arrive_us, depart_us) = traffic.churn_window(scen_seed, id, config.horizon_us);
        slabs[cohort].push(Tenant {
            id,
            weight: traffic.tenant_weight(scen_seed, id, &dist),
            arrive_us,
            depart_us,
            policy,
            slab: SoakSlab::new(template),
        });
    }
    c.traffic_calls += 2 * item.len;
    buf.close(span);

    let mut accums: Vec<CohortAccum> = (0..n_cohorts).map(|_| CohortAccum::new()).collect();
    for (cohort, slab) in slabs.iter().enumerate() {
        accums[cohort].tenants = slab.len() as u64;
    }

    let mut s = Scratch::default();
    let calendar = buf.open(LAYER_CALENDAR);
    c.ticks += run_cohort_calendar(
        &config.periods_us,
        config.horizon_us,
        |cohort, epoch, now| {
            let tenants = &mut slabs[cohort];
            let accum = &mut accums[cohort];
            // Slab visit: the calendar's own work.
            s.active.clear();
            s.active.extend(
                tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| now >= t.arrive_us && now < t.depart_us)
                    .map(|(k, _)| k),
            );
            let n = s.active.len() as u64;
            c.slab_visits += tenants.len() as u64;
            c.decisions += n;

            let span = buf.open(LAYER_TRAFFIC);
            let base_load = traffic.base_load(now);
            s.jitter.clear();
            s.jitter.extend(
                s.active
                    .iter()
                    .map(|&k| traffic.sense_jitter(scen_seed, tenants[k].id, epoch)),
            );
            c.traffic_calls += 1 + n;
            buf.close(span);

            let Some(w) = windows.as_ref().map(|ws| &ws[cohort]) else {
                // Clean arm: the bare law.
                let span = buf.open(LAYER_TEMPLATE);
                s.measured.clear();
                for (&k, &jitter) in s.active.iter().zip(&s.jitter) {
                    let t = &mut tenants[k];
                    let measured = template.measured(t.slab.setting, base_load * t.weight, jitter);
                    t.slab.setting = template.next_setting(t.slab.setting, measured);
                    s.measured.push(measured);
                }
                c.template_steps += n;
                buf.close(span);

                let span = buf.open(LAYER_SKETCH);
                for &measured in &s.measured {
                    accum.sketch.record(template.overshoot(measured));
                    if measured > template.target {
                        accum.violations += 1;
                    }
                }
                c.sketch_records += n;
                buf.close(span);
                return;
            };

            let span = buf.open(LAYER_FAULT);
            s.faults.clear();
            s.faults
                .extend(s.active.iter().map(|&k| w.at(tenants[k].id, epoch)));
            c.fault_calls += n;
            c.fault_active += s.faults.iter().filter(|f| !f.is_clean()).count() as u64;
            buf.close(span);

            let span = buf.open(LAYER_GUARD);
            s.ages.clear();
            for (&k, f) in s.active.iter().zip(&s.faults) {
                s.ages
                    .push(tenants[k].slab.begin_epoch(template, f.restart));
            }
            buf.close(span);

            let span = buf.open(LAYER_TRAFFIC);
            s.load.clear();
            for (&k, &age) in s.active.iter().zip(&s.ages) {
                s.load
                    .push(base_load * tenants[k].weight * traffic.restart_load(age));
            }
            c.traffic_calls += n;
            buf.close(span);

            let span = buf.open(LAYER_GUARD);
            s.outcomes.clear();
            for (((&k, f), &load), &jitter) in
                s.active.iter().zip(&s.faults).zip(&s.load).zip(&s.jitter)
            {
                let t = &mut tenants[k];
                s.outcomes.push(template.guarded_step(
                    SlabGuardPolicy::decode(t.policy),
                    &mut t.slab,
                    f,
                    load,
                    jitter,
                ));
            }
            c.guard_steps += n;
            buf.close(span);

            let span = buf.open(LAYER_SKETCH);
            for out in &s.outcomes {
                accum.sketch.record(template.overshoot(out.measured));
                c.sketch_records += 1;
                if out.violated {
                    accum.violations += 1;
                }
                if let Some(d) = out.reengaged_dwell {
                    accum.reengage.record(d);
                    c.sketch_records += 1;
                    c.reengages += 1;
                }
                if let Some(b) = out.burst_closed {
                    accum.burst.record(b);
                    c.sketch_records += 1;
                }
                if let Some(r) = out.recovered_after {
                    accum.recovery.record(r);
                    c.sketch_records += 1;
                    c.recoveries += 1;
                }
            }
            buf.close(span);
        },
    );
    buf.close(calendar);

    if windows.is_some() {
        let span = buf.open(LAYER_GUARD);
        for (cohort, slab) in slabs.iter().enumerate() {
            accums[cohort].unrecovered += slab
                .iter()
                .filter(|t| t.depart_us >= config.horizon_us && t.slab.is_unrecovered())
                .count() as u64;
        }
        buf.close(span);
    }
    buf.close(item_span);
    (accums, buf, c)
}

/// The traced replica of [`soak_run`]: same items, same merge order,
/// same report.
pub fn traced_run(
    config: &SoakConfig,
    scenarios: &[SoakScenario],
    executor: &FleetExecutor,
) -> (SoakReport, PassTrace, Counters) {
    let origin = Instant::now();
    let items = items(config, scenarios.len());
    let started = Instant::now();
    let outputs = executor.execute(&items, |_, item| {
        traced_chunk(config, &scenarios[item.scenario].template, item, origin)
    });
    let execute_s = started.elapsed().as_secs_f64();

    let mut main = SpanBuf::new(origin);
    let mut counters = Counters::default();
    let merge = main.open(LAYER_MERGE);
    let n_arms = config.arms.len().max(1);
    let n_cohorts = config.periods_us.len();
    let mut merged: Vec<Vec<CohortAccum>> = (0..scenarios.len() * n_arms)
        .map(|_| (0..n_cohorts).map(|_| CohortAccum::new()).collect())
        .collect();
    let mut item_bufs = Vec::with_capacity(outputs.len());
    for (item, (chunk, buf, c)) in items.iter().zip(outputs) {
        counters.add(&c);
        item_bufs.push(buf);
        let span = main.open(LAYER_SKETCH);
        for (cohort, accum) in chunk.iter().enumerate() {
            merged[item.scenario * n_arms + item.arm][cohort].merge(accum);
            counters.sketch_merges += SKETCHES_PER_ACCUM;
        }
        main.close(span);
    }

    let mut reports = Vec::with_capacity(scenarios.len() * n_arms);
    for (si, s) in scenarios.iter().enumerate() {
        let t = &s.template;
        for (ai, cohorts) in merged[si * n_arms..(si + 1) * n_arms].iter().enumerate() {
            reports.push(ScenarioSoakReport {
                scenario: t.scenario.clone(),
                arm: arm_label(config.arms.get(ai).copied().flatten()).to_string(),
                hard: t.hard,
                delta: t.delta(),
                tenants: config.tenants,
                cohorts: cohorts
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        CohortReport::from_sketches(
                            config.periods_us[i],
                            a.tenants,
                            a.violations,
                            &a.sketch,
                            &a.reengage,
                            &a.burst,
                            &a.recovery,
                            a.unrecovered,
                        )
                    })
                    .collect(),
            });
        }
    }
    main.close(merge);
    let report = SoakReport {
        seed: config.seed,
        tenants_per_scenario: config.tenants,
        horizon_us: config.horizon_us,
        scenarios: reports,
    };
    let trace = PassTrace {
        items: item_bufs,
        main,
        workers: executor.threads(),
        execute_s,
    };
    (report, trace, counters)
}

/// The sense count the config implies, computed from each tenant's
/// cohort and churn window alone: ticks at `k·p` for `k ≥ 1`, strictly
/// before the horizon, inside `[arrive, depart)`.
pub fn expected_senses(config: &SoakConfig, n_scenarios: usize) -> u64 {
    let n_cohorts = config.periods_us.len() as u64;
    let n_arms = config.arms.len().max(1) as u64;
    let mut total = 0;
    for scenario in 0..n_scenarios as u64 {
        let scen_seed = shard_seed(config.seed, scenario);
        for id in 0..config.tenants {
            let p = config.periods_us[(shard_seed(scen_seed, id) % n_cohorts) as usize];
            let (arrive, depart) = config
                .traffic
                .churn_window(scen_seed, id, config.horizon_us);
            let last = cohort_epochs(p, config.horizon_us);
            // k·p ≥ arrive  ⇔  k ≥ ⌈arrive / p⌉;  k·p < depart  ⇔  k ≤ ⌊(depart − 1) / p⌋.
            let lo = arrive.div_ceil(p).max(1);
            let hi = (depart.saturating_sub(1) / p).min(last);
            if hi >= lo {
                total += hi - lo + 1;
            }
        }
    }
    total * n_arms
}

/// Hard-goal senses and those that landed over the real target.
pub fn hard_senses(report: &SoakReport) -> (u64, u64) {
    report
        .scenarios
        .iter()
        .filter(|s| s.hard)
        .flat_map(|s| s.cohorts.iter())
        .fold((0, 0), |(n, v), c| (n + c.senses, v + c.violations))
}

/// The worst hard-cohort p99 overshoot ratio across arms.
pub fn overshoot_p99(report: &SoakReport) -> f64 {
    report
        .scenarios
        .iter()
        .filter(|s| s.hard)
        .flat_map(|s| s.cohorts.iter())
        .map(|c| c.p99)
        .fold(0.0, f64::max)
}

/// The soak's correctness checks; returns one line per failure.
pub fn check(config: &SoakConfig, report: &SoakReport, n_scenarios: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let breaches = report.hard_gate_breaches();
    if !breaches.is_empty() {
        failures.push(format!("hard-cohort p99 over delta: {breaches:?}"));
    }
    let unrecovered = report.unrecovered_hard_tenants();
    if unrecovered != 0 {
        failures.push(format!("{unrecovered} hard-goal tenants ended unrecovered"));
    }
    let expected = expected_senses(config, n_scenarios);
    if report.total_senses() != expected {
        failures.push(format!(
            "sense total {} differs from the {expected} the config implies",
            report.total_senses()
        ));
    }
    failures
}
