//! `smartbench` — the repository's benchmark.
//!
//! Usage: `smartbench --workload <soak|fleet|chaos> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Each workload is a batch run with a fixed input made from `--seed`,
//! executed on a `FleetExecutor` of at most two workers. After set-up,
//! the benchmark repeats whole passes of the workload until `--seconds`
//! have gone by (at least [`MIN_PASSES`]), checks the outputs, and
//! prints human-readable lines followed by one JSON line.
//!
//! * `--trace 0` reports the end-to-end metrics: `decisions_per_s`
//!   (median over passes), `setup_s` (median of one in-process and
//!   [`SETUP_PROBES`] child-process cold set-ups spread across the
//!   run), `peak_rss_mb` and `goal_met_share`.
//! * `--trace 1` alternates untraced passes with passes of a traced
//!   replica that re-drives the same calls with spans around each
//!   layer, requires the replica's report render to equal the untraced
//!   one byte for byte, and reports the per-layer metrics (medians over
//!   traced passes). The spans of the last traced pass are written to
//!   `smartbench/traces/`.

mod fleet;
mod host;
mod soak;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use smartconf_bench::soak::{build_templates, soak_run, SoakConfig, SoakScenario};
use smartconf_runtime::FleetExecutor;

use fleet::{FleetInputs, Kind, Roster};
use trace::{median, Counters, LayerTimes, PassTrace, SpanBuf, LAYER_NAMES, LAYER_RENDER};

const USAGE: &str =
    "usage: smartbench --workload <soak|fleet|chaos> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Child processes that each measure one cold set-up.
const SETUP_PROBES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Soak,
    Fleet,
    Chaos,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "soak" => Ok(Workload::Soak),
            "fleet" => Ok(Workload::Fleet),
            "chaos" => Ok(Workload::Chaos),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Soak => "soak",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: measure one cold set-up and print its seconds.
    setup_probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_probe = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// A workload after set-up, ready for passes.
enum Prepared {
    Soak {
        config: SoakConfig,
        templates: Vec<SoakScenario>,
    },
    Fleet {
        roster: Roster,
        inputs: FleetInputs,
    },
}

/// What one pass produced, and what its outputs say.
struct Pass {
    wall_s: f64,
    render: String,
    decisions: u64,
    items: u64,
    /// Goal-carrying operations and the names (or count) of those that
    /// missed: hard-goal senses for `soak`, SmartConf-family shards for
    /// `fleet` and `chaos`.
    goal_attempted: u64,
    goal_failed: u64,
    goal_failing: Vec<String>,
    overshoot_p99: Option<f64>,
    /// Correctness failures (empty when the outputs are right).
    failures: Vec<String>,
}

impl Prepared {
    fn setup(workload: Workload, seed: u64) -> Prepared {
        match workload {
            Workload::Soak => {
                let config = soak::config(seed, soak::TENANTS);
                let templates = build_templates(config.seed);
                Prepared::Soak { config, templates }
            }
            Workload::Fleet | Workload::Chaos => {
                let kind = if workload == Workload::Fleet {
                    Kind::Fleet
                } else {
                    Kind::Chaos
                };
                Prepared::Fleet {
                    roster: fleet::setup(),
                    inputs: FleetInputs::for_seed(kind, seed),
                }
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Prepared::Soak { config, templates } => format!(
                "soak: {} scenarios x {} arms x {} tenants, {} cohorts over {} h, chunks of {}",
                templates.len(),
                config.arms.len(),
                config.tenants,
                config.periods_us.len(),
                config.horizon_us / 3_600_000_000,
                config.chunk
            ),
            Prepared::Fleet { roster, inputs } => format!(
                "{}: {} scenarios x seeds {:?} x {} policies",
                if inputs.kind == Kind::Fleet {
                    "fleet"
                } else {
                    "chaos"
                },
                roster.len(),
                inputs.seeds,
                inputs.policies.len()
            ),
        }
    }

    /// Timed untraced pass through the real entry point.
    fn pass(&self, executor: &FleetExecutor) -> Pass {
        match self {
            Prepared::Soak { config, templates } => {
                let start = Instant::now();
                let report = soak_run(config, templates, executor);
                let wall_s = start.elapsed().as_secs_f64();
                soak_pass(config, templates.len(), &report, wall_s, report.render())
            }
            Prepared::Fleet { inputs, roster } => {
                let start = Instant::now();
                let report = fleet::run(roster, inputs, executor);
                let wall_s = start.elapsed().as_secs_f64();
                fleet_pass(inputs, &report, wall_s, report.render())
            }
        }
    }

    /// Timed traced pass: the replica with spans, then the render in a
    /// span of its own on the main thread.
    fn traced_pass(&self, executor: &FleetExecutor) -> (Pass, PassTrace, Counters) {
        let start = Instant::now();
        match self {
            Prepared::Soak { config, templates } => {
                let (report, mut trace, counters) = soak::traced_run(config, templates, executor);
                let wall_s = start.elapsed().as_secs_f64();
                let span = trace.main.open(LAYER_RENDER);
                let render = report.render();
                trace.main.close(span);
                let pass = soak_pass(config, templates.len(), &report, wall_s, render);
                (pass, trace, counters)
            }
            Prepared::Fleet { roster, inputs } => {
                let (report, mut trace, counters) = fleet::traced_run(roster, inputs, executor);
                let wall_s = start.elapsed().as_secs_f64();
                let span = trace.main.open(LAYER_RENDER);
                let render = report.render();
                trace.main.close(span);
                (fleet_pass(inputs, &report, wall_s, render), trace, counters)
            }
        }
    }
}

fn soak_pass(
    config: &SoakConfig,
    n_scenarios: usize,
    report: &smartconf_harness::SoakReport,
    wall_s: f64,
    render: String,
) -> Pass {
    let (hard, over) = soak::hard_senses(report);
    Pass {
        wall_s,
        render,
        decisions: report.total_senses(),
        items: soak_items(config, n_scenarios),
        goal_attempted: hard,
        goal_failed: over,
        goal_failing: Vec::new(),
        overshoot_p99: Some(soak::overshoot_p99(report)),
        failures: soak::check(config, report, n_scenarios),
    }
}

fn soak_items(config: &SoakConfig, n_scenarios: usize) -> u64 {
    (n_scenarios * config.arms.len().max(1)) as u64 * config.tenants.div_ceil(config.chunk)
}

fn fleet_pass(
    inputs: &FleetInputs,
    report: &smartconf_harness::FleetReport,
    wall_s: f64,
    render: String,
) -> Pass {
    let (attempted, failing) = fleet::smartconf_outcomes(report);
    Pass {
        wall_s,
        render,
        decisions: fleet::decisions(report),
        items: report.shards.len() as u64,
        goal_attempted: attempted,
        goal_failed: failing.len() as u64,
        goal_failing: failing,
        overshoot_p99: None,
        failures: fleet::check(inputs, report),
    }
}

impl Pass {
    fn rate(&self) -> f64 {
        self.decisions as f64 / self.wall_s
    }

    fn failed_share(&self) -> f64 {
        self.goal_failed as f64 / self.goal_attempted.max(1) as f64
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The run's outcome, printed as the final JSON line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set-up time of one cold process: a child running `--setup-probe`.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("running the set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("set-up probe printed {stdout:?}"))
}

fn print_header(args: &Args, prepared: &Prepared, workers: usize, calibration: f64) {
    println!(
        "smartbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host: nproc={} workers={workers} calibration={calibration:.3} Mop/s (SplitMix64 draw + QuantileSketch::record)",
        host::nproc()
    );
    println!("input: {}", prepared.describe());
}

/// Prints the goal outcome lines shared by both modes.
fn print_goal(pass: &Pass) {
    println!(
        "failed_share       {:.6} ratio ({} of {} {})",
        pass.failed_share(),
        pass.goal_failed,
        pass.goal_attempted,
        if pass.overshoot_p99.is_some() {
            "hard-goal senses over the real target"
        } else {
            "SmartConf-family shards missed the constraint or crashed"
        }
    );
    for name in &pass.goal_failing {
        println!("  failing shard: {name}");
    }
    match pass.overshoot_p99 {
        Some(o) => println!("overshoot_p99      {o:.6} ratio (worst hard-cohort p99 across arms)"),
        None => println!("overshoot_p99      n/a (soak only)"),
    }
}

/// `--trace 0`: end-to-end metrics.
fn measured(args: &Args) -> Result<Outcome, String> {
    let workers = host::workers();
    let calibration = host::calibration_mops();
    let start = Instant::now();
    let prepared = Prepared::setup(args.workload, args.seed);
    let mut setups = vec![start.elapsed().as_secs_f64()];
    print_header(args, &prepared, workers, calibration);

    // Cold set-ups in child processes, spread across the measuring
    // window so a host that speeds up or slows down mid-run affects
    // them as it affects the passes.
    let probes_due = |elapsed: f64| {
        let share = if args.seconds > 0.0 {
            elapsed / args.seconds
        } else {
            1.0
        };
        ((SETUP_PROBES as f64 * share) as usize).min(SETUP_PROBES)
    };
    let executor = FleetExecutor::new(workers);
    let measuring = Instant::now();
    let first = prepared.pass(&executor);
    let mut rates = vec![first.rate()];
    let mut failures = first.failures.clone();
    let mut attempted = first.items;
    while rates.len() < MIN_PASSES || measuring.elapsed().as_secs_f64() < args.seconds {
        let pass = prepared.pass(&executor);
        if pass.render != first.render {
            failures.push(format!(
                "pass {} rendered a different report",
                rates.len() + 1
            ));
        }
        rates.push(pass.rate());
        attempted += pass.items;
        while setups.len() - 1 < probes_due(measuring.elapsed().as_secs_f64()) {
            setups.push(probe_setup(args)?);
        }
    }
    while setups.len() - 1 < SETUP_PROBES {
        setups.push(probe_setup(args)?);
    }
    let peak = host::peak_rss_mb()?;
    let rate = median(&rates);
    let setup = median(&setups);
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "decisions_per_s    {rate:.1} 1/s (median of {} passes, {} decisions each; min {:.1} max {:.1})",
        rates.len(),
        first.decisions,
        sorted[0],
        sorted[sorted.len() - 1]
    );
    println!(
        "setup_s            {setup:.6} s (median of {} cold set-ups: {:?})",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!("peak_rss_mb        {peak:.3} MB (VmHWM)");
    println!("goal_met_share     {:.6} ratio", 1.0 - first.failed_share());
    print_goal(&first);
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics: end_to_end_metrics(rate, setup, peak, 1.0 - first.failed_share()),
    })
}

/// Median of one per-pass figure.
fn median_of(times: &[LayerTimes], f: impl Fn(&LayerTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// `--trace 1`: per-layer metrics from the traced replica.
fn traced(args: &Args) -> Result<Outcome, String> {
    let workers = host::workers();
    let calibration = host::calibration_mops();
    let origin = Instant::now();
    // Set-up, with the soak's profiling traced.
    let (prepared, setup_counters, setup_buf) = match args.workload {
        Workload::Soak => {
            let config = soak::config(args.seed, soak::TENANTS);
            let (templates, counters, buf) = soak::traced_setup(&config, origin);
            (Prepared::Soak { config, templates }, counters, buf)
        }
        w => (
            Prepared::setup(w, args.seed),
            Counters::default(),
            SpanBuf::new(origin),
        ),
    };
    print_header(args, &prepared, workers, calibration);
    let mut setup_busy = [0u64; LAYER_NAMES.len()];
    setup_buf.add_self_times(&mut setup_busy);

    let executor = FleetExecutor::new(workers);
    let measuring = Instant::now();
    let reference = prepared.pass(&executor);
    let mut failures = reference.failures.clone();
    let mut attempted = reference.items;
    let mut untraced_rates = vec![reference.rate()];
    let mut traced_rates = Vec::new();
    let mut times = Vec::new();
    let mut counters: Option<Counters> = None;
    let mut last_trace = None;
    while traced_rates.len() < MIN_PASSES || measuring.elapsed().as_secs_f64() < args.seconds {
        let (pass, trace, c) = prepared.traced_pass(&executor);
        if pass.render != reference.render {
            failures.push(format!(
                "traced pass {} render differs from the untraced render",
                traced_rates.len() + 1
            ));
        }
        if c.decisions != reference.decisions {
            failures.push(format!(
                "traced pass counted {} decisions, the report says {}",
                c.decisions, reference.decisions
            ));
        }
        match &counters {
            None => counters = Some(c),
            Some(first) if *first != c => {
                failures.push("work counters differ between traced passes".to_string())
            }
            Some(_) => {}
        }
        traced_rates.push(pass.rate());
        times.push(trace.layer_times());
        last_trace = Some(trace);
        attempted += pass.items;

        let pass = prepared.pass(&executor);
        if pass.render != reference.render {
            failures.push("untraced passes rendered different reports".to_string());
        }
        untraced_rates.push(pass.rate());
        attempted += pass.items;
    }
    let mut c = counters.expect("at least one traced pass ran");
    c.add(&setup_counters);
    let traced_rate = median(&traced_rates);
    let untraced_rate = median(&untraced_rates);
    let overhead = traced_rate / untraced_rate;

    if let Some(trace) = &last_trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.tsv", args.workload.name(), args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace.to_tsv()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans of the last traced pass: {path}");
    }

    let setup_profiler_s = setup_busy[trace::LAYER_PROFILER as usize] as f64 / 1e9;
    let metrics = layer_metrics(
        &c,
        &times,
        setup_profiler_s,
        traced_rate,
        overhead,
        calibration,
    );

    println!(
        "traced decisions_per_s {traced_rate:.1} vs untraced {untraced_rate:.1} 1/s: overhead ratio {overhead:.4} ({} traced, {} untraced passes)",
        traced_rates.len(),
        untraced_rates.len()
    );
    print_goal(&reference);
    let accounted: f64 = (0..LAYER_NAMES.len())
        .map(|l| median_of(&times, |t| t.busy_s[l]))
        .sum::<f64>()
        + median_of(&times, |t| t.idle_s + t.unattributed_s);
    println!(
        "layers + idle + unattributed = {accounted:.4} s of {:.4} thread-s per traced pass",
        median_of(&times, |t| t.thread_s)
    );
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len() as u64,
        metrics,
    })
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Times are medians over traced passes; counters are per pass, plus
/// the set-up's profiler runs.
fn layer_metrics(
    c: &Counters,
    times: &[LayerTimes],
    setup_profiler_s: f64,
    traced_rate: f64,
    overhead: f64,
    calibration: f64,
) -> Vec<Metric> {
    let busy = |layer: u8| median_of(times, |t| t.busy_s[layer as usize]);
    // Layers that only some workloads exercise report their self time as
    // a share of the pass's thread time: exact zeros where a layer does
    // no work, and a figure that a uniformly slower host leaves alone.
    let busy_share = |layer: u8| median_of(times, |t| t.busy_s[layer as usize] / t.thread_s);
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let count = |n: u64| n as f64;
    let total_epochs: u64 = c.plant_epochs.iter().sum();
    let mut metrics = vec![
        metric("workload.traffic.calls", count(c.traffic_calls), "count"),
        metric(
            "workload.traffic.busy_share",
            busy_share(trace::LAYER_TRAFFIC),
            "ratio",
        ),
        metric("runtime.fault.calls", count(c.fault_calls), "count"),
        metric(
            "runtime.fault.busy_share",
            busy_share(trace::LAYER_FAULT),
            "ratio",
        ),
        metric(
            "runtime.fault.active_share",
            share(c.fault_active, c.fault_calls),
            "ratio",
        ),
        metric("harness.template.steps", count(c.template_steps), "count"),
        metric(
            "harness.template.busy_share",
            busy_share(trace::LAYER_TEMPLATE),
            "ratio",
        ),
        metric("harness.guard.steps", count(c.guard_steps), "count"),
        metric(
            "harness.guard.busy_share",
            busy_share(trace::LAYER_GUARD),
            "ratio",
        ),
        metric("harness.guard.reengages", count(c.reengages), "count"),
        metric("harness.guard.recoveries", count(c.recoveries), "count"),
        metric("metrics.sketch.records", count(c.sketch_records), "count"),
        metric("metrics.sketch.merges", count(c.sketch_merges), "count"),
        metric(
            "metrics.sketch.busy_share",
            busy_share(trace::LAYER_SKETCH),
            "ratio",
        ),
        metric("simkernel.calendar.ticks", count(c.ticks), "count"),
        metric(
            "simkernel.calendar.busy_share",
            busy_share(trace::LAYER_CALENDAR),
            "ratio",
        ),
        metric(
            "simkernel.calendar.active_share",
            if c.slab_visits == 0 {
                0.0
            } else {
                share(c.decisions, c.slab_visits)
            },
            "ratio",
        ),
        metric("runtime.executor.items", count(c.items), "count"),
        metric(
            "runtime.executor.idle_s",
            median_of(times, |t| t.idle_s),
            "s",
        ),
        metric("runtime.executor.merge_s", busy(trace::LAYER_MERGE), "s"),
        metric(
            "runtime.executor.item_ms.p50",
            median_of(times, |t| t.item_ms_p50),
            "ms",
        ),
        metric(
            "runtime.executor.item_ms.p95",
            median_of(times, |t| t.item_ms_p95),
            "ms",
        ),
        metric("runtime.profiler.runs", count(c.profiler_runs), "count"),
        metric(
            "runtime.profiler.busy_s",
            setup_profiler_s + busy(trace::LAYER_PROFILER),
            "s",
        ),
        metric(
            "harness.profilecache.hit_share",
            share(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
    ];
    for (i, epochs) in c.plant_epochs.iter().enumerate() {
        let layer = trace::LAYER_PLANT0 + i as u8;
        let name = LAYER_NAMES[layer as usize];
        metrics.push(metric(
            format!("{name}.busy_share"),
            busy_share(layer),
            "ratio",
        ));
        metrics.push(metric(format!("{name}.epochs"), count(*epochs), "count"));
    }
    metrics.extend([
        metric("runtime.fault.injected", count(c.faults_injected), "count"),
        metric(
            "runtime.guard.activations",
            count(c.guard_activations),
            "count",
        ),
        metric(
            "runtime.guard.fallback_share",
            share(c.fallback_epochs, total_epochs),
            "ratio",
        ),
        metric("harness.render.busy_s", busy(LAYER_RENDER), "s"),
        metric(
            "unattributed.busy_s",
            median_of(times, |t| t.unattributed_s),
            "s",
        ),
        metric("run.thread_s", median_of(times, |t| t.thread_s), "s"),
        metric("run.decisions", count(c.decisions), "count"),
        metric("trace.decisions_per_s", traced_rate, "1/s"),
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("host.nproc", count(host::nproc() as u64), "count"),
        metric("host.calibration_mops", calibration, "Mop/s"),
    ]);
    metrics
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
fn end_to_end_metrics(rate: f64, setup: f64, peak_rss: f64, goal_met: f64) -> Vec<Metric> {
    vec![
        metric("decisions_per_s", rate, "1/s"),
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric("goal_met_share", goal_met, "ratio"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smartbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let start = Instant::now();
        let prepared = Prepared::setup(args.workload, args.seed);
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&prepared);
        println!("{secs}");
        return ExitCode::SUCCESS;
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        measured(&args)
    };
    match outcome {
        Ok(outcome) => {
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("smartbench: metric {} is not a finite number", m.name);
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("smartbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartconf_harness::{Baseline, Campaign, FaultClass, Policy};

    fn tiny_soak(seed: u64) -> (SoakConfig, Vec<SoakScenario>) {
        let config = SoakConfig {
            chunk: 16,
            ..soak::config(seed, 48)
        };
        let templates = build_templates(config.seed);
        (config, templates)
    }

    /// One seed of the workload's inputs (the drawn one for `fleet`).
    fn tiny_fleet(kind: Kind, seed: u64, policies: Vec<Policy>) -> FleetInputs {
        let mut inputs = FleetInputs::for_seed(kind, seed);
        inputs.seeds = vec![*inputs.seeds.last().expect("at least one seed")];
        inputs.policies = policies;
        inputs
    }

    #[test]
    fn traced_soak_renders_like_soak_run() {
        let (config, templates) = tiny_soak(7);
        let executor = FleetExecutor::new(2);
        let report = soak_run(&config, &templates, &executor);
        let (traced, trace, counters) = soak::traced_run(&config, &templates, &executor);
        assert_eq!(traced.render(), report.render());
        assert_eq!(counters.decisions, report.total_senses());
        assert_eq!(counters.items, trace.items.len() as u64);
        assert!(soak::check(&config, &report, templates.len()).is_empty());
        let (traced_templates, setup, _) = soak::traced_setup(&config, Instant::now());
        assert_eq!(setup.profiler_runs, templates.len() as u64);
        for (a, b) in traced_templates.iter().zip(&templates) {
            assert_eq!(a.template, b.template);
        }
    }

    #[test]
    fn traced_fleet_and_chaos_render_like_run_fleet() {
        let roster = fleet::setup();
        let executor = FleetExecutor::new(2);
        for inputs in [
            tiny_fleet(
                Kind::Fleet,
                3,
                vec![
                    Policy::Smart,
                    Policy::Static(Baseline::BuggyDefault),
                    Policy::Adaptive,
                ],
            ),
            tiny_fleet(
                Kind::Chaos,
                3,
                vec![
                    Policy::Chaos(FaultClass::SensorDropout),
                    Policy::AdaptiveCampaign(Campaign::BurstEverything),
                ],
            ),
        ] {
            let report = fleet::run(&roster, &inputs, &executor);
            let (traced, _, counters) = fleet::traced_run(&roster, &inputs, &executor);
            assert_eq!(traced.render(), report.render(), "{:?}", inputs.kind);
            assert_eq!(counters.decisions, fleet::decisions(&report));
            assert!(
                fleet::check(&inputs, &report).is_empty(),
                "{:?}",
                inputs.kind
            );
        }
    }

    #[test]
    fn counters_repeat_for_a_seed_and_move_with_it() {
        let executor = FleetExecutor::new(2);
        let soak_counters = |seed| {
            let (config, templates) = tiny_soak(seed);
            soak::traced_run(&config, &templates, &executor).2
        };
        assert_eq!(soak_counters(1), soak_counters(1));
        assert_ne!(soak_counters(1), soak_counters(2));

        let roster = fleet::setup();
        let fleet_counters = |seed| {
            let inputs = tiny_fleet(Kind::Fleet, seed, vec![Policy::Smart]);
            fleet::traced_run(&roster, &inputs, &executor).2
        };
        assert_eq!(fleet_counters(1), fleet_counters(1));
        assert_ne!(fleet_counters(1), fleet_counters(2));
    }

    /// Names listed under `section` in BENCHMARK.json.
    fn listed_names(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<String> = end_to_end_metrics(1.0, 1.0, 1.0, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(e2e, listed_names("end_to_end"));
        let times = [LayerTimes {
            busy_s: vec![0.0; LAYER_NAMES.len()],
            ..LayerTimes::default()
        }];
        let layers: Vec<String> = layer_metrics(&Counters::default(), &times, 0.0, 1.0, 1.0, 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(layers, listed_names("per_layer"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload chaos --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(args.workload, Workload::Chaos);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        for bad in [
            "--workload nope --seed 1",
            "--workload soak",
            "--workload soak --seed x",
            "--workload soak --seed 1 --trace 2",
            "--workload soak --seed 1 --seconds -1",
            "--workload soak --seed 1 --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
