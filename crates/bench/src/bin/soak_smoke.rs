//! Soak smoke check: runs `--tenants` lightweight tenant plants per
//! scenario per arm (the clean control arm plus one arm per soak fault
//! class) through 24 simulated hours of diurnal + flash-crowd + churn
//! traffic at 1 worker thread and again at N (see
//! [`smartconf_bench::soak`]), cross-checks the distilled-template tails
//! against full `ControlPlane` plants, and writes `BENCH_soak.json`.
//!
//! Usage: `soak_smoke [--tenants N] [--threads T] [--real-tenants R]
//! [--out PATH] [--check BASELINE]`
//!
//! * `--tenants N` — tenants per scenario per arm; default 100 000.
//! * `--threads T` — parallel phase's worker count; default 4.
//! * `--real-tenants R` — full `ControlPlane` plants per scenario for
//!   the cross-check arm; default 64, `0` disables the arm.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_soak.json`.
//! * `--check BASELINE` — also gate cohort p99/p999, recovery tails,
//!   and tenants/sec against a committed baseline ([`check_soak`]).
//!
//! Exits non-zero if the serial and parallel reports differ, any hard
//! cohort's p99 overshoot exceeds its Δ budget, any hard-goal tenant
//! ends the run unrecovered, the cross-check bracket fails, or the
//! baseline check fails.
//!
//! [`check_soak`]: smartconf_bench::soak::check_soak

use std::time::Instant;

use smartconf_bench::artifact::{read_artifact, two_phase, write_artifact, Failures, Flags};
use smartconf_bench::soak::{
    build_templates, check_soak, cross_check_failures, cross_check_run, soak_json, soak_run,
    SoakConfig,
};
use smartconf_runtime::FleetExecutor;

fn main() {
    let flags = Flags::parse(&[
        "--tenants",
        "--threads",
        "--real-tenants",
        "--out",
        "--check",
    ]);
    let tenants: u64 = flags.get("--tenants", 100_000);
    let threads: usize = flags.get("--threads", 4);
    let real_tenants: u64 = flags.get("--real-tenants", 64);
    let out_path = flags.get("--out", "BENCH_soak.json".to_string());

    let config = SoakConfig::standard(tenants);
    eprintln!(
        "soak smoke: {} tenants x 7 scenarios x {} arms, {} cohorts, {} h horizon",
        tenants,
        config.arms.len(),
        config.periods_us.len(),
        config.horizon_us / 3_600_000_000
    );

    let setup_start = Instant::now();
    let scenarios = build_templates(config.seed);
    eprintln!(
        "  templates: {} scenarios profiled once in {:.3} s (slowest {})",
        scenarios.len(),
        setup_start.elapsed().as_secs_f64(),
        scenarios
            .iter()
            .max_by(|a, b| a.setup_secs.total_cmp(&b.setup_secs))
            .map(|s| format!("{} {:.3} s", s.template.scenario, s.setup_secs))
            .unwrap_or_default()
    );

    let ((serial_report, parallel_report), phases) = two_phase("soak", threads, |n| {
        soak_run(&config, &scenarios, &FleetExecutor::new(n))
    });
    let total_tenants = tenants * scenarios.len() as u64 * config.arms.len() as u64;
    let serial_secs = phases[0].wall.as_secs_f64();
    eprintln!(
        "  serial rate: {:.0} tenants/s, {:.0} senses/s",
        total_tenants as f64 / serial_secs,
        serial_report.total_senses() as f64 / serial_secs
    );

    let mut serial_bytes = serial_report.render();
    let mut parallel_bytes = parallel_report.render();

    let cross = if real_tenants > 0 {
        let start = Instant::now();
        let [serial_cross, parallel_cross] = [1, threads]
            .map(|n| cross_check_run(&config, &scenarios, real_tenants, &FleetExecutor::new(n)));
        eprintln!(
            "  cross-check: {} real plants x {} scenarios in {:.3} s",
            real_tenants,
            scenarios.len(),
            start.elapsed().as_secs_f64()
        );
        // The cross-check renders join the byte-identity diff.
        serial_bytes.push_str(&serial_cross.render());
        parallel_bytes.push_str(&parallel_cross.render());
        Some(serial_cross)
    } else {
        None
    };
    let mut failures = Failures::default();
    let identical = failures.same_render("soak", threads, &serial_bytes, &parallel_bytes);

    let json = soak_json(
        &config,
        &scenarios,
        &serial_report,
        cross.as_ref(),
        identical,
        &phases,
    );
    write_artifact(&out_path, &json);
    print!("{serial_bytes}");

    let breaches = serial_report.hard_gate_breaches();
    if !breaches.is_empty() {
        failures.fail(format!(
            "hard-goal cohort gate breached (p99 > delta) in: {breaches:?}"
        ));
    }
    let unrecovered = serial_report.unrecovered_hard_tenants();
    if unrecovered > 0 {
        failures.fail(format!(
            "{unrecovered} unrecovered hard-goal tenants at end of soak"
        ));
    }
    if let Some(cross) = &cross {
        let bracket = cross_check_failures(&serial_report, cross);
        if bracket.is_empty() {
            eprintln!("cross-check bracket: OK");
        }
        bracket
            .iter()
            .for_each(|f| failures.fail(format!("cross-check {f}")));
    }
    if let Some(path) = flags.opt("--check") {
        let baseline = read_artifact("baseline", &path);
        let gate = baseline.map_or_else(|e| vec![e], |b| check_soak(&json, &b, &path));
        if gate.is_empty() {
            eprintln!("baseline check against {path}: OK");
        }
        gate.into_iter().for_each(|f| failures.fail(f));
    }
    failures.finish(format_args!(
        "soak reports byte-identical at 1 and {threads} threads, zero hard cohort \
         breaches, zero unrecovered hard tenants"
    ));
}
