//! Perf smoke benchmark: per-scenario epoch-loop throughput, the event
//! kernel's events/sec and the end-to-end serial fleet wall-clock,
//! written to `BENCH_perf.json`, with an optional regression gate
//! against a committed baseline. The measurements, the history record
//! and the gates are documented in [`smartconf_bench::perf`].
//!
//! Usage: `perf_smoke [--seeds K] [--out PATH] [--check BASELINE]`
//!
//! * `--seeds K` — number of fleet seeds (42, 43, …); default 2.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_perf.json`. When the file already exists, its headline
//!   numbers join the fresh artifact's `"history"` (capped at
//!   [`smartconf_bench::perf::HISTORY_CAP`] entries), so repeated
//!   `--check` cycles accumulate a trend. A previous file that does not
//!   read back whole stops the run before it is overwritten.
//! * `--check BASELINE` — exit non-zero when the fresh fleet wall-clock
//!   or kernel rate regresses past its gate
//!   ([`smartconf_bench::perf::trend_gate`]: ±25% around the headline,
//!   or median ± 5·MAD once the trend holds 5 runs). Beating the gate
//!   is reported as a stale baseline but does not fail, so perf
//!   improvements land without a lockstep baseline bump. A truncated or
//!   malformed baseline fails with an error naming the file and key.
//!
//! Every measurement is preceded by one discarded warmup pass
//! ([`smartconf_bench::perf::warmup_pass`]); the artifact records
//! `"warmup_pass": true` and each history entry the `"warmup"` flag of
//! the run it came from.

use smartconf_bench::artifact::{write_artifact, Better, CheckVerdict, Failures, Flags, Gate};
use smartconf_bench::perf::{
    baseline_gates, bench_json, measure_fleet, measure_kernel, measure_scenarios, read_history,
    warmup_pass,
};
use std::time::Instant;

fn main() {
    let flags = Flags::parse(&["--seeds", "--out", "--check"]);
    let seeds: Vec<u64> = (42..42 + flags.get("--seeds", 2u64).max(1)).collect();
    let out_path = flags.get("--out", "BENCH_perf.json".to_string());

    // One discarded pass over every timed path: first-touch costs
    // (cold page cache, HD4995's process-wide namespace memo, branch
    // predictors) land here instead of in the first recorded sample,
    // so the median ± k·MAD history gate sees only warmed numbers.
    let warm_start = Instant::now();
    warmup_pass(42);
    eprintln!(
        "perf smoke: warmup pass discarded ({:.3} s)",
        warm_start.elapsed().as_secs_f64()
    );

    eprintln!("perf smoke: per-scenario epoch throughput (profiled SmartConf run, seed 42)");
    let scenarios = measure_scenarios(42);
    for s in &scenarios {
        eprintln!(
            "  {}: {} epochs in {:.3} ms ({:.0} epochs/s)",
            s.id,
            s.epochs,
            s.wall.as_secs_f64() * 1e3,
            s.epochs_per_sec()
        );
    }

    eprintln!("perf smoke: event-kernel throughput (8 channels, 250 ms - 5 s periods, 1 h sim)");
    let kernel = measure_kernel();
    eprintln!(
        "  kernel: {} events in {:.3} ms ({:.0} events/s)",
        kernel.events,
        kernel.wall.as_secs_f64() * 1e3,
        kernel.events_per_sec()
    );

    eprintln!(
        "perf smoke: serial fleet wall-clock (7 scenarios x {} seeds x 4 policies)",
        seeds.len()
    );
    let fleet = measure_fleet(&seeds);
    eprintln!("  {}: {:.3} s", fleet.name, fleet.wall.as_secs_f64());

    // Rewriting the artifact appends the previous run to its `history`
    // array instead of discarding it, so `--check` cycles accumulate a
    // trend record rather than overwriting each other. A previous
    // artifact that does not read back whole stops the run before it
    // is overwritten.
    let history = if std::path::Path::new(&out_path).exists() {
        read_history(&out_path).unwrap_or_else(|e| {
            eprintln!("FAIL: {e}");
            std::process::exit(1)
        })
    } else {
        Vec::new()
    };
    let json = bench_json(42, &scenarios, &kernel, &seeds, &fleet, true, &history);
    write_artifact(&out_path, &json);
    print!("{}", json.render());

    let Some(baseline_path) = flags.opt("--check") else {
        return;
    };
    let mut failures = Failures::default();
    let mut judge = |what: &str, gate: Gate, better, measured: f64, digits: usize, unit| {
        let band = format!(
            "{}, measured {measured:.digits$} {unit}",
            gate.describe(digits, unit)
        );
        match gate.check(measured, better) {
            CheckVerdict::Ok => eprintln!("OK: {what} within tolerance ({band})"),
            CheckVerdict::BaselineStale => eprintln!(
                "OK: {what} beats its tolerance window ({band}); \
                 consider regenerating the committed {baseline_path}"
            ),
            CheckVerdict::Regression => failures.fail(format!("{what} regression ({band})")),
        }
    };
    match baseline_gates(&baseline_path) {
        Err(e) => failures.fail(e),
        Ok((wall, rate)) => {
            let (secs, eps) = (fleet.wall.as_secs_f64(), kernel.events_per_sec());
            judge("fleet wall-clock", wall, Better::Lower, secs, 3, "s");
            judge("kernel rate", rate, Better::Higher, eps, 0, "events/s");
        }
    }
    failures.finish(format_args!("perf gates pass against {baseline_path}"));
}
