//! Fleet smoke check: runs all seven scenarios × seeds × policies at
//! 1 worker thread and again at N, asserts the two [`FleetReport`]
//! renderings are byte-identical, and writes `BENCH_fleet.json` with
//! the wall-clock of each phase.
//!
//! Usage: `fleet_smoke [--seeds K] [--threads N] [--out PATH]`
//!
//! * `--seeds K` — number of seeds (42, 43, …); default 4.
//! * `--threads N` — parallel phase's worker count; default 4.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_fleet.json`.
//!
//! Exits non-zero if the serial and parallel reports differ.
//!
//! [`FleetReport`]: smartconf_harness::FleetReport

use smartconf_bench::artifact::{two_phase, write_artifact, Failures, Flags};
use smartconf_bench::fleet::{bench_json, run_roster, SMOKE_POLICIES};

fn main() {
    let flags = Flags::parse(&["--seeds", "--threads", "--out"]);
    let seeds: Vec<u64> = (42..42 + flags.get("--seeds", 4u64).max(1)).collect();
    let threads: usize = flags.get("--threads", 4);
    let out_path = flags.get("--out", "BENCH_fleet.json".to_string());

    eprintln!(
        "fleet smoke: 7 scenarios x {} seeds x {} policies",
        seeds.len(),
        SMOKE_POLICIES.len()
    );
    let ((serial, parallel), phases) =
        two_phase("fleet", threads, |n| run_roster(&SMOKE_POLICIES, &seeds, n));
    let serial_bytes = serial.render();
    let mut failures = Failures::default();
    let identical = failures.same_render("fleet", threads, &serial_bytes, &parallel.render());
    write_artifact(&out_path, &bench_json(&seeds, &serial, identical, &phases));
    print!("{serial_bytes}");
    failures.finish(format_args!(
        "fleet reports byte-identical at 1 and {threads} threads"
    ));
}
