//! Adaptive-model comparison bench: goal-tracking error and convergence
//! epochs for the online (RLS) estimator vs. the frozen offline profile
//! vs. a proportional baseline, across every fault class, written to
//! `BENCH_adaptive.json`.
//!
//! Usage: `adaptive_bench [--seed S] [--out PATH]`
//!
//! * `--seed S` — fault-plane seed; default 42. The plant is noiseless,
//!   so the whole table replays byte-for-byte from the seed.
//! * `--out PATH` — where to write the JSON artifact; default
//!   `BENCH_adaptive.json`.

use smartconf_bench::adaptive::{adaptive_json, render_table, run_matrix};
use smartconf_bench::artifact::{write_artifact, Flags};

fn main() {
    let flags = Flags::parse(&["--seed", "--out"]);
    let seed: u64 = flags.get("--seed", 42);
    let out_path = flags.get("--out", "BENCH_adaptive.json".to_string());
    eprintln!(
        "adaptive bench: drifting-gain plant, 3 strategies x (clean + 7 fault classes), seed {seed}"
    );
    let rows = run_matrix(seed);
    print!("{}", render_table(&rows));
    write_artifact(&out_path, &adaptive_json(seed, &rows));
}
