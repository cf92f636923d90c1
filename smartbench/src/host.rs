//! Host facts reported with every run: CPU count, an in-process
//! calibration score, and the process's peak resident set.

use std::time::Instant;

use smartconf_metrics::QuantileSketch;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Executor width: two workers, or fewer on a smaller host.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Draws per calibration repetition.
const CALIBRATION_DRAWS: u64 = 1 << 21;

/// The calibration score: millions of (SplitMix64 draw + sketch record)
/// operations per second on one thread, median of five repetitions.
/// Layer times can be divided by it to compare hosts.
pub fn calibration_mops() -> f64 {
    let mut rates: Vec<f64> = (0..5)
        .map(|rep| {
            let mut sketch = QuantileSketch::new();
            let mut state = rep as u64;
            let start = Instant::now();
            for _ in 0..CALIBRATION_DRAWS {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                // A value in [0.5, 1.5): positive, as the sketch records.
                sketch.record(0.5 + (z >> 11) as f64 / (1u64 << 53) as f64);
            }
            std::hint::black_box(sketch.count());
            CALIBRATION_DRAWS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
