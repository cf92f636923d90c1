//! The perf smoke benchmark: per-scenario epoch-loop throughput, the
//! event kernel's rate and the end-to-end fleet wall-clock, with a
//! regression gate against a committed baseline.
//!
//! * **epochs/sec per scenario** — how fast one control plane's decide
//!   loop turns over once profiling is out of the way (the §6.2 runtime
//!   overhead story). Measured on a SmartConf run fed pre-collected
//!   profiles, so the §6.1 profiling loop is excluded from the timing.
//!   Recorded for trend-watching (and carried into each `"history"`
//!   entry) but never gated: a sub-millisecond decide loop can jitter by
//!   integer factors on shared CI hosts.
//! * **kernel events/sec** — a synthetic heterogeneous-period plane
//!   through `EventPlane` ([`measure_kernel`]); gated, higher is better.
//! * **fleet wall-clock** — the serial end-to-end cost of the standard
//!   smoke fleet, profiling included; gated, lower is better.
//!
//! Each gate reads the baseline's trend: its `"history"` entries plus
//! the headline ([`trend_gate`]). Below
//! [`STAT_MIN_HISTORY`](crate::artifact::STAT_MIN_HISTORY) runs it is a
//! raw ±[`TOLERANCE`] band around the headline; from there on it is the
//! robust median ± [`STAT_K`](crate::artifact::STAT_K)·MAD over the
//! trend, so one slow committed run no longer skews the window. The
//! baseline is read strictly: a truncated or malformed artifact is an
//! error naming the file and key, never a shorter trend or a silent
//! switch of mode.

use std::time::{Duration, Instant};

use smartconf_core::{Controller, Goal, Hardness, ModelMode, SmartConf};
use smartconf_harness::{Faults, RunSpec};
use smartconf_runtime::{ChannelId, ControlPlane, Decider, EventPlane, Plant, Sensed};

use crate::artifact::{self, read_artifact, Field, Gate, Json};
use crate::fleet::{fleet_scenarios, run_roster, FleetPhase, SMOKE_POLICIES};

/// Fractional wall-clock tolerance of the `--check` gate: a new fleet
/// wall-clock above `baseline * (1 + TOLERANCE)` fails, and one below
/// `baseline * (1 - TOLERANCE)` asks for a baseline refresh (reported,
/// not failed — running faster is not a defect).
pub const TOLERANCE: f64 = 0.25;

/// One scenario's epoch-loop throughput measurement.
#[derive(Debug, Clone)]
pub struct ScenarioPerf {
    /// Scenario identifier, e.g. `"HB3813"`.
    pub id: String,
    /// Total decide epochs across the run's channels.
    pub epochs: u64,
    /// Wall-clock of the profiled SmartConf run (profiling excluded).
    pub wall: Duration,
}

impl ScenarioPerf {
    /// Epoch-loop throughput; 0 when the wall-clock rounds to zero.
    pub fn epochs_per_sec(&self) -> f64 {
        per_sec(self.epochs, self.wall)
    }
}

/// `count / wall`; 0 when the wall-clock rounds to zero.
fn per_sec(count: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Simulated horizon of the kernel throughput measurement, microseconds.
/// One hour keeps the fastest cohort (250 ms) at ~14 k epochs — enough
/// events for a stable rate, still well under 100 ms of wall-clock.
const KERNEL_HORIZON_US: u64 = 3_600_000_000;

/// The event kernel's throughput measurement: a synthetic
/// heterogeneous-period plane driven through [`EventPlane`].
#[derive(Debug, Clone)]
pub struct KernelPerf {
    /// Channels in the synthetic plane.
    pub channels: usize,
    /// Calendar events processed over the simulated horizon.
    pub events: u64,
    /// Wall-clock of the kernel run.
    pub wall: Duration,
}

impl KernelPerf {
    /// Event throughput; 0 when the wall-clock rounds to zero.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.wall)
    }
}

/// A deterministic first-order plant for the kernel measurement: each
/// channel's metric relaxes toward `gain × setting` a fraction per
/// sense, so the controllers keep doing real work (non-zero error every
/// epoch) without the run converging into a fixed point the optimizer
/// could fold away.
#[derive(Debug)]
struct KernelPlant {
    settings: Vec<f64>,
    measured: Vec<f64>,
}

impl Plant for KernelPlant {
    fn now_us(&self) -> u64 {
        0
    }
    fn sense(&mut self, channel: ChannelId) -> Sensed {
        let i = channel.index();
        self.measured[i] += (1.3 * self.settings[i] - self.measured[i]) * 0.5;
        Sensed::direct(self.measured[i])
    }
    fn apply(&mut self, channel: ChannelId, setting: f64) {
        self.settings[channel.index()] = setting;
    }
}

/// Times the event kernel on a synthetic eight-channel plane spanning
/// the roster's sensing periods (250 ms … 5 s), returning the processed
/// event count and wall-clock. Pure decide-loop + calendar cost — no
/// profiling, no scenario plant — so the number isolates what the
/// kernel itself adds per event.
pub fn measure_kernel() -> KernelPerf {
    let periods: [u64; 8] = [
        250_000, 250_000, 500_000, 500_000, 1_000_000, 1_000_000, 5_000_000, 5_000_000,
    ];
    let mut b = ControlPlane::builder();
    for (i, period_us) in periods.iter().enumerate() {
        let goal = Goal::new("m", 200.0)
            .with_hardness(Hardness::Hard)
            .expect("positive target");
        let ctl = Controller::new(1.3, 0.3, goal, 0.1, (0.0, 500.0), 10.0).expect("stable pole");
        let name = format!("kernel.chan{i}");
        b.channel_with_period(
            &name,
            Decider::Direct(Box::new(SmartConf::new(name.clone(), ctl))),
            *period_us,
        );
    }
    let plant = KernelPlant {
        settings: vec![10.0; periods.len()],
        measured: vec![0.0; periods.len()],
    };
    let mut kernel = EventPlane::new(b.build(), plant);
    let start = Instant::now();
    kernel.run_until_us(KERNEL_HORIZON_US);
    let wall = start.elapsed();
    KernelPerf {
        channels: periods.len(),
        events: kernel.events_processed(),
        wall,
    }
}

/// Times one profiled SmartConf run per scenario at `seed`: profiles are
/// collected outside the timed region, so the measurement isolates the
/// evaluation run's decide loop and plant stepping.
pub fn measure_scenarios(seed: u64) -> Vec<ScenarioPerf> {
    fleet_scenarios()
        .iter()
        .map(|scenario| {
            let profiles = scenario.evaluation_profiles(seed);
            let start = Instant::now();
            let spec = RunSpec::new(seed, ModelMode::Frozen, Faults::None);
            let run = scenario.run(&spec, &profiles);
            let wall = start.elapsed();
            let epochs = run.epochs.summaries().map(|(_, c)| c.epochs).sum();
            ScenarioPerf {
                id: scenario.id().to_string(),
                epochs,
                wall,
            }
        })
        .collect()
}

/// Runs the standard smoke fleet serially over `seeds` and returns the
/// timed phase — the end-to-end number the CI gate compares.
pub fn measure_fleet(seeds: &[u64]) -> FleetPhase {
    FleetPhase::time("fleet", 1, || run_roster(&SMOKE_POLICIES, seeds, 1)).1
}

/// One discarded pass over every timed path before the real
/// measurements: first-touch costs (page faults on cold binaries,
/// process-wide memos like HD4995's shared-namespace synthesis, branch
/// predictor and allocator warm-up) otherwise land entirely in the
/// first sample and pollute the median ± k·MAD history gate with a
/// bimodal cold/warm mixture. The timings are thrown away; only the
/// side effects (hot caches) persist.
pub fn warmup_pass(seed: u64) {
    let _ = measure_scenarios(seed);
    let _ = measure_kernel();
    let _ = measure_fleet(&[seed]);
}

/// Maximum prior runs retained in the artifact's `"history"` array.
pub const HISTORY_CAP: usize = 32;

/// Carries the run history forward when rewriting `BENCH_perf.json`:
/// the previous artifact's `"history"` entries, unchanged, then the
/// previous run's own headline numbers — fleet wall, kernel rate, its
/// warmup flag *and* per-scenario epochs/sec — as the newest entry,
/// clamped to the most recent [`HISTORY_CAP`]. An artifact written
/// before the warmup flag existed is recorded as un-warmed. Every
/// history entry and headline must read as a number: a truncated or
/// malformed artifact is an error, never a shortened trend.
pub fn carry_history(previous: &Field) -> Result<Vec<Json>, String> {
    let fleet = fleet_wall_series(previous)?;
    let rate = kernel_rate_series(previous)?;
    let rates = previous
        .get("scenarios")?
        .items()?
        .iter()
        .map(|s| {
            let rate = s.get("epochs_per_sec")?.f64()?;
            Ok((s.get("id")?.str()?, Json::fixed(rate, 0)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let warmed = match previous.opt("warmup_pass")? {
        Some(flag) => flag.bool()?,
        None => false,
    };
    let mut entries: Vec<Json> = previous
        .get("history")?
        .items()?
        .iter()
        .map(|e| e.value().clone())
        .collect();
    entries.push(Json::obj([
        ("fleet_secs", Json::fixed(fleet[fleet.len() - 1], 3)),
        ("kernel_rate", Json::fixed(rate[rate.len() - 1], 0)),
        ("warmup", warmed.into()),
        ("scenario_rates", Json::obj(rates)),
    ]));
    if entries.len() > HISTORY_CAP {
        entries.drain(..entries.len() - HISTORY_CAP);
    }
    Ok(entries)
}

/// One headline's trend in a baseline: every history entry's
/// `history_key`, then the headline at the key path `headline`.
fn trend(baseline: &Field, history_key: &str, headline: &[&str]) -> Result<Vec<f64>, String> {
    let mut series = baseline
        .get("history")?
        .items()?
        .iter()
        .map(|e| e.get(history_key)?.f64())
        .collect::<Result<Vec<f64>, String>>()?;
    let mut field = baseline.clone();
    for key in headline {
        field = field.get(key)?;
    }
    series.push(field.f64()?);
    Ok(series)
}

/// The baseline's fleet wall-clock trend: history entries
/// (`fleet_secs`) plus the headline run (`fleet_wall_clock_secs`).
pub fn fleet_wall_series(baseline: &Field) -> Result<Vec<f64>, String> {
    trend(baseline, "fleet_secs", &["fleet_wall_clock_secs"])
}

/// The baseline's kernel-rate trend: history entries (`kernel_rate`)
/// plus the headline run (`kernel.events_per_sec`).
pub fn kernel_rate_series(baseline: &Field) -> Result<Vec<f64>, String> {
    trend(baseline, "kernel_rate", &["kernel", "events_per_sec"])
}

/// The gate for one headline trend (as read by [`fleet_wall_series`] or
/// [`kernel_rate_series`], headline last): median ± k·MAD once the
/// series holds [`STAT_MIN_HISTORY`](crate::artifact::STAT_MIN_HISTORY) finite runs, else ±[`TOLERANCE`]
/// around the headline.
pub fn trend_gate(series: &[f64]) -> Gate {
    Gate::stat(series).unwrap_or(Gate::Band {
        reference: series[series.len() - 1],
        tol: TOLERANCE,
    })
}

/// Reads the baseline at `path` and returns its fleet wall-clock and
/// kernel-rate gates ([`trend_gate`]).
pub fn baseline_gates(path: &str) -> Result<(Gate, Gate), String> {
    let doc = read_artifact("baseline", path)?;
    let source = format!("baseline {path}");
    let root = Field::root(&source, &doc);
    let walls = fleet_wall_series(&root)?;
    Ok((trend_gate(&walls), trend_gate(&kernel_rate_series(&root)?)))
}

/// Reads the previous artifact at `path` and carries its history
/// forward ([`carry_history`]).
pub fn read_history(path: &str) -> Result<Vec<Json>, String> {
    let doc = read_artifact("previous", path)?;
    carry_history(&Field::root(&format!("previous {path}"), &doc))
}

/// Builds the `BENCH_perf.json` artifact. `history` holds prior runs'
/// entries (see [`carry_history`]); pass `&[]` for a fresh artifact
/// with no predecessors.
pub fn bench_json(
    seed: u64,
    scenarios: &[ScenarioPerf],
    kernel: &KernelPerf,
    seeds: &[u64],
    fleet: &FleetPhase,
    warmed: bool,
    history: &[Json],
) -> Json {
    let rows = scenarios.iter().map(|s| {
        Json::obj([
            ("id", s.id.as_str().into()),
            ("epochs", s.epochs.into()),
            ("wall_clock_secs", Json::fixed(s.wall.as_secs_f64(), 6)),
            ("epochs_per_sec", Json::fixed(s.epochs_per_sec(), 0)),
        ])
    });
    Json::obj([
        artifact::host_cpus(),
        (
            "note",
            "wall-clock figures are host-dependent; on a 1-CPU host parallel phases \
             cannot show speedup, so only the serial fleet wall-clock is gated"
                .into(),
        ),
        ("scenario_seed", seed.into()),
        ("scenarios", Json::arr(rows)),
        (
            "kernel",
            Json::obj([
                ("channels", kernel.channels.into()),
                ("events", kernel.events.into()),
                ("wall_clock_secs", Json::fixed(kernel.wall.as_secs_f64(), 6)),
                ("events_per_sec", Json::fixed(kernel.events_per_sec(), 0)),
            ]),
        ),
        ("fleet_seeds", Json::arr(seeds.iter().copied())),
        (
            "fleet_policies",
            Json::arr(SMOKE_POLICIES.iter().map(|p| p.label())),
        ),
        ("warmup_pass", warmed.into()),
        (
            "fleet_wall_clock_secs",
            Json::fixed(fleet.wall.as_secs_f64(), 3),
        ),
        ("history", Json::Arr(history.to_vec())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Better, CheckVerdict, STAT_MAD_FLOOR, STAT_MIN_HISTORY};

    fn kernel() -> KernelPerf {
        KernelPerf {
            channels: 8,
            events: 100_000,
            wall: Duration::from_millis(50),
        }
    }

    fn fleet() -> FleetPhase {
        FleetPhase {
            name: "fleet-1-thread".into(),
            threads: 1,
            wall: Duration::from_millis(2500),
        }
    }

    fn root(json: &Json) -> Field<'_> {
        Field::root("test artifact", json)
    }

    fn carry(json: &Json) -> Vec<Json> {
        carry_history(&root(json)).expect("well-formed artifact")
    }

    fn band(reference: f64) -> Gate {
        Gate::Band {
            reference,
            tol: TOLERANCE,
        }
    }

    #[test]
    fn bench_json_is_well_formed_and_round_trips() {
        let scenarios = vec![ScenarioPerf {
            id: "TOY".into(),
            epochs: 1200,
            wall: Duration::from_millis(60),
        }];
        let doc = bench_json(42, &scenarios, &kernel(), &[42, 43], &fleet(), true, &[]);
        let json = doc.render();
        assert!(json.contains("\"epochs\": 1200"));
        assert!(json.contains("\"epochs_per_sec\": 20000"));
        assert!(json.contains("\"events\": 100000"));
        assert!(json.contains("\"events_per_sec\": 2000000"));
        assert!(json.contains("\"fleet_seeds\": [42, 43]"));
        assert!(json.contains("\"host_cpus\": "));
        let parsed = Json::parse(&json).expect("strict reader accepts the writer");
        assert_eq!(parsed, doc);
        assert_eq!(fleet_wall_series(&root(&parsed)), Ok(vec![2.5]));
    }

    #[test]
    fn kernel_measurement_processes_the_expected_calendar() {
        let k = measure_kernel();
        assert_eq!(k.channels, 8);
        // 2 × 14 400 + 2 × 7 200 + 2 × 3 600 + 2 × 720 epochs, two
        // calendar events (Sense + Actuate) each.
        assert_eq!(k.events, 2 * 2 * (14_400 + 7_200 + 3_600 + 720));
    }

    #[test]
    fn check_gates_on_the_upper_bound_only() {
        let check = |x| band(4.0).check(x, Better::Lower);
        assert_eq!(check(4.0), CheckVerdict::Ok);
        assert_eq!(check(4.99), CheckVerdict::Ok);
        assert_eq!(check(5.01), CheckVerdict::Regression);
        assert_eq!(check(3.01), CheckVerdict::Ok);
        assert_eq!(check(2.99), CheckVerdict::BaselineStale);
    }

    #[test]
    fn epochs_per_sec_handles_zero_wall() {
        let s = ScenarioPerf {
            id: "Z".into(),
            epochs: 10,
            wall: Duration::ZERO,
        };
        assert_eq!(s.epochs_per_sec(), 0.0);
    }

    #[test]
    fn parse_rejects_missing_key() {
        let empty = Json::parse("{}").unwrap();
        assert_eq!(
            fleet_wall_series(&root(&empty)),
            Err("malformed test artifact: `history` is missing".into())
        );
        let no_kernel = Json::parse("{\"history\": []}").unwrap();
        assert_eq!(
            kernel_rate_series(&root(&no_kernel)),
            Err("malformed test artifact: `kernel` is missing".into())
        );
    }

    #[test]
    fn kernel_check_gates_on_the_lower_bound_only() {
        let check = |x| band(4e6).check(x, Better::Higher);
        assert_eq!(check(4e6), CheckVerdict::Ok);
        assert_eq!(check(3.01e6), CheckVerdict::Ok);
        assert_eq!(check(2.99e6), CheckVerdict::Regression);
        assert_eq!(check(4.99e6), CheckVerdict::Ok);
        assert_eq!(check(5.01e6), CheckVerdict::BaselineStale);
    }

    #[test]
    fn kernel_rate_parses_from_rendered_json() {
        let json = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &[]).render();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(kernel_rate_series(&root(&parsed)), Ok(vec![2_000_000.0]));
    }

    #[test]
    fn history_accumulates_across_rewrites() {
        // First write: no predecessor, empty history.
        let first = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &[]);
        assert!(first.render().contains("\"history\": []"));
        // Second write: the first run's headline numbers become history.
        let second = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &carry(&first));
        assert!(second.render().contains(
            "{\"fleet_secs\": 2.500, \"kernel_rate\": 2000000, \"warmup\": true, \
             \"scenario_rates\": {}}"
        ));
        // Third write: both prior runs are retained, in order.
        let third = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &carry(&second));
        assert_eq!(third.render().matches("\"fleet_secs\"").count(), 2);
        // The headline is still the current run, not history.
        assert_eq!(fleet_wall_series(&root(&third)), Ok(vec![2.5; 3]));
        assert_eq!(kernel_rate_series(&root(&third)), Ok(vec![2e6; 3]));
    }

    #[test]
    fn history_entries_carry_scenario_rates() {
        let scenarios = vec![
            ScenarioPerf {
                id: "CA6059".into(),
                epochs: 1000,
                wall: Duration::from_millis(10),
            },
            ScenarioPerf {
                id: "HD4995".into(),
                epochs: 100,
                wall: Duration::from_millis(100),
            },
        ];
        let first = bench_json(42, &scenarios, &kernel(), &[42], &fleet(), true, &[]);
        // The carried entry embeds both scenarios' rates, so per-scenario
        // trends survive baseline rewrites.
        let second = bench_json(
            42,
            &scenarios,
            &kernel(),
            &[42],
            &fleet(),
            true,
            &carry(&first),
        );
        let text = second.render();
        assert!(
            text.contains("\"scenario_rates\": {\"CA6059\": 100000, \"HD4995\": 1000}"),
            "{text}"
        );
        // History rates stay out of the headline scenario rows.
        assert_eq!(
            root(&second)
                .get("scenarios")
                .unwrap()
                .items()
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn stat_gate_needs_minimum_history() {
        assert_eq!(Gate::stat(&[4.0; STAT_MIN_HISTORY - 1]), None);
        let Some(Gate::Stat { median, n, .. }) = Gate::stat(&[4.0; STAT_MIN_HISTORY]) else {
            panic!("enough history");
        };
        assert_eq!(median, 4.0);
        assert_eq!(n, STAT_MIN_HISTORY);
    }

    #[test]
    fn stat_gate_uses_median_and_mad() {
        // Series with one outlier: the median/MAD shrug it off where a
        // mean/stddev gate would be dragged wide.
        let g = Gate::stat(&[4.0, 4.1, 3.9, 4.05, 40.0]).expect("gate");
        let Gate::Stat { median, mad, .. } = g else {
            panic!("stat gate");
        };
        assert!((median - 4.05).abs() < 1e-12);
        assert!(mad < 0.2, "mad {mad}");
        assert_eq!(g.check(median, Better::Lower), CheckVerdict::Ok);
        assert_eq!(g.check(40.0, Better::Lower), CheckVerdict::Regression);
        assert_eq!(g.check(0.5, Better::Lower), CheckVerdict::BaselineStale);
    }

    #[test]
    fn stat_gate_floors_mad_on_identical_history() {
        // Five byte-identical runs: raw MAD is 0; the floor keeps a
        // ±STAT_K·2% band so normal noise does not fail the gate.
        let g = Gate::stat(&[4.0; 5]).expect("gate");
        assert!(matches!(g, Gate::Stat { mad, .. } if mad == STAT_MAD_FLOOR * 4.0));
        assert_eq!(g.check(4.3, Better::Lower), CheckVerdict::Ok);
        assert_eq!(g.check(4.5, Better::Lower), CheckVerdict::Regression);
        // Kernel direction is inverted.
        assert_eq!(g.check(3.5, Better::Higher), CheckVerdict::Regression);
        assert_eq!(g.check(4.5, Better::Higher), CheckVerdict::BaselineStale);
        assert_eq!(g.check(4.1, Better::Higher), CheckVerdict::Ok);
    }

    #[test]
    fn series_parsers_recover_history_plus_headline() {
        let mut json = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &[]);
        // Grow a 6-entry history by repeated rewrites.
        for _ in 0..6 {
            json = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &carry(&json));
        }
        let walls = fleet_wall_series(&root(&json)).unwrap();
        let rates = kernel_rate_series(&root(&json)).unwrap();
        assert_eq!(walls.len(), 7, "{walls:?}"); // 6 history + headline
        assert_eq!(rates.len(), 7, "{rates:?}");
        assert!(walls.iter().all(|&w| (w - 2.5).abs() < 1e-9));
        assert!(matches!(trend_gate(&walls), Gate::Stat { n: 7, .. }));
        // Below the minimum history the gate is the band on the headline.
        assert_eq!(trend_gate(&walls[3..]), band(2.5));
    }

    #[test]
    fn warmup_flag_is_carried_into_history_entries() {
        let entry = |warmed| {
            let doc = bench_json(42, &[], &kernel(), &[42], &fleet(), warmed, &[]);
            assert!(doc.render().contains(&format!("\"warmup_pass\": {warmed}")));
            carry(&doc).pop().unwrap().render()
        };
        // A warmed artifact's headline carries into history flagged true.
        assert!(entry(true).contains("\"warmup\": true"));
        // An artifact written without a warmup pass is annotated false,
        // keeping cold-start samples distinguishable in the trend.
        assert!(entry(false).contains("\"warmup\": false"));
        // So is one predating the flag.
        let mut old = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &[]);
        if let Json::Obj(members) = &mut old {
            members.retain(|(k, _)| k != "warmup_pass");
        }
        assert!(carry(&old)
            .pop()
            .unwrap()
            .render()
            .contains("\"warmup\": false"));
    }

    #[test]
    fn history_clamps_at_the_cap() {
        let seeded: Vec<Json> = (0..HISTORY_CAP + 5)
            .map(|i| {
                Json::obj([
                    ("fleet_secs", Json::Num(format!("{i}.000"))),
                    ("kernel_rate", Json::from(1u64)),
                ])
            })
            .collect();
        let json = bench_json(42, &[], &kernel(), &[42], &fleet(), true, &seeded);
        let carried = carry(&json);
        assert_eq!(carried.len(), HISTORY_CAP);
        // The newest entry is the artifact's own headline run; the
        // oldest seeded entries were dropped.
        let newest = "{\"fleet_secs\": 2.500, \"kernel_rate\": 2000000, \"warmup\": true, \
                      \"scenario_rates\": {}}";
        assert_eq!(carried.last(), Json::parse(newest).ok().as_ref());
        assert!(!carried
            .iter()
            .any(|e| e.render().contains("\"fleet_secs\": 0.000")));
    }
}
