//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around
//! their calls into the repository's crates; nothing inside those
//! crates is instrumented. Each work item records into its own
//! [`SpanBuf`], so worker threads never share a buffer, and the buffers
//! are folded into per-layer self times once the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Layer names, indexed by the `LAYER_*` constants.
pub const LAYER_NAMES: [&str; 18] = [
    "runtime.executor.item",
    "workload.traffic",
    "runtime.fault",
    "harness.template",
    "harness.guard",
    "metrics.sketch",
    "simkernel.calendar",
    "runtime.executor.merge",
    "runtime.profiler",
    "harness.profilecache",
    "harness.render",
    "kvstore.CA6059",
    "kvstore.HB2149",
    "kvstore.HB3813",
    "kvstore.HB6728",
    "dfs.HD4995",
    "mapred.MR2820",
    "kvstore.TWIN",
];

pub const LAYER_ITEM: u8 = 0;
pub const LAYER_TRAFFIC: u8 = 1;
pub const LAYER_FAULT: u8 = 2;
pub const LAYER_TEMPLATE: u8 = 3;
pub const LAYER_GUARD: u8 = 4;
pub const LAYER_SKETCH: u8 = 5;
pub const LAYER_CALENDAR: u8 = 6;
pub const LAYER_MERGE: u8 = 7;
pub const LAYER_PROFILER: u8 = 8;
pub const LAYER_PROFILECACHE: u8 = 9;
pub const LAYER_RENDER: u8 = 10;
/// First plant layer; plant layers follow in [`PLANT_IDS`] order.
pub const LAYER_PLANT0: u8 = 11;

/// Scenario ids of the plant layers, in layer order.
pub const PLANT_IDS: [&str; 7] = [
    "CA6059", "HB2149", "HB3813", "HB6728", "HD4995", "MR2820", "TWIN",
];

/// The plant layer of a scenario id.
pub fn plant_layer(scenario_id: &str) -> u8 {
    let i = PLANT_IDS
        .iter()
        .position(|&p| p == scenario_id)
        .unwrap_or_else(|| panic!("no plant layer for scenario {scenario_id}"));
    LAYER_PLANT0 + i as u8
}

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the pass origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one work item (or of the main thread), with the stack
/// of open spans that gives each new span its parent.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanBuf {
    pub fn new(origin: Instant) -> SpanBuf {
        SpanBuf {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its handle.
    pub fn open(&mut self, layer: u8) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx as u32);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx as u32), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Adds each span's self time (its duration minus its children's)
    /// to `busy_ns[layer]`.
    pub fn add_self_times(&self, busy_ns: &mut [u64; LAYER_NAMES.len()]) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        for (s, c) in self.spans.iter().zip(&child_ns) {
            busy_ns[s.layer as usize] += s.duration_ns().saturating_sub(*c);
        }
    }

    /// Durations of the root spans of `layer`, in milliseconds.
    pub fn root_ms(&self, layer: u8) -> impl Iterator<Item = f64> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.parent == ROOT && s.layer == layer)
            .map(|s| s.duration_ns() as f64 / 1e6)
    }

    /// Total duration of all root spans, milliseconds.
    fn root_ms_all(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Appends the spans as tab-separated lines:
    /// `buffer span parent layer start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, buffer: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{buffer}\t{i}\t{parent}\t{}\t{}\t{}",
                LAYER_NAMES[s.layer as usize], s.start_ns, s.end_ns
            );
        }
    }
}

/// Everything one traced pass recorded: the span buffers (work items
/// first, in item order, then the main thread's) and the pass shape
/// needed to split thread time into layers.
#[derive(Debug)]
pub struct PassTrace {
    pub items: Vec<SpanBuf>,
    pub main: SpanBuf,
    pub workers: usize,
    /// Wall time of the executor call, seconds.
    pub execute_s: f64,
}

/// Per-layer seconds of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self time per layer, seconds, indexed like [`LAYER_NAMES`].
    pub busy_s: Vec<f64>,
    /// Worker time inside the executor call not spent in any item.
    pub idle_s: f64,
    /// Thread time of the pass no layer claims: item self time outside
    /// every layer span.
    pub unattributed_s: f64,
    /// Worker time of the executor call plus main-thread span time.
    pub thread_s: f64,
    pub item_ms_p50: f64,
    pub item_ms_p95: f64,
}

impl PassTrace {
    pub fn layer_times(&self) -> LayerTimes {
        let mut busy_ns = [0u64; LAYER_NAMES.len()];
        for b in &self.items {
            b.add_self_times(&mut busy_ns);
        }
        self.main.add_self_times(&mut busy_ns);
        let mut item_ms: Vec<f64> = self
            .items
            .iter()
            .flat_map(|b| b.root_ms(LAYER_ITEM))
            .collect();
        let items_s: f64 = item_ms.iter().sum::<f64>() / 1e3;
        item_ms.sort_by(f64::total_cmp);
        let execute_thread_s = self.workers as f64 * self.execute_s;
        let main_s: f64 = self.main.root_ms_all() / 1e3;
        let mut busy_s: Vec<f64> = busy_ns.iter().map(|&n| n as f64 / 1e9).collect();
        // Item self time is what no layer span inside the item claims.
        let unattributed_s = busy_s[LAYER_ITEM as usize];
        busy_s[LAYER_ITEM as usize] = 0.0;
        LayerTimes {
            busy_s,
            idle_s: (execute_thread_s - items_s).max(0.0),
            unattributed_s,
            thread_s: execute_thread_s + main_s,
            item_ms_p50: quantile(&item_ms, 0.50),
            item_ms_p95: quantile(&item_ms, 0.95),
        }
    }

    /// All spans of the pass as TSV (see [`SpanBuf::write_tsv`]); the
    /// main thread's buffer is numbered after the items.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("buffer\tspan\tparent\tlayer\tstart_ns\tend_ns\n");
        for (i, b) in self.items.iter().enumerate() {
            b.write_tsv(i, &mut out);
        }
        self.main.write_tsv(self.items.len(), &mut out);
        out
    }
}

/// Exact work counters of one traced pass. They depend only on the
/// workload's inputs, never on the host or the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub decisions: u64,
    pub traffic_calls: u64,
    pub fault_calls: u64,
    pub fault_active: u64,
    pub template_steps: u64,
    pub guard_steps: u64,
    pub reengages: u64,
    pub recoveries: u64,
    pub sketch_records: u64,
    pub sketch_merges: u64,
    pub ticks: u64,
    pub slab_visits: u64,
    pub items: u64,
    pub profiler_runs: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub plant_epochs: [u64; PLANT_IDS.len()],
    pub faults_injected: u64,
    pub guard_activations: u64,
    pub fallback_epochs: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.decisions += o.decisions;
        self.traffic_calls += o.traffic_calls;
        self.fault_calls += o.fault_calls;
        self.fault_active += o.fault_active;
        self.template_steps += o.template_steps;
        self.guard_steps += o.guard_steps;
        self.reengages += o.reengages;
        self.recoveries += o.recoveries;
        self.sketch_records += o.sketch_records;
        self.sketch_merges += o.sketch_merges;
        self.ticks += o.ticks;
        self.slab_visits += o.slab_visits;
        self.items += o.items;
        self.profiler_runs += o.profiler_runs;
        self.cache_lookups += o.cache_lookups;
        self.cache_hits += o.cache_hits;
        for (a, b) in self.plant_epochs.iter_mut().zip(&o.plant_epochs) {
            *a += b;
        }
        self.faults_injected += o.faults_injected;
        self.guard_activations += o.guard_activations;
        self.fallback_epochs += o.fallback_epochs;
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut b = SpanBuf::new(Instant::now());
        let outer = b.open(LAYER_ITEM);
        let inner = b.open(LAYER_TRAFFIC);
        std::thread::sleep(std::time::Duration::from_millis(2));
        b.close(inner);
        b.close(outer);
        assert_eq!(b.spans[inner].parent, outer as u32);
        let mut busy = [0u64; LAYER_NAMES.len()];
        b.add_self_times(&mut busy);
        let total = b.spans[outer].duration_ns();
        assert_eq!(
            busy[LAYER_ITEM as usize] + busy[LAYER_TRAFFIC as usize],
            total
        );
        assert!(busy[LAYER_TRAFFIC as usize] >= 2_000_000);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn plant_layers_cover_the_roster() {
        for id in PLANT_IDS {
            let l = plant_layer(id);
            assert!(LAYER_NAMES[l as usize].ends_with(id));
        }
    }
}
