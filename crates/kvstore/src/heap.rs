//! A JVM-style heap with named components and a hard capacity.

/// Tracks heap usage as a set of named components against a fixed
/// capacity.
///
/// The hard goals of the key-value case studies are all "heap usage must
/// stay below the JVM limit"; exceeding [`HeapModel::capacity_bytes`] is
/// an OutOfMemoryError, which in the simulators crashes the server (the
/// run halts and is marked failed).
///
/// The components live in a small vector sorted by name, next to a cached
/// total. The total is the saturating sum of the components taken in name
/// order, refreshed on every [`HeapModel::set_component`], so every read
/// ([`HeapModel::used_bytes`], [`HeapModel::is_oom`], …) is O(1). Two
/// heaps with the same components compare equal whatever order they were
/// set in.
///
/// # Example
///
/// ```
/// use smartconf_kvstore::HeapModel;
///
/// let mut heap = HeapModel::new(495 * 1_000_000);
/// heap.set_component("base", 100_000_000);
/// heap.set_component("rpc_queue", 200_000_000);
/// assert_eq!(heap.used_bytes(), 300_000_000);
/// assert!(!heap.is_oom());
/// heap.set_component("churn", 300_000_000);
/// assert!(heap.is_oom());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeapModel {
    capacity: u64,
    /// `(name, bytes)`, sorted by name; at most a handful of entries.
    components: Vec<(&'static str, u64)>,
    /// Saturating sum of `components` in name order.
    used: u64,
}

impl HeapModel {
    /// Creates a heap with the given capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        HeapModel {
            capacity,
            components: Vec::new(),
            used: 0,
        }
    }

    /// The hard capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Sets a named component's usage.
    pub fn set_component(&mut self, name: &'static str, bytes: u64) {
        match self.components.binary_search_by(|&(n, _)| n.cmp(name)) {
            Ok(i) => self.components[i].1 = bytes,
            Err(i) => self.components.insert(i, (name, bytes)),
        }
        self.used = self
            .components
            .iter()
            .fold(0u64, |acc, &(_, v)| acc.saturating_add(v));
    }

    /// Reads a named component's usage (0 if never set).
    pub fn component(&self, name: &str) -> u64 {
        self.components
            .binary_search_by(|&(n, _)| n.cmp(name))
            .map_or(0, |i| self.components[i].1)
    }

    /// Total used bytes across components (saturating, summed in
    /// component-name order).
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Used bytes as megabytes (decimal MB, matching the paper's figures).
    pub fn used_mb(&self) -> f64 {
        self.used_bytes() as f64 / 1e6
    }

    /// Remaining headroom, zero when over capacity.
    pub fn free_bytes(&self) -> u64 {
        self.capacity.saturating_sub(self.used_bytes())
    }

    /// Whether usage exceeds capacity — an OutOfMemoryError.
    pub fn is_oom(&self) -> bool {
        self.used_bytes() > self.capacity
    }

    /// Utilization in `[0, ∞)` (1.0 = exactly full).
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum() {
        let mut h = HeapModel::new(1000);
        h.set_component("a", 200);
        h.set_component("b", 300);
        assert_eq!(h.used_bytes(), 500);
        assert_eq!(h.free_bytes(), 500);
        assert_eq!(h.component("a"), 200);
        assert_eq!(h.component("missing"), 0);
        assert!((h.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overwriting_component_replaces() {
        let mut h = HeapModel::new(1000);
        h.set_component("a", 200);
        h.set_component("a", 50);
        assert_eq!(h.used_bytes(), 50);
    }

    #[test]
    fn oom_at_boundary() {
        let mut h = HeapModel::new(100);
        h.set_component("x", 100);
        assert!(!h.is_oom()); // exactly full is not over
        h.set_component("x", 101);
        assert!(h.is_oom());
        assert_eq!(h.free_bytes(), 0);
    }

    #[test]
    fn used_mb_is_decimal() {
        let mut h = HeapModel::new(500_000_000);
        h.set_component("x", 250_000_000);
        assert_eq!(h.used_mb(), 250.0);
    }

    #[test]
    fn saturating_sum_does_not_overflow() {
        let mut h = HeapModel::new(100);
        h.set_component("a", u64::MAX);
        h.set_component("b", u64::MAX);
        assert!(h.is_oom());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = HeapModel::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::{Range, RangeInclusive};

    /// Every component name the simulators set.
    const NAMES: [&str; 7] = [
        "base",
        "churn",
        "memtable",
        "memstore",
        "read_cache",
        "rpc_queue",
        "response_queue",
    ];

    /// One byte draw: a selector, then a plant-sized value, one within
    /// 1 000 of `u64::MAX`, and any `u64`.
    type Draw = (u8, u64, u64, u64);

    fn draw() -> (
        Range<u8>,
        Range<u64>,
        RangeInclusive<u64>,
        RangeInclusive<u64>,
    ) {
        (
            0..3,
            0..2_000_000_000,
            (u64::MAX - 1_000)..=u64::MAX,
            0..=u64::MAX,
        )
    }

    fn pick((kind, small, huge, any): Draw) -> u64 {
        match kind {
            0 => small,
            1 => huge,
            _ => any,
        }
    }

    proptest! {
        /// Any sequence of sets reads back exactly like a name-keyed map
        /// summed with a saturating fold, and the final heap equals one
        /// filled with the same values in the opposite order.
        #[test]
        fn matches_btreemap_reference(
            capacity in draw(),
            sets in prop::collection::vec((0..NAMES.len(), draw()), 0..40),
        ) {
            let capacity = pick(capacity).max(1);
            let mut heap = HeapModel::new(capacity);
            let mut reference: BTreeMap<&'static str, u64> = BTreeMap::new();
            for (i, v) in sets {
                let v = pick(v);
                heap.set_component(NAMES[i], v);
                reference.insert(NAMES[i], v);
                let used = reference.values().fold(0u64, |acc, &v| acc.saturating_add(v));
                prop_assert_eq!(heap.used_bytes(), used);
                prop_assert_eq!(heap.is_oom(), used > capacity);
                prop_assert_eq!(heap.free_bytes(), capacity.saturating_sub(used));
                prop_assert_eq!(
                    heap.utilization().to_bits(),
                    (used as f64 / capacity as f64).to_bits()
                );
                for name in NAMES {
                    prop_assert_eq!(
                        heap.component(name),
                        reference.get(name).copied().unwrap_or(0)
                    );
                }
            }

            let mut reversed = HeapModel::new(capacity);
            for (&name, &v) in reference.iter().rev() {
                reversed.set_component(name, v);
            }
            prop_assert_eq!(&reversed, &heap);
        }
    }
}
