//! The namenode's namespace: an inode tree with content summaries.
//!
//! `du`/content-summary (HD4995's operation) walks a directory subtree
//! under the namesystem lock, accumulating file counts and lengths. This
//! module provides the tree the traversal walks: directories and files,
//! deterministic synthetic population, and a resumable cursor that
//! visits `limit` inodes per lock quantum — exactly the unit
//! `content-summary.limit` meters. Inodes are stored in depth-first
//! pre-order with running totals, so any subtree or quantum is one run of
//! positions summarized in O(1) (DESIGN.md §3c).

use smartconf_simkernel::SimRng;

/// Position of an inode in the namespace's pre-order layout.
pub type InodeId = usize;

/// Aggregates computed by a content-summary traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentSummary {
    /// Number of files under the subtree.
    pub file_count: u64,
    /// Number of directories under the subtree (including the root).
    pub directory_count: u64,
    /// Total file bytes under the subtree.
    pub length: u64,
}

/// A namespace tree rooted at inode 0, stored in depth-first pre-order:
/// children may only be added under the *open path* (the root, the latest
/// directory and the directories between them), and adding one closes
/// every open directory below its parent.
///
/// # Example
///
/// ```
/// use smartconf_dfs::Namespace;
/// use smartconf_simkernel::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let ns = Namespace::synthesize(1_000, 8, &mut rng);
/// assert_eq!(ns.summary(ns.root()).file_count, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    /// One past the last position of each inode's subtree; [`OPEN`] for
    /// a directory on the open path, whose subtree ends at `len()`.
    end: Vec<u32>,
    /// `dirs[k]`: directories among positions `0..k` (`len() + 1` entries).
    dirs: Vec<u32>,
    /// `bytes[k]`: file bytes among positions `0..k` (`len() + 1` entries).
    bytes: Vec<u64>,
    /// Positions of the open path's directories, root first.
    open: Vec<u32>,
}

/// The subtree end stored for a directory that is still open.
const OPEN: u32 = u32::MAX;

impl Namespace {
    /// Creates a namespace holding only an empty root directory.
    pub fn new() -> Self {
        Namespace {
            end: vec![OPEN],
            dirs: vec![0, 1],
            bytes: vec![0, 0],
            open: vec![0],
        }
    }

    /// The root directory's id.
    pub fn root(&self) -> InodeId {
        0
    }

    /// Total number of inodes.
    pub fn len(&self) -> usize {
        self.end.len()
    }

    /// Whether the namespace holds only the root.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Adds a file under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a directory on the open path, or if the
    /// namespace would exceed `u32::MAX` inodes.
    pub fn add_file(&mut self, parent: InodeId, length: u64) -> InodeId {
        self.append(parent, false, length)
    }

    /// Adds a directory under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a directory on the open path, or if the
    /// namespace would exceed `u32::MAX` inodes.
    pub fn add_directory(&mut self, parent: InodeId) -> InodeId {
        self.append(parent, true, 0)
    }

    /// Appends an inode in pre-order as the last child of `parent`.
    fn append(&mut self, parent: InodeId, dir: bool, length: u64) -> InodeId {
        let id = self.len();
        let Some(depth) = self.open.iter().rposition(|&d| d as usize == parent) else {
            let file = parent < id && self.dirs[parent + 1] == self.dirs[parent];
            let what = if file { "a file" } else { "off the open path" };
            panic!("parent {parent} is {what}: inodes are appended in pre-order");
        };
        let len = u32::try_from(id + 1).expect("a namespace holds at most u32::MAX inodes");
        for &closed in &self.open[depth + 1..] {
            self.end[closed as usize] = len - 1;
        }
        self.open.truncate(depth + 1);
        if dir {
            self.open.push(len - 1);
        }
        self.end.push(if dir { OPEN } else { len });
        self.dirs.push(self.dirs[id] + u32::from(dir));
        let bytes = self.bytes[id]
            .checked_add(length)
            .expect("namespace file bytes overflow u64");
        self.bytes.push(bytes);
        id
    }

    /// Synthesizes a namespace with `files` files spread over directories
    /// of roughly `files_per_dir` entries (TestDFSIO populates flat, wide
    /// directories; file sizes follow a heavy-ish spread around 64 MB).
    ///
    /// # Panics
    ///
    /// Panics if `files_per_dir` is zero, or if the namespace would exceed
    /// `u32::MAX` inodes.
    pub fn synthesize(files: u64, files_per_dir: u64, rng: &mut SimRng) -> Self {
        assert!(files_per_dir > 0, "need at least one file per directory");
        let mut ns = Namespace::new();
        let mut remaining = files;
        while remaining > 0 {
            let dir = ns.add_directory(ns.root());
            let in_this_dir = remaining.min(files_per_dir);
            for _ in 0..in_this_dir {
                let length = rng.uniform(16e6, 128e6) as u64;
                ns.add_file(dir, length);
            }
            remaining -= in_this_dir;
        }
        ns
    }

    /// Memoized [`Namespace::synthesize`] for the deterministic seeded
    /// namespaces the HD4995 harness builds. The 10⁶-inode tree costs
    /// tens of milliseconds to synthesize, and every profiled setting and
    /// every evaluation run of every fleet shard wants the *same* tree
    /// (same `(files, files_per_dir, seed)`), so the tree is built once
    /// per process and shared behind an [`Arc`](std::sync::Arc). Traversals only read the
    /// tree, so sharing cannot change simulation results.
    pub fn synthesize_shared(files: u64, files_per_dir: u64, seed: u64) -> std::sync::Arc<Self> {
        use std::sync::{Arc, Mutex};
        type Key = (u64, u64, u64);
        static CACHE: Mutex<Vec<(Key, Arc<Namespace>)>> = Mutex::new(Vec::new());
        let lock = || CACHE.lock().expect("a namespace-cache holder panicked");
        let key = (files, files_per_dir, seed);
        if let Some((_, ns)) = lock().iter().find(|(k, _)| *k == key) {
            return Arc::clone(ns);
        }
        // Synthesized outside the lock so concurrent shards wanting a
        // *different* tree are not serialized behind this one.
        let ns = Arc::new(Namespace::synthesize(
            files,
            files_per_dir,
            &mut SimRng::seed_from_u64(seed),
        ));
        let mut cache = lock();
        if let Some((_, existing)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(existing);
        }
        cache.push((key, Arc::clone(&ns)));
        ns
    }

    /// Computes the content summary of a subtree at once (the unmetered
    /// traversal the pre-HD4995 namenode did while holding the lock for
    /// the whole walk): one quantum with no limit.
    pub fn summary(&self, root: InodeId) -> ContentSummary {
        TraversalCursor::new(self, root).advance(self, u64::MAX)
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

/// A resumable pre-order traversal that visits at most `limit` inodes
/// per call — the unit `content-summary.limit` meters. Between calls the
/// namenode releases the lock and lets writers in (HD4995's fix).
///
/// The subtree is one run of positions, so a quantum costs O(1) whatever
/// its limit; the traversal covers the subtree as it stood at the start.
#[derive(Debug, Clone)]
pub struct TraversalCursor {
    pos: usize,
    end: usize,
    visited: u64,
}

impl TraversalCursor {
    /// Starts a traversal of the subtree at `root`.
    pub fn new(ns: &Namespace, root: InodeId) -> Self {
        TraversalCursor {
            pos: root,
            end: (ns.end[root] as usize).min(ns.len()),
            visited: 0,
        }
    }

    /// Whether the traversal has visited everything.
    pub fn is_done(&self) -> bool {
        self.pos == self.end
    }

    /// Total inodes visited so far.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Visits up to `limit` inodes, returning the partial summary of
    /// this quantum.
    pub fn advance(&mut self, ns: &Namespace, limit: u64) -> ContentSummary {
        let steps = limit.min((self.end - self.pos) as u64);
        let (from, to) = (self.pos, self.pos + steps as usize);
        self.pos = to;
        self.visited += steps;
        let directory_count = u64::from(ns.dirs[to] - ns.dirs[from]);
        ContentSummary {
            file_count: steps - directory_count,
            directory_count,
            length: ns.bytes[to] - ns.bytes[from],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root / d1 / {f1: 100, f2: 200}, root / f3: 50; returns `d1` too.
    fn tiny() -> (Namespace, InodeId) {
        let mut ns = Namespace::new();
        let d1 = ns.add_directory(ns.root());
        ns.add_file(d1, 100);
        ns.add_file(d1, 200);
        ns.add_file(ns.root(), 50);
        (ns, d1)
    }

    #[test]
    fn summary_aggregates_subtree() {
        let (ns, _) = tiny();
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 3);
        assert_eq!(s.directory_count, 2); // root + d1
        assert_eq!(s.length, 350);
    }

    #[test]
    fn subtree_summary_excludes_siblings() {
        let (ns, d1) = tiny();
        let s = ns.summary(d1);
        assert_eq!(s.file_count, 2);
        assert_eq!(s.length, 300);
    }

    #[test]
    fn metered_traversal_matches_unmetered() {
        let mut rng = SimRng::seed_from_u64(2);
        let ns = Namespace::synthesize(500, 7, &mut rng);
        let full = ns.summary(ns.root());

        for limit in [1, 3, 64, 10_000] {
            let mut cursor = TraversalCursor::new(&ns, ns.root());
            let mut total = ContentSummary::default();
            let mut quanta = 0;
            while !cursor.is_done() {
                let part = cursor.advance(&ns, limit);
                total.file_count += part.file_count;
                total.directory_count += part.directory_count;
                total.length += part.length;
                quanta += 1;
            }
            assert_eq!(total, full, "limit {limit} changed the answer");
            let expected_quanta = (ns.len() as u64).div_ceil(limit);
            assert_eq!(quanta, expected_quanta, "limit {limit}");
            assert_eq!(cursor.visited(), ns.len() as u64);
        }
    }

    #[test]
    fn synthesize_counts() {
        let mut rng = SimRng::seed_from_u64(3);
        let ns = Namespace::synthesize(100, 8, &mut rng);
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 100);
        assert_eq!(s.directory_count as usize + s.file_count as usize, ns.len());
        // 100 files over dirs of 8: 13 dirs + root.
        assert_eq!(s.directory_count, 14);
        assert!(!ns.is_empty());
    }

    #[test]
    fn empty_namespace() {
        let ns = Namespace::new();
        assert!(ns.is_empty());
        let s = ns.summary(ns.root());
        assert_eq!(s.file_count, 0);
        assert_eq!(s.directory_count, 1);
    }

    #[test]
    #[should_panic(expected = "is a file")]
    fn adding_under_file_panics() {
        let mut ns = Namespace::new();
        let f = ns.add_file(ns.root(), 1);
        ns.add_file(f, 2);
    }

    #[test]
    #[should_panic(expected = "off the open path")]
    fn adding_under_closed_directory_panics() {
        let (mut ns, d1) = tiny(); // adding f3 under the root closed d1
        ns.add_directory(d1);
    }

    #[test]
    fn deterministic_synthesis() {
        let a = Namespace::synthesize(64, 5, &mut SimRng::seed_from_u64(9));
        let b = Namespace::synthesize(64, 5, &mut SimRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The same tree kept as explicit child lists: the reference a
    /// naive recursive walk runs over.
    struct Reference {
        children: Vec<Vec<InodeId>>,
        /// `None` for a directory.
        length: Vec<Option<u64>>,
    }

    impl Reference {
        /// Inodes under `id` in pre-order, children in insertion order.
        fn walk(&self, id: InodeId, out: &mut Vec<Option<u64>>) {
            out.push(self.length[id]);
            for &child in &self.children[id] {
                self.walk(child, out);
            }
        }
    }

    fn summarize(inodes: &[Option<u64>]) -> ContentSummary {
        let mut s = ContentSummary::default();
        for inode in inodes {
            match inode {
                Some(length) => {
                    s.file_count += 1;
                    s.length += length;
                }
                None => s.directory_count += 1,
            }
        }
        s
    }

    /// Builds a tree from `(kind, depth, length)` draws: each inode goes
    /// under a directory picked from the open path by `depth`, and is a
    /// directory when `kind` is 0.
    fn build(draws: &[(u8, usize, u64)]) -> (Namespace, Reference) {
        let mut ns = Namespace::new();
        let mut reference = Reference {
            children: vec![Vec::new()],
            length: vec![None],
        };
        let mut open = vec![ns.root()];
        for &(kind, depth, length) in draws {
            let at = depth % open.len();
            let parent = open[at];
            open.truncate(at + 1);
            let id = if kind == 0 {
                let id = ns.add_directory(parent);
                open.push(id);
                reference.length.push(None);
                id
            } else {
                reference.length.push(Some(length));
                ns.add_file(parent, length)
            };
            assert_eq!(id, reference.children.len());
            reference.children.push(Vec::new());
            reference.children[parent].push(id);
        }
        (ns, reference)
    }

    /// Meters a traversal of `root` at `limit` and checks every quantum
    /// against the reference walk.
    fn check_quanta(ns: &Namespace, reference: &Reference, root: InodeId, limit: u64) {
        let mut order = Vec::new();
        reference.walk(root, &mut order);
        assert_eq!(ns.summary(root), summarize(&order), "root {root}");
        let mut cursor = TraversalCursor::new(ns, root);
        let mut visited = 0;
        for quantum in order.chunks(usize::try_from(limit).unwrap_or(usize::MAX)) {
            assert!(!cursor.is_done(), "root {root} limit {limit}: done early");
            let part = cursor.advance(ns, limit);
            visited += quantum.len() as u64;
            assert_eq!(part, summarize(quantum), "root {root} limit {limit}");
            assert_eq!(cursor.visited(), visited, "root {root} limit {limit}");
        }
        assert!(cursor.is_done(), "root {root} limit {limit}: not done");
        assert_eq!(cursor.advance(ns, limit), ContentSummary::default());
        assert_eq!(cursor.visited(), visited);
    }

    proptest! {
        #[test]
        fn cursor_quanta_match_recursive_walk(
            draws in prop::collection::vec((0u8..3, 0usize..8, 0u64..1_000_000), 0..300),
            inner in 0usize..1_000,
            random_limit in 1u64..400,
        ) {
            let (ns, reference) = build(&draws);
            let dirs: Vec<InodeId> =
                (0..ns.len()).filter(|&id| reference.length[id].is_none()).collect();
            for root in [ns.root(), dirs[inner % dirs.len()]] {
                let len = ns.len() as u64;
                let subtree = ns.summary(root);
                let size = subtree.file_count + subtree.directory_count;
                for limit in [1, len, len - 1, size, size + 1, random_limit, u64::MAX] {
                    if limit > 0 {
                        check_quanta(&ns, &reference, root, limit);
                    }
                }
            }
        }
    }
}
