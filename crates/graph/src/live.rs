//! Versioned dynamic graph: concurrent edge updates under live readers.
//!
//! [`LiveGraph`] layers batched edge mutations ([`GraphUpdate`]) over an
//! immutable [`CsrGraph`] base.  Writers publish whole batches as new
//! *versions*; readers [`pin`](LiveGraph::pin) the latest version and get
//! an immutable [`GraphSnapshot`] that stays bit-frozen for as long as
//! they hold it, no matter how many versions are published afterwards.
//! When the per-vertex overlay grows past a threshold, the publish path
//! folds everything into a fresh CSR base (compaction), so read overhead
//! stays bounded under sustained update traffic.
//!
//! # Publishing and pinning
//!
//! The newest version is an `Arc` behind a `RwLock`.
//!
//! * **Readers** hold the read lock only to clone that `Arc` out: a
//!   [`pin`](LiveGraph::pin) is one shared lock acquisition and one
//!   reference-count increment.
//! * **Writers** are serialized by a separate mutex.  A publish (or a
//!   forced [`compact`](LiveGraph::compact)) builds the next version —
//!   overlay edit, fold into a fresh CSR — under that mutex alone and takes
//!   the write lock only to swap the pointer, so a reader never waits while
//!   a batch is applied or a base is folded.
//!
//! A snapshot owns an `Arc` to its version's data, so a version lives
//! exactly as long as its last snapshot (or as the head, if it is still the
//! newest) and is freed when the last of them is dropped.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};

use crate::csr::{CsrGraph, Edge};
use crate::view::{GraphSource, GraphView};

/// A single edge mutation applied by [`LiveGraph::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Sets the weight of the first `from -> to` edge (in adjacency
    /// order); inserts the edge if no such edge exists.
    SetWeight {
        /// Source vertex.
        from: u32,
        /// Target vertex.
        to: u32,
        /// New weight.
        weight: u32,
    },
    /// Unconditionally appends a new `from -> to` edge.
    InsertEdge {
        /// Source vertex.
        from: u32,
        /// Target vertex.
        to: u32,
        /// Weight of the new edge.
        weight: u32,
    },
}

impl GraphUpdate {
    /// Source vertex of the update.
    pub fn from(&self) -> u32 {
        match *self {
            GraphUpdate::SetWeight { from, .. } | GraphUpdate::InsertEdge { from, .. } => from,
        }
    }

    /// Target vertex of the update.
    pub fn to(&self) -> u32 {
        match *self {
            GraphUpdate::SetWeight { to, .. } | GraphUpdate::InsertEdge { to, .. } => to,
        }
    }

    /// Weight carried by the update.
    pub fn weight(&self) -> u32 {
        match *self {
            GraphUpdate::SetWeight { weight, .. } | GraphUpdate::InsertEdge { weight, .. } => {
                weight
            }
        }
    }

    /// Deterministic batch of weight *decreases* (plus a few fresh edges)
    /// derived from `graph`'s existing edge list — the churn source for
    /// the incremental-SSSP workload.  Every `SetWeight` targets the first
    /// parallel `from -> to` edge and never increases its weight, so
    /// distances computed before the batch remain valid upper bounds.
    pub fn random_decreases<G: GraphView>(graph: &G, count: usize, seed: u64) -> Vec<GraphUpdate> {
        let edges: Vec<Edge> = graph.edges().collect();
        if edges.is_empty() || graph.num_nodes() == 0 {
            return Vec::new();
        }
        let n = graph.num_nodes() as u64;
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if next() % 4 == 0 {
                // A brand-new edge: a decrease from "unreachable".
                out.push(GraphUpdate::InsertEdge {
                    from: (next() % n) as u32,
                    to: (next() % n) as u32,
                    weight: 1 + (next() % 64) as u32,
                });
            } else {
                let e = edges[(next() as usize) % edges.len()];
                // Halve the weight of the *first* parallel from->to edge
                // (the one SetWeight matches), so the new weight never
                // exceeds the weight it replaces.
                let first = graph
                    .neighbors(e.from)
                    .find(|&(t, _)| t == e.to)
                    .map(|(_, w)| w)
                    .unwrap_or(e.weight);
                out.push(GraphUpdate::SetWeight {
                    from: e.from,
                    to: e.to,
                    // `.min(first)` keeps zero-weight edges at zero instead
                    // of raising them to 1, which would break the
                    // non-increasing precondition of incremental repair.
                    weight: (first / 2).max(1).min(first),
                });
            }
        }
        out
    }

    /// Deterministic batch of weight *increases* ("traffic slowdowns") on
    /// existing edges.  Weights only grow, so a Euclidean A* heuristic
    /// that was admissible on the base graph stays admissible on every
    /// published version — the mixed read/write service bench relies on
    /// this.  `max_factor` bounds the multiplier (clamped to at least 2).
    pub fn random_slowdowns<G: GraphView>(
        graph: &G,
        count: usize,
        seed: u64,
        max_factor: u32,
    ) -> Vec<GraphUpdate> {
        let edges: Vec<Edge> = graph.edges().collect();
        if edges.is_empty() {
            return Vec::new();
        }
        let factor_span = max_factor.max(2) - 1;
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let e = edges[(next() as usize) % edges.len()];
            let first = graph
                .neighbors(e.from)
                .find(|&(t, _)| t == e.to)
                .map(|(_, w)| w)
                .unwrap_or(e.weight);
            let factor = 2 + (next() % u64::from(factor_span)) as u32;
            out.push(GraphUpdate::SetWeight {
                from: e.from,
                to: e.to,
                weight: first.saturating_mul(factor).min(u32::MAX / 2),
            });
        }
        out
    }

    /// Applies `updates` to a flat edge list with exactly the semantics
    /// [`LiveGraph::publish`] uses per vertex: `SetWeight` rewrites the
    /// first matching `from -> to` edge (or appends when absent),
    /// `InsertEdge` always appends.  Building a [`CsrGraph`] from the
    /// mutated list reproduces the compacted live graph edge-for-edge —
    /// the compaction property test pins this equivalence.
    pub fn apply_to_edge_list(edges: &mut Vec<Edge>, updates: &[GraphUpdate]) {
        for u in updates {
            match *u {
                GraphUpdate::SetWeight { from, to, weight } => {
                    if let Some(e) = edges.iter_mut().find(|e| e.from == from && e.to == to) {
                        e.weight = weight;
                    } else {
                        edges.push(Edge { from, to, weight });
                    }
                }
                GraphUpdate::InsertEdge { from, to, weight } => {
                    edges.push(Edge { from, to, weight });
                }
            }
        }
    }
}

/// The immutable payload of one published version.
#[derive(Debug)]
struct VersionData {
    version: u64,
    base: Arc<CsrGraph>,
    /// Vertices whose adjacency differs from `base`: the stored `Vec` is
    /// the *full replacement* adjacency (base order, inserts appended).
    overlay: HashMap<u32, Arc<Vec<(u32, u32)>>>,
    num_edges: usize,
    total_weight: u64,
}

impl VersionData {
    /// Total `(target, weight)` entries held by the overlay — the metric
    /// compaction thresholds against.
    fn overlay_edges(&self) -> usize {
        self.overlay.values().map(|adj| adj.len()).sum()
    }
}

/// An immutable, pinned view of one [`LiveGraph`] version.
///
/// Cheap to clone (two `Arc`s deep) and `Send + Sync`; it keeps its
/// version's data alive independently of how far the live graph advances.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    data: Arc<VersionData>,
}

impl GraphSnapshot {
    /// The published version this snapshot pinned.
    pub fn version(&self) -> u64 {
        self.data.version
    }

    /// Number of overlay entries carried by this version (0 right after a
    /// compaction).
    pub fn overlay_edges(&self) -> usize {
        self.data.overlay_edges()
    }
}

impl GraphView for GraphSnapshot {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.data.base.num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.data.num_edges
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        match self.data.overlay.get(&v) {
            Some(adj) => adj.len(),
            None => self.data.base.degree(v),
        }
    }

    #[inline]
    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        match self.data.overlay.get(&v) {
            Some(adj) => adj.as_slice(),
            None => self.data.base.adjacency(v),
        }
        .iter()
        .copied()
    }

    #[inline]
    fn coordinates(&self, v: u32) -> Option<(f64, f64)> {
        self.data.base.coordinates(v)
    }

    #[inline]
    fn has_coordinates(&self) -> bool {
        self.data.base.has_coordinates()
    }

    #[inline]
    fn version(&self) -> u64 {
        self.data.version
    }

    fn total_weight(&self) -> u64 {
        self.data.total_weight
    }
}

/// An updatable graph serving pinned reads beside a writer.
///
/// See the module docs for how versions are published and pinned.  The
/// node count is fixed at construction: updates may change weights and add
/// edges, never vertices.
pub struct LiveGraph {
    /// The newest published version; replaced, never mutated in place.
    head: RwLock<Arc<VersionData>>,
    /// Serializes writers, so every publish builds on the head it read.
    writer: Mutex<()>,
    compact_threshold: usize,
    /// Statistics only: they publish no data, so every access is `Relaxed`.
    published: AtomicU64,
    compactions: AtomicU64,
}

impl std::fmt::Debug for LiveGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveGraph")
            .field("version", &self.current_version())
            .field("compact_threshold", &self.compact_threshold)
            .finish()
    }
}

impl LiveGraph {
    /// Wraps `base` with a compaction threshold of a quarter of the base
    /// edge count (at least 64 entries).
    pub fn new(base: Arc<CsrGraph>) -> LiveGraph {
        let threshold = (base.num_edges() / 4).max(64);
        LiveGraph::with_threshold(base, threshold)
    }

    /// Wraps `base` with an explicit compaction threshold (overlay entries
    /// that trigger a fold into a fresh CSR).
    fn with_threshold(base: Arc<CsrGraph>, compact_threshold: usize) -> LiveGraph {
        let data = VersionData {
            version: 1,
            total_weight: base.total_weight(),
            num_edges: base.num_edges(),
            overlay: HashMap::new(),
            base,
        };
        LiveGraph {
            head: RwLock::new(Arc::new(data)),
            writer: Mutex::new(()),
            compact_threshold,
            published: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Number of vertices — identical across all versions.
    pub fn num_nodes(&self) -> usize {
        self.pin().num_nodes()
    }

    /// The latest published version number.
    pub fn current_version(&self) -> u64 {
        self.head.read().unwrap_or_else(|e| e.into_inner()).version
    }

    /// How many update batches have been published.
    pub fn versions_published(&self) -> u64 {
        self.published.load(Relaxed)
    }

    /// How many publishes folded the overlay into a fresh CSR.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Relaxed)
    }

    /// Pins the latest published version.  Waits only while a writer swaps
    /// the head pointer, never while it builds a version.
    pub fn pin(&self) -> GraphSnapshot {
        let data = Arc::clone(&self.head.read().unwrap_or_else(|e| e.into_inner()));
        GraphSnapshot { data }
    }

    /// Publishes one batch of updates as a new version and returns its
    /// version number.  Writers are serialized; readers wait at most for
    /// the pointer swap.  Folds the overlay into a fresh CSR first when it
    /// has outgrown the compaction threshold.
    ///
    /// # Panics
    /// Panics if any update endpoint is out of range.
    pub fn publish(&self, updates: &[GraphUpdate]) -> u64 {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let head = self.pin().data;
        let n = head.base.num_nodes() as u32;
        let mut overlay = head.overlay.clone();
        let mut num_edges = head.num_edges;
        let mut total_weight = head.total_weight;
        for u in updates {
            let (from, to) = (u.from(), u.to());
            assert!(from < n && to < n, "update endpoint out of range");
            let base = &head.base;
            let adj = Arc::make_mut(
                overlay
                    .entry(from)
                    .or_insert_with(|| Arc::new(base.adjacency(from).to_vec())),
            );
            match *u {
                GraphUpdate::SetWeight { weight, .. } => {
                    if let Some(slot) = adj.iter_mut().find(|(t, _)| *t == to) {
                        total_weight = total_weight - u64::from(slot.1) + u64::from(weight);
                        slot.1 = weight;
                    } else {
                        adj.push((to, weight));
                        num_edges += 1;
                        total_weight += u64::from(weight);
                    }
                }
                GraphUpdate::InsertEdge { weight, .. } => {
                    adj.push((to, weight));
                    num_edges += 1;
                    total_weight += u64::from(weight);
                }
            }
        }
        let version = head.version + 1;
        let mut data = VersionData {
            version,
            base: head.base.clone(),
            overlay,
            num_edges,
            total_weight,
        };
        if data.overlay_edges() > self.compact_threshold {
            data = Self::fold(data);
            self.compactions.fetch_add(1, Relaxed);
        }
        self.install(data);
        self.published.fetch_add(1, Relaxed);
        version
    }

    /// Forces the overlay to be folded into a fresh CSR base now,
    /// regardless of the threshold.  No-op (and no new version) when the
    /// overlay is already empty.  Returns the current version afterwards.
    pub fn compact(&self) -> u64 {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let head = self.pin().data;
        if head.overlay.is_empty() {
            return head.version;
        }
        let version = head.version + 1;
        self.install(Self::fold(VersionData {
            version,
            base: head.base.clone(),
            overlay: head.overlay.clone(),
            num_edges: head.num_edges,
            total_weight: head.total_weight,
        }));
        self.compactions.fetch_add(1, Relaxed);
        version
    }

    /// Rebuilds `data` as a fresh CSR base with an empty overlay,
    /// preserving the version number, edge order, and coordinates.
    fn fold(data: VersionData) -> VersionData {
        let snapshot = GraphSnapshot {
            data: Arc::new(data),
        };
        let mut base = CsrGraph::from_replay(snapshot.num_nodes() as u32, |sink| {
            for e in snapshot.edges() {
                sink.edge(e.from, e.to, e.weight);
            }
        });
        if let Some(coords) = snapshot.data.base.all_coordinates() {
            base = base.with_coordinates(coords.to_vec());
        }
        let base = Arc::new(base);
        VersionData {
            version: snapshot.data.version,
            num_edges: base.num_edges(),
            total_weight: base.total_weight(),
            overlay: HashMap::new(),
            base,
        }
    }

    /// Makes `data` the version every later pin sees.  The `Arc` is built
    /// before the write lock is taken, and the caller holds `writer` and
    /// its own reference to the old head, so the swap never frees a version
    /// under the lock.
    fn install(&self, data: VersionData) {
        *self.head.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(data);
    }
}

impl GraphSource for LiveGraph {
    type View<'a> = GraphSnapshot;

    #[inline]
    fn pin(&self) -> GraphSnapshot {
        LiveGraph::pin(self)
    }

    fn source_num_nodes(&self) -> usize {
        self.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::GraphBuilder;
    use proptest::prelude::*;
    use std::sync::atomic::Ordering::SeqCst;

    fn diamond() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1)
            .add_edge(0, 2, 4)
            .add_edge(1, 3, 2)
            .add_edge(2, 3, 1);
        Arc::new(b.build())
    }

    fn edge_list<G: GraphView>(g: &G) -> Vec<Edge> {
        g.edges().collect()
    }

    #[test]
    fn zero_delta_snapshot_matches_base() {
        let base = diamond();
        let live = LiveGraph::new(base.clone());
        let snap = live.pin();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.num_nodes(), 4);
        assert_eq!(snap.num_edges(), 4);
        assert_eq!(snap.total_weight(), 8);
        assert_eq!(edge_list(&snap), edge_list(&*base));
    }

    #[test]
    fn snapshots_report_no_weight_bound() {
        let base = diamond();
        assert_eq!(base.max_weight(), 4);
        let live = LiveGraph::new(base);
        assert_eq!(live.pin().max_weight(), u32::MAX, "zero-delta snapshot");
        live.compact();
        assert_eq!(live.pin().max_weight(), u32::MAX, "compacted snapshot");
    }

    #[test]
    fn set_weight_and_insert_show_in_new_pins() {
        let live = LiveGraph::new(diamond());
        let v = live.publish(&[
            GraphUpdate::SetWeight {
                from: 0,
                to: 2,
                weight: 9,
            },
            GraphUpdate::InsertEdge {
                from: 3,
                to: 0,
                weight: 5,
            },
        ]);
        assert_eq!(v, 2);
        let snap = live.pin();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.num_edges(), 5);
        let n0: Vec<(u32, u32)> = snap.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 1), (2, 9)]);
        let n3: Vec<(u32, u32)> = snap.neighbors(3).collect();
        assert_eq!(n3, vec![(0, 5)]);
        assert_eq!(snap.degree(3), 1);
        assert_eq!(snap.total_weight(), 8 - 4 + 9 + 5);
    }

    #[test]
    fn set_weight_on_missing_edge_inserts() {
        let live = LiveGraph::new(diamond());
        live.publish(&[GraphUpdate::SetWeight {
            from: 3,
            to: 1,
            weight: 7,
        }]);
        let snap = live.pin();
        assert_eq!(snap.neighbors(3).collect::<Vec<_>>(), vec![(1, 7)]);
        assert_eq!(snap.num_edges(), 5);
    }

    #[test]
    fn pinned_snapshot_is_bit_frozen_under_update_burst() {
        // The snapshot-isolation regression test: a reader pinned before
        // a burst of updates sees an unchanged view until it lets go,
        // even across a forced compaction.
        let live = LiveGraph::with_threshold(diamond(), 2);
        let pinned = live.pin();
        let before_edges = edge_list(&pinned);
        let before_weight = pinned.total_weight();
        for round in 0..16u32 {
            live.publish(&[
                GraphUpdate::SetWeight {
                    from: 0,
                    to: 1,
                    weight: 100 + round,
                },
                GraphUpdate::InsertEdge {
                    from: 1,
                    to: 2,
                    weight: round + 1,
                },
            ]);
        }
        live.compact();
        assert_eq!(pinned.version(), 1, "pin predates the burst");
        assert_eq!(edge_list(&pinned), before_edges, "view must stay frozen");
        assert_eq!(pinned.total_weight(), before_weight);
        let fresh = live.pin();
        assert!(fresh.version() > pinned.version());
        assert_eq!(fresh.num_edges(), 4 + 16);
        assert_ne!(edge_list(&fresh), before_edges);
    }

    #[test]
    fn version_is_freed_with_its_last_snapshot() {
        let live = LiveGraph::with_threshold(diamond(), usize::MAX);
        let pinned = live.pin();
        let version_data = Arc::downgrade(&pinned.data);
        live.publish(&[GraphUpdate::SetWeight {
            from: 0,
            to: 1,
            weight: 2,
        }]);
        assert!(
            version_data.upgrade().is_some(),
            "a held snapshot keeps its version alive"
        );
        drop(pinned);
        assert!(
            version_data.upgrade().is_none(),
            "an old version is freed with its last snapshot"
        );
        for i in 0..20u32 {
            live.publish(&[GraphUpdate::SetWeight {
                from: 0,
                to: 1,
                weight: i + 3,
            }]);
        }
        let newest = live.pin();
        assert_eq!(newest.version(), 22);
        assert_eq!(newest.neighbors(0).next(), Some((1, 22)));
        assert_eq!(live.versions_published(), 21);
        assert_eq!(live.compactions(), 0);
    }

    #[test]
    fn compaction_folds_overlay_and_preserves_coordinates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10).add_edge(1, 2, 10);
        b.with_coordinates(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let live = LiveGraph::with_threshold(Arc::new(b.build()), 3);
        live.publish(&[GraphUpdate::InsertEdge {
            from: 0,
            to: 2,
            weight: 30,
        }]);
        assert_eq!(live.compactions(), 0, "one touched vertex stays overlaid");
        live.publish(&[
            GraphUpdate::InsertEdge {
                from: 1,
                to: 0,
                weight: 4,
            },
            GraphUpdate::SetWeight {
                from: 2,
                to: 0,
                weight: 6,
            },
        ]);
        assert_eq!(live.compactions(), 1, "overlay passed the threshold");
        let snap = live.pin();
        assert_eq!(snap.overlay_edges(), 0);
        assert_eq!(snap.num_edges(), 5);
        assert!(snap.has_coordinates());
        assert_eq!(snap.coordinates(2), Some((2.0, 0.0)));
        assert_eq!(
            snap.neighbors(0).collect::<Vec<_>>(),
            vec![(1, 10), (2, 30)]
        );
    }

    #[test]
    fn out_of_range_update_panics() {
        let live = LiveGraph::new(diamond());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            live.publish(&[GraphUpdate::InsertEdge {
                from: 0,
                to: 99,
                weight: 1,
            }])
        }));
        assert!(result.is_err());
    }

    #[test]
    fn decrease_batches_never_increase_first_match_weights() {
        let base = crate::generators::uniform_random(40, 200, 100, 7);
        let updates = GraphUpdate::random_decreases(&base, 64, 21);
        assert!(!updates.is_empty());
        for u in &updates {
            if let GraphUpdate::SetWeight { from, to, weight } = *u {
                let first = base
                    .neighbors(from)
                    .find(|&(t, _)| t == to)
                    .map(|(_, w)| w)
                    .expect("decreases target existing edges");
                assert!(weight <= first, "decrease must not increase weight");
                assert!(weight >= 1);
            }
        }
    }

    #[test]
    fn slowdown_batches_never_decrease_first_match_weights() {
        let base = crate::generators::uniform_random(40, 200, 100, 7);
        let updates = GraphUpdate::random_slowdowns(&base, 64, 33, 4);
        assert_eq!(updates.len(), 64);
        for u in &updates {
            match *u {
                GraphUpdate::SetWeight { from, to, weight } => {
                    let first = base
                        .neighbors(from)
                        .find(|&(t, _)| t == to)
                        .map(|(_, w)| w)
                        .expect("slowdowns target existing edges");
                    assert!(weight >= first, "slowdown must not decrease weight");
                }
                GraphUpdate::InsertEdge { .. } => panic!("slowdowns never insert"),
            }
        }
    }

    #[test]
    fn concurrent_readers_see_internally_consistent_snapshots() {
        hang_guard(|| {
            let base = Arc::new({
                let mut b = GraphBuilder::new(16);
                for v in 0..16u32 {
                    b.add_edge(v, (v + 1) % 16, 8).add_edge(v, (v + 5) % 16, 16);
                }
                b.build()
            });
            let live = Arc::new(LiveGraph::with_threshold(base.clone(), 8));
            let stop = Arc::new(AtomicU64::new(0));
            // Publishing starts only once every reader has verified a first
            // pin: on a box with fewer cores than threads all 200 publishes can
            // otherwise finish before a reader is first scheduled.
            let started = Arc::new(std::sync::Barrier::new(3));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let live = live.clone();
                    let stop = stop.clone();
                    let started = started.clone();
                    std::thread::spawn(move || {
                        let mut pins = 0u64;
                        while stop.load(SeqCst) == 0 {
                            let snap = live.pin();
                            // Internal consistency: the maintained counters
                            // must agree with a full walk of the pinned view.
                            let edges: Vec<Edge> = snap.edges().collect();
                            assert_eq!(edges.len(), snap.num_edges());
                            let weight: u64 = edges.iter().map(|e| u64::from(e.weight)).sum();
                            assert_eq!(weight, snap.total_weight());
                            pins += 1;
                            if pins == 1 {
                                started.wait();
                            }
                        }
                        pins
                    })
                })
                .collect();
            started.wait();
            for round in 0..200 {
                let updates = GraphUpdate::random_decreases(&*base, 4, round);
                live.publish(&updates);
            }
            stop.store(1, SeqCst);
            for r in readers {
                assert!(r.join().unwrap() > 0);
            }
            assert_eq!(live.versions_published(), 200);
            assert!(live.compactions() > 0);
        });
    }

    proptest! {
        /// Satellite: CSR base + arbitrary delta sequence, compacted,
        /// equals the CSR built directly from the mutated edge list —
        /// node/edge/weight equality via `edges()`.  Checked both before
        /// compaction (overlay read path) and after (folded CSR).
        #[test]
        fn compaction_equals_direct_csr(
            base_edges in proptest::collection::vec((0u32..12, 0u32..12, 1u32..50), 1..60),
            updates in proptest::collection::vec(
                (any::<bool>(), 0u32..12, 0u32..12, 1u32..50), 0..40),
            threshold in 0usize..30,
            split in 1usize..5,
        ) {
            const N: u32 = 12;
            let mut b = GraphBuilder::new(N);
            for &(from, to, w) in &base_edges {
                b.add_edge(from, to, w);
            }
            let base = Arc::new(b.build());
            let updates: Vec<GraphUpdate> = updates
                .into_iter()
                .map(|(set, from, to, weight)| if set {
                    GraphUpdate::SetWeight { from, to, weight }
                } else {
                    GraphUpdate::InsertEdge { from, to, weight }
                })
                .collect();

            let live = LiveGraph::with_threshold(base.clone(), threshold);
            for chunk in updates.chunks(split) {
                live.publish(chunk);
            }
            let overlaid = live.pin();
            live.compact();
            let compacted = live.pin();
            prop_assert_eq!(compacted.overlay_edges(), 0);

            // Reference: apply the same semantics to a flat edge list and
            // build the CSR directly.
            let mut expected_edges: Vec<Edge> = base.edges().collect();
            GraphUpdate::apply_to_edge_list(&mut expected_edges, &updates);
            let mut eb = GraphBuilder::new(N);
            for e in &expected_edges {
                eb.add_edge(e.from, e.to, e.weight);
            }
            let expected = eb.build();

            prop_assert_eq!(overlaid.num_nodes(), expected.num_nodes());
            prop_assert_eq!(overlaid.num_edges(), expected.num_edges());
            prop_assert_eq!(overlaid.total_weight(), expected.total_weight());
            let overlaid_edges: Vec<Edge> = overlaid.edges().collect();
            let compacted_edges: Vec<Edge> = compacted.edges().collect();
            let expected_edges: Vec<Edge> = expected.edges().collect();
            prop_assert_eq!(&overlaid_edges, &expected_edges, "overlay read path");
            prop_assert_eq!(&compacted_edges, &expected_edges, "compacted CSR");
            prop_assert_eq!(compacted.total_weight(), expected.total_weight());
        }
    }
}
