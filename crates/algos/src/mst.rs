//! Borůvka's minimum spanning forest as a prioritized task workload.
//!
//! Each task represents one *component*: executing it scans the component's
//! vertices for the minimum-weight outgoing edge (ties broken by endpoint
//! ids so the effective weights are distinct and the forest is unique),
//! merges the two components, and re-enqueues the merged component.  Task
//! priority is the component size — small components first, the same
//! "cheap tasks first" spirit as the paper's degree-based priority.
//!
//! Correctness under relaxation: an edge is only committed while the merge
//! lock is held **and** the component is verified to be exactly the set of
//! vertices that was scanned (same root, same member count).  Under that
//! condition the candidate really is the component's minimum outgoing edge,
//! so the cut property makes it safe regardless of the order in which the
//! scheduler runs component tasks.  A failed validation re-enqueues the
//! component and is counted as wasted work — which is precisely the quantity
//! the paper's MST experiment stresses.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;
use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};

use crate::engine::{DecreaseKeyWorkload, PoolJob, SequentialReference, TaskOutcome};

/// Union-find over vertices with atomic parents (reads are lock-free; parent
/// updates only happen under the merge lock).
struct UnionFind {
    parent: Vec<AtomicU32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Finds the representative of `v` with path halving.
    fn find(&self, mut v: u32) -> u32 {
        loop {
            let p = self.parent[v as usize].load(Ordering::Acquire);
            if p == v {
                return v;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            let _ = self.parent[v as usize].compare_exchange(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            v = gp;
        }
    }
}

/// Shared state of a Borůvka run.
struct BoruvkaState<'g, G> {
    graph: &'g G,
    uf: UnionFind,
    /// Vertices belonging to each root (meaningful only while the index is a
    /// live root).
    members: Vec<Mutex<Vec<u32>>>,
    /// Serializes merges; always acquired before member locks.
    merge_lock: Mutex<()>,
    total_weight: AtomicU64,
    edges_in_forest: AtomicU64,
}

/// The outcome of scanning a component for its cheapest outgoing edge.
struct ScanResult {
    /// Number of members observed (used to validate the scan at merge time).
    observed_size: usize,
    /// `(weight, from, to)` of the cheapest outgoing edge, if any.
    best: Option<(u32, u32, u32)>,
}

impl<'g, G: GraphView> BoruvkaState<'g, G> {
    fn new(graph: &'g G) -> Self {
        let n = graph.num_nodes();
        Self {
            graph,
            uf: UnionFind::new(n),
            members: (0..n as u32).map(|v| Mutex::new(vec![v])).collect(),
            merge_lock: Mutex::new(()),
            total_weight: AtomicU64::new(0),
            edges_in_forest: AtomicU64::new(0),
        }
    }

    /// Scans the component rooted at `root` for its minimum outgoing edge.
    /// Holds the component's member lock for the duration of the scan so the
    /// member set cannot change underneath it.
    fn scan_component(&self, root: u32) -> ScanResult {
        let members = self.members[root as usize].lock();
        let mut best: Option<(u32, u32, u32)> = None;
        for &v in members.iter() {
            for (u, w) in self.graph.neighbors(v) {
                if self.uf.find(u) == root {
                    continue;
                }
                let candidate = (w, v, u);
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            }
        }
        ScanResult {
            observed_size: members.len(),
            best,
        }
    }

    /// Attempts to commit the edge found by a scan.  Succeeds only if the
    /// component is still exactly what was scanned (same root, same size)
    /// and the edge still leaves the component; returns the surviving root
    /// on success.
    fn try_commit(&self, root: u32, scan: &ScanResult) -> Result<u32, ()> {
        let (weight, _from, to) = scan.best.ok_or(())?;
        let _guard = self.merge_lock.lock();
        if self.uf.find(root) != root {
            return Err(());
        }
        if self.members[root as usize].lock().len() != scan.observed_size {
            return Err(());
        }
        let other = self.uf.find(to);
        if other == root {
            return Err(());
        }
        // Union by member-list size so list concatenation is O(n log n)
        // in total.
        let root_size = self.members[root as usize].lock().len();
        let other_size = self.members[other as usize].lock().len();
        let (winner, loser) = if root_size >= other_size {
            (root, other)
        } else {
            (other, root)
        };
        self.uf.parent[loser as usize].store(winner, Ordering::Release);
        let mut moved = std::mem::take(&mut *self.members[loser as usize].lock());
        self.members[winner as usize].lock().append(&mut moved);
        self.total_weight
            .fetch_add(u64::from(weight), Ordering::Relaxed);
        self.edges_in_forest.fetch_add(1, Ordering::Relaxed);
        Ok(winner)
    }

    fn component_size(&self, root: u32) -> usize {
        self.members[root as usize].lock().len()
    }
}

/// Exact sequential Borůvka (round-based).  Returns
/// `(total weight, edges in forest, components processed)` where the last
/// value is the baseline task count for work-increase reporting.
pub fn sequential<G: GraphView>(graph: &G) -> (u64, u64, u64) {
    let state = BoruvkaState::new(graph);
    let n = graph.num_nodes() as u32;
    let mut tasks: Vec<u32> = (0..n).collect();
    let mut processed = 0u64;
    while !tasks.is_empty() {
        let mut next = Vec::new();
        for root in tasks {
            if state.uf.find(root) != root {
                continue;
            }
            processed += 1;
            let scan = state.scan_component(root);
            if scan.best.is_some() {
                let winner = state
                    .try_commit(root, &scan)
                    .expect("sequential commits cannot be invalidated");
                next.push(winner);
            }
        }
        next.sort_unstable();
        next.dedup();
        tasks = next;
    }
    (
        state.total_weight.load(Ordering::Relaxed),
        state.edges_in_forest.load(Ordering::Relaxed),
        processed,
    )
}

/// The Borůvka workload: one task per live component, priority = component
/// size, shared state = the union-find plus member lists of
/// `BoruvkaState`.  The output is `(forest weight, edges in forest)`; effective
/// edge weights are distinct (ties broken by endpoint ids), so the forest —
/// and therefore both quantities — is unique and compared exactly.
pub struct BoruvkaWorkload<'g, G = CsrGraph> {
    graph: &'g G,
    state: BoruvkaState<'g, G>,
}

impl<'g, G: GraphView> BoruvkaWorkload<'g, G> {
    /// Minimum spanning forest of `graph`.
    ///
    /// The graph must be symmetric (every edge present in both directions,
    /// e.g. built with `add_undirected_edge` or a symmetrized copy): the
    /// cut-property argument that makes relaxed execution safe scans a
    /// component's *outgoing* adjacency and assumes that covers every edge
    /// leaving the component.
    pub fn new(graph: &'g G) -> Self {
        Self {
            graph,
            state: BoruvkaState::new(graph),
        }
    }
}

impl<G: GraphView> PoolJob for BoruvkaWorkload<'_, G> {
    fn seed_tasks(&self) -> Vec<Task> {
        // One initial task per vertex; priority = component size (1).
        (0..self.graph.num_nodes() as u32)
            .map(|v| Task::new(1, u64::from(v)))
            .collect()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        let state = &self.state;
        let root = state.uf.find(task.value as u32);
        if u64::from(root) != task.value {
            // The component this task was created for has been merged away;
            // the surviving component has (or will get) its own task.
            return TaskOutcome::Wasted;
        }
        let scan = state.scan_component(root);
        if scan.best.is_none() {
            // Isolated component or already spanning its connected part.
            return TaskOutcome::Useful;
        }
        match state.try_commit(root, &scan) {
            Ok(winner) => {
                let size = state.component_size(winner) as u64;
                if (size as usize) < self.graph.num_nodes() {
                    push(Task::new(size, u64::from(winner)));
                }
                TaskOutcome::Useful
            }
            Err(()) => {
                // A concurrent merge invalidated the scan: re-enqueue the
                // (possibly renamed) component and count the wasted attempt.
                let current = state.uf.find(root);
                let size = state.component_size(current) as u64;
                push(Task::new(size, u64::from(current)));
                TaskOutcome::Wasted
            }
        }
    }
}

impl<G: GraphView> DecreaseKeyWorkload for BoruvkaWorkload<'_, G> {
    type Output = (u64, u64);

    fn name(&self) -> &'static str {
        "MST"
    }

    fn output(&self) -> (u64, u64) {
        (
            self.state.total_weight.load(Ordering::Relaxed),
            self.state.edges_in_forest.load(Ordering::Relaxed),
        )
    }

    fn sequential_reference(&self) -> SequentialReference<(u64, u64)> {
        let (weight, edges, baseline_tasks) = sequential(self.graph);
        SequentialReference {
            output: (weight, edges),
            baseline_tasks,
        }
    }
}

/// Kruskal's algorithm, used by tests as an independent reference for the
/// forest weight.
pub fn kruskal_weight<G: GraphView>(graph: &G) -> (u64, u64) {
    let mut edges: Vec<(u32, u32, u32)> = graph.edges().map(|e| (e.weight, e.from, e.to)).collect();
    edges.sort_unstable();
    let uf = UnionFind::new(graph.num_nodes());
    let mut total = 0u64;
    let mut count = 0u64;
    for (w, a, b) in edges {
        let ra = uf.find(a);
        let rb = uf.find(b);
        if ra != rb {
            uf.parent[ra as usize].store(rb, Ordering::Relaxed);
            total += u64::from(w);
            count += 1;
        }
    }
    (total, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::engine;
    use smq_graph::generators::{road_network, uniform_random, RoadNetworkParams};
    use smq_graph::GraphBuilder;
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_scheduler::{HeapSmq, SmqConfig};

    #[test]
    fn union_find_path_halving_terminates_and_is_consistent() {
        let uf = UnionFind::new(8);
        // Build a chain 0 <- 1 <- 2 <- ... <- 7 manually.
        for v in 1..8u32 {
            uf.parent[v as usize].store(v - 1, Ordering::Relaxed);
        }
        for v in 0..8u32 {
            assert_eq!(uf.find(v), 0);
        }
    }

    #[test]
    fn sequential_boruvka_matches_kruskal_on_small_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_undirected_edge(0, 1, 4)
            .add_undirected_edge(0, 2, 1)
            .add_undirected_edge(1, 2, 3)
            .add_undirected_edge(1, 3, 7)
            .add_undirected_edge(2, 3, 5)
            .add_undirected_edge(3, 4, 2);
        let g = b.build();
        let (weight, edges, _tasks) = sequential(&g);
        let (kruskal, kedges) = kruskal_weight(&g);
        assert_eq!(weight, kruskal);
        assert_eq!(weight, 1 + 3 + 5 + 2);
        assert_eq!(edges, 4);
        assert_eq!(kedges, 4);
    }

    #[test]
    fn sequential_handles_disconnected_graphs() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1, 3).add_undirected_edge(2, 3, 5);
        let g = b.build();
        let (weight, edges, _) = sequential(&g);
        assert_eq!(weight, 8);
        assert_eq!(edges, 2);
    }

    #[test]
    fn parallel_mst_matches_kruskal_with_smq() {
        hang_guard(|| {
            let g = road_network(RoadNetworkParams {
                width: 16,
                height: 16,
                removal_percent: 10,
                seed: 23,
            });
            let (kruskal, kedges) = kruskal_weight(&g);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3));
            let run = engine::run_parallel(&BoruvkaWorkload::new(&g), &smq, 3);
            assert_eq!(run.output, (kruskal, kedges));
        });
    }

    #[test]
    fn parallel_mst_matches_kruskal_with_multiqueue() {
        hang_guard(|| {
            let directed = uniform_random(300, 2_000, 1_000, 31);
            // Symmetrize so the forest spans the whole connected structure.
            let mut b = GraphBuilder::new(300);
            for e in directed.edges() {
                b.add_undirected_edge(e.from, e.to, e.weight);
            }
            let g = b.build();
            let (kruskal, kedges) = kruskal_weight(&g);
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
            let run = engine::run_parallel(&BoruvkaWorkload::new(&g), &mq, 2);
            assert_eq!(run.output, (kruskal, kedges));
        });
    }

    #[test]
    fn wasted_work_is_accounted() {
        hang_guard(|| {
            let g = road_network(RoadNetworkParams {
                width: 12,
                height: 12,
                removal_percent: 5,
                seed: 29,
            });
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let run = engine::run_parallel(&BoruvkaWorkload::new(&g), &smq, 2);
            let (_weight, edges_in_forest) = run.output;
            assert!(run.result.useful_tasks >= edges_in_forest);
            assert!(run.result.total_tasks() >= run.result.useful_tasks);
        });
    }
}
