//! Single-source shortest paths over a relaxed priority scheduler.
//!
//! The task formulation is the one Galois/PMOD use for delta-stepping-style
//! SSSP: a task is `(tentative distance, vertex)`, priority = distance.
//! Executing a task whose distance is already stale (a shorter path was
//! found meanwhile) is *wasted work*; the better the scheduler's rank
//! guarantees, the fewer such tasks are executed — this is the core
//! mechanism behind the paper's Figure 2 results.
//!
//! The parallel run is [`SsspWorkload`] driven by the generic
//! [`engine`](crate::engine); the same workload with a unit weight mapping
//! is BFS (see [`crate::bfs`]).

use std::sync::atomic::{AtomicU32, AtomicU64};

use smq_core::{prefetch_read, Task};
use smq_graph::{CsrGraph, GraphView};

use crate::engine::{DecreaseKeyWorkload, LabelStore, PoolJob, SequentialReference, TaskOutcome};

/// Exact sequential Dijkstra.  Returns the distance array and the number of
/// settled vertices (the baseline task count for work-increase reporting).
pub fn sequential<G: GraphView>(graph: &G, source: u32) -> (Vec<u64>, u64) {
    let unreached = vec![u64::MAX; graph.num_nodes()];
    sequential_from(graph, unreached, &[(source, 0)], u64::from)
}

/// The one sequential Dijkstra: starts from the labels in `dist` (upper
/// bounds on the true distances), applies every `(vertex, distance)` seed
/// that improves on its label, and settles outward from those.  From
/// scratch that is all-`u64::MAX` labels and the seed `(source, 0)`; a
/// repair (`crate::incremental`) passes the pre-update distances and the
/// heads of the updated edges; BFS passes a constant `edge_weight`.
/// Returns the final labels and the number of settled vertices.
pub fn sequential_from<G: GraphView>(
    graph: &G,
    mut dist: Vec<u64>,
    seeds: &[(u32, u64)],
    edge_weight: impl Fn(u32) -> u64,
) -> (Vec<u64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut heap = BinaryHeap::new();
    for &(v, d) in seeds {
        if d < dist[v as usize] {
            dist[v as usize] = d;
            heap.push(Reverse((d, v)));
        }
    }
    let mut settled = 0u64;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        settled += 1;
        for (u, w) in graph.neighbors(v) {
            let nd = d + edge_weight(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    (dist, settled)
}

/// Where a run keeps its tentative distances: picked once, at
/// construction, and never switched.
enum Labels {
    /// Four bytes per vertex, `u32::MAX` while unreached.
    Narrow(Vec<AtomicU32>),
    /// Eight bytes per vertex, `u64::MAX` while unreached.
    Wide(Vec<AtomicU64>),
}

/// Whether every label a run from scratch can *propose* provably stays
/// below `u32::MAX`.  Labels only strictly decrease and weights are
/// non-negative, so an accepted label is the length of a *simple* path from
/// the source (at most `n − 1` edges), and a proposal is an accepted label
/// plus one more edge: at most `n` edges, each weighing at most
/// `edge_weight(max_weight)` (the mapping is non-decreasing).
fn labels_fit_u32<G: GraphView>(graph: &G, edge_weight: impl Fn(u32) -> u64) -> bool {
    edge_weight(graph.max_weight())
        .checked_mul(graph.num_nodes() as u64)
        .is_some_and(|bound| bound < u64::from(u32::MAX))
}

/// The SSSP workload: one `(distance, vertex)` task per relaxation, shared
/// state = one atomic tentative distance per vertex, priority = distance.
///
/// A run is a set of *seeds* applied to a set of starting labels: from
/// scratch the labels are all unreached and the one seed is `(source, 0)`;
/// an incremental repair (`crate::incremental`) starts from the pre-update
/// distances and seeds the heads of the updated edges.  Both relax through
/// the same kernel.
///
/// The labels live in one of two [`LabelStore`]s, picked once at
/// construction: a `Vec<AtomicU32>` (half the bytes per vertex) when the
/// run starts from scratch and `edge_weight(graph.max_weight()) × n` is
/// below `u32::MAX`, which bounds every label the run can propose, and a
/// `Vec<AtomicU64>` otherwise — for a repair, and for a view that knows no
/// weight bound (a `LiveGraph` snapshot).  `process`, `prefetch` and
/// `output` branch on the store once per call into the same generic
/// kernel, so both stores make the same decisions; the output is
/// `Vec<u64>` either way, `u64::MAX` for unreached vertices.
///
/// Generic over the edge-weight mapping so BFS (constant weight 1) shares
/// the implementation — the only difference between the two workloads —
/// and over the [`GraphView`] it reads, so the same monomorphized code
/// runs on a static [`CsrGraph`] or a pinned live-graph snapshot.
pub struct SsspWorkload<'g, G = CsrGraph, F = fn(u32) -> u64> {
    graph: &'g G,
    label: &'static str,
    edge_weight: F,
    /// The `(vertex, distance)` seeds that improved on a starting label.
    seeds: Vec<(u32, u64)>,
    /// The labels a repair started from; `None` from scratch, where every
    /// label starts unreached and no second per-vertex array exists.
    start: Option<Vec<u64>>,
    labels: Labels,
}

impl<'g, G: GraphView> SsspWorkload<'g, G> {
    /// SSSP from `source` with the graph's own edge weights.
    pub fn new(graph: &'g G, source: u32) -> Self {
        Self::from_labels(graph, "SSSP", u64::from, None, vec![(source, 0)])
    }

    /// BFS from `source`: every edge counts 1 hop.
    pub fn bfs(graph: &'g G, source: u32) -> Self {
        Self::from_labels(graph, "BFS", |_| 1, None, vec![(source, 0)])
    }
}

impl<'g, G, F> SsspWorkload<'g, G, F>
where
    G: GraphView,
    F: Fn(u32) -> u64 + Sync,
{
    /// The one constructor: relaxes outward from `seeds` applied to the
    /// `start` labels (`None`: all unreached) under the given weight mapping
    /// (non-decreasing in the weight) and display label.  Picks the label
    /// store (see the type's docs).  Seeds that do not improve on their
    /// label are dropped here, so every initial task is live.
    pub(crate) fn from_labels(
        graph: &'g G,
        label: &'static str,
        edge_weight: F,
        start: Option<Vec<u64>>,
        mut seeds: Vec<(u32, u64)>,
    ) -> Self {
        let n = graph.num_nodes();
        assert!(
            seeds.iter().all(|&(v, _)| (v as usize) < n),
            "seed vertex out of range"
        );
        let labels = match &start {
            Some(start) => Labels::Wide(start.iter().map(|&d| AtomicU64::new(d)).collect()),
            None if labels_fit_u32(graph, &edge_weight) => {
                Labels::Narrow((0..n).map(|_| AtomicU32::new(u32::MAX)).collect())
            }
            None => Labels::Wide((0..n).map(|_| AtomicU64::new(u64::MAX)).collect()),
        };
        seeds.retain(|&(v, d)| match &labels {
            Labels::Narrow(store) => store.try_decrease(v, d),
            Labels::Wide(store) => store.try_decrease(v, d),
        });
        Self {
            graph,
            label,
            edge_weight,
            seeds,
            start,
            labels,
        }
    }

    /// The width of the label store this run picked: 32 or 64 bits.
    #[cfg(test)]
    pub(crate) fn label_bits(&self) -> u32 {
        match self.labels {
            Labels::Narrow(_) => 32,
            Labels::Wide(_) => 64,
        }
    }

    /// The kernel: skips a stale task, else relaxes every out-edge of its
    /// vertex and pushes a task for each label this call lowered.
    #[inline]
    fn relax<L: LabelStore>(
        &self,
        labels: &L,
        task: Task,
        push: &mut dyn FnMut(Task),
    ) -> TaskOutcome {
        let v = task.value as u32;
        let d = task.key;
        if d > labels.get(v) {
            return TaskOutcome::Wasted;
        }
        for (u, w) in self.graph.neighbors(v) {
            let nd = d + (self.edge_weight)(w);
            if labels.try_decrease(u, nd) {
                push(Task::new(nd, u64::from(u)));
            }
        }
        TaskOutcome::Useful
    }
}

/// Every label of `labels` as the run's output: `u64::MAX` for unreached.
fn read_labels<L: LabelStore>(labels: &L, n: usize) -> Vec<u64> {
    (0..n as u32)
        .map(|v| match labels.get(v) {
            d if d == L::UNREACHED => u64::MAX,
            d => d,
        })
        .collect()
}

impl<G, F> PoolJob for SsspWorkload<'_, G, F>
where
    G: GraphView,
    F: Fn(u32) -> u64 + Sync,
{
    fn seed_tasks(&self) -> Vec<Task> {
        self.seeds
            .iter()
            .map(|&(v, d)| Task::new(d, u64::from(v)))
            .collect()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        match &self.labels {
            Labels::Narrow(store) => self.relax(store, task, push),
            Labels::Wide(store) => self.relax(store, task, push),
        }
    }

    #[inline]
    fn prefetch(&self, task: Task) {
        // The two misses `process` starts with: the staleness check's
        // label slot, then the head of the adjacency scan.
        let v = task.value as usize;
        match &self.labels {
            Labels::Narrow(store) => prefetch_read(store, v),
            Labels::Wide(store) => prefetch_read(store, v),
        }
        self.graph.prefetch_vertex(v as u32);
    }
}

impl<G, F> DecreaseKeyWorkload for SsspWorkload<'_, G, F>
where
    G: GraphView,
    F: Fn(u32) -> u64 + Sync,
{
    type Output = Vec<u64>;

    fn name(&self) -> &'static str {
        self.label
    }

    fn output(&self) -> Vec<u64> {
        let n = self.graph.num_nodes();
        match &self.labels {
            Labels::Narrow(store) => read_labels(store, n),
            Labels::Wide(store) => read_labels(store, n),
        }
    }

    fn sequential_reference(&self) -> SequentialReference<Vec<u64>> {
        let unreached = || vec![u64::MAX; self.graph.num_nodes()];
        let start = self.start.clone().unwrap_or_else(unreached);
        let (output, baseline_tasks) =
            sequential_from(self.graph, start, &self.seeds, &self.edge_weight);
        SequentialReference {
            output,
            baseline_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::engine;
    use smq_core::Scheduler;
    use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
    use smq_graph::{GraphBuilder, LiveGraph};
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_obim::{Obim, ObimConfig};
    use smq_pool::PoolConfig;
    use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
    use smq_spraylist::{SprayList, SprayListConfig};
    use std::sync::Arc;

    fn small_road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 24,
            height: 24,
            removal_percent: 10,
            seed: 3,
        })
    }

    fn smq(threads: usize) -> HeapSmq<Task> {
        HeapSmq::new(SmqConfig::default_for_threads(threads))
    }

    #[test]
    fn sequential_matches_hand_computed_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 10)
            .add_edge(0, 2, 3)
            .add_edge(2, 1, 4)
            .add_edge(1, 3, 2)
            .add_edge(2, 3, 8)
            .add_edge(3, 4, 1);
        let g = b.build();
        let (dist, settled) = sequential(&g, 0);
        assert_eq!(dist, vec![0, 7, 3, 9, 10]);
        assert_eq!(settled, 5);
    }

    #[test]
    fn unreachable_vertices_stay_at_max() {
        hang_guard(|| {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1, 1);
            let g = b.build();
            let (dist, settled) = sequential(&g, 0);
            assert_eq!(dist[2], u64::MAX);
            assert_eq!(settled, 2);
            let workload = SsspWorkload::new(&g, 0);
            assert_eq!(workload.label_bits(), 32);
            let run = engine::run_parallel(&workload, &smq(2), 2);
            assert_eq!(run.output, dist);
        });
    }

    fn check_parallel_matches_sequential<S: Scheduler<Task>>(scheduler: &S, threads: usize) {
        let g = small_road();
        let (expected, _) = sequential(&g, 0);
        let run = engine::run_parallel(&SsspWorkload::new(&g, 0), scheduler, threads);
        assert_eq!(run.output, expected);
        assert!(run.result.useful_tasks > 0);
    }

    #[test]
    fn smq_heap_parallel_sssp_is_correct() {
        hang_guard(|| check_parallel_matches_sequential(&smq(3), 3));
    }

    #[test]
    fn smq_skiplist_parallel_sssp_is_correct() {
        hang_guard(|| {
            let smq: SkipListSmq<Task> = SkipListSmq::new(SmqConfig::default_for_threads(2));
            check_parallel_matches_sequential(&smq, 2);
        });
    }

    #[test]
    fn multiqueue_parallel_sssp_is_correct() {
        hang_guard(|| {
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
            check_parallel_matches_sequential(&mq, 2);
        });
    }

    #[test]
    fn obim_parallel_sssp_is_correct() {
        hang_guard(|| {
            let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 4, 8));
            check_parallel_matches_sequential(&obim, 2);
        });
    }

    #[test]
    fn pmod_parallel_sssp_is_correct() {
        hang_guard(|| {
            let pmod: Obim<Task> = Obim::new(ObimConfig::pmod(2, 4, 8));
            check_parallel_matches_sequential(&pmod, 2);
        });
    }

    #[test]
    fn spraylist_parallel_sssp_is_correct() {
        hang_guard(|| {
            let sl: SprayList<Task> = SprayList::new(SprayListConfig::default_for_threads(2));
            check_parallel_matches_sequential(&sl, 2);
        });
    }

    #[test]
    fn workload_reports_equivalence_against_its_own_reference() {
        hang_guard(|| {
            let g = small_road();
            let workload = SsspWorkload::new(&g, 0);
            let (run, reference) = engine::run_and_check(&workload, &smq(2), 2);
            assert_eq!(run.output, reference.output);
            assert!(reference.baseline_tasks > 0);
        });
    }

    /// Runs `workload` on two threads and checks it against `expected`,
    /// returning the width of the label store it picked.
    fn parallel_label_bits(workload: &SsspWorkload<'_, impl GraphView>, expected: &[u64]) -> u32 {
        let run = engine::run_parallel(workload, &smq(2), 2);
        assert_eq!(run.output, expected);
        workload.label_bits()
    }

    // The benchmark's graphs: only the choice is checked here; the small
    // graphs below check both stores' results against `sequential`.
    #[test]
    fn benchmark_road_grid_picks_the_narrow_store() {
        let g = road_network(RoadNetworkParams {
            width: 768,
            height: 768,
            removal_percent: 10,
            seed: 1,
        });
        assert_eq!(SsspWorkload::new(&g, 0).label_bits(), 32);
    }

    #[test]
    fn benchmark_power_law_graph_picks_the_narrow_store() {
        let g = power_law(PowerLawParams {
            nodes: 400_000,
            avg_degree: 16,
            exponent: 2.1,
            seed: 1,
            ..PowerLawParams::default()
        });
        assert_eq!(SsspWorkload::new(&g, 0).label_bits(), 32);
    }

    /// `0 -2³¹-> 1 -2³¹-> 2`: the path's length, 2³², does not fit.
    fn heavy_path() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1 << 31).add_edge(1, 2, 1 << 31);
        b.build()
    }

    #[test]
    fn weights_past_the_bound_pick_the_wide_store() {
        hang_guard(|| {
            let g = heavy_path();
            let (expected, _) = sequential(&g, 0);
            assert_eq!(expected, vec![0, 1 << 31, 1 << 32]);
            assert_eq!(
                parallel_label_bits(&SsspWorkload::new(&g, 0), &expected),
                64
            );
        });
    }

    #[test]
    fn bfs_picks_the_narrow_store_whatever_the_weights() {
        hang_guard(|| {
            let g = heavy_path();
            let (expected, _) = crate::bfs::sequential(&g, 0);
            assert_eq!(
                parallel_label_bits(&SsspWorkload::bfs(&g, 0), &expected),
                32
            );
        });
    }

    #[test]
    fn a_live_snapshot_picks_the_wide_store() {
        hang_guard(|| {
            let g = small_road();
            let (expected, _) = sequential(&g, 0);
            let live = LiveGraph::new(Arc::new(g));
            let snapshot = live.pin();
            let workload = SsspWorkload::new(&snapshot, 0);
            assert_eq!(parallel_label_bits(&workload, &expected), 64);
        });
    }

    /// The cycle `0 -> 1 -> .. -> n−1 -> 0`, every edge weighing `w`: the
    /// last edge proposes `n·w` for the source, the largest proposal a run
    /// over `n` vertices can make.
    fn cycle(n: u32, w: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, w);
        }
        b.build()
    }

    #[test]
    fn the_bound_is_exact_at_its_edge() {
        hang_guard(|| {
            // `3·w < u32::MAX` holds up to `w = u32::MAX / 3 − 1`.
            for (w, bits) in [(u32::MAX / 3 - 1, 32), (u32::MAX / 3, 64)] {
                let g = cycle(3, w);
                let (expected, _) = sequential(&g, 0);
                let workload = SsspWorkload::new(&g, 0);
                assert_eq!(parallel_label_bits(&workload, &expected), bits, "w = {w}");
            }
            assert!(labels_fit_u32(&GraphBuilder::new(0).build(), u64::from));
        });
    }

    #[test]
    fn a_two_cycle_of_heavy_edges_stays_exact() {
        hang_guard(|| {
            // One edge of `u32::MAX − 1` is a label that fits, but relaxing
            // back along the cycle proposes twice that.
            let g = cycle(2, u32::MAX - 1);
            let (expected, _) = sequential(&g, 0);
            assert_eq!(expected, vec![0, u64::from(u32::MAX - 1)]);
            assert_eq!(
                parallel_label_bits(&SsspWorkload::new(&g, 0), &expected),
                64
            );
        });
    }

    fn small_social() -> CsrGraph {
        power_law(PowerLawParams {
            nodes: 2_000,
            avg_degree: 8,
            exponent: 2.2,
            max_weight: 255,
            seed: 5,
        })
    }

    #[test]
    fn single_threaded_smq_has_no_wasted_work_on_social_graph() {
        hang_guard(|| {
            // One thread + an exact local priority queue + the per-task path
            // (batch 1) = Dijkstra's ordering, so (almost) no task should be
            // stale.
            let g = small_social();
            let run = engine::run_parallel_with(
                &SsspWorkload::new(&g, 0),
                &smq(1),
                PoolConfig::new(1).with_batch(1),
            );
            let (expected, settled) = sequential(&g, 0);
            assert_eq!(run.output, expected);
            // Exactly one useful (settling) task per reachable vertex; the
            // only overhead is lazy-deletion duplicates, which exist even in
            // exact Dijkstra, so we only bound them loosely.
            assert_eq!(run.result.useful_tasks, settled);
            assert!(run.result.work_increase(settled) < 2.0);
        });
    }

    #[test]
    fn single_threaded_default_batch_stays_exact_and_cheap_on_social_graph() {
        hang_guard(|| {
            // The default path pops 8 at a time, so one worker no longer runs
            // in Dijkstra order: a vertex may settle more than once, but the
            // answer is the same and the extra work stays bounded.
            let g = small_social();
            let run = engine::run_parallel(&SsspWorkload::new(&g, 0), &smq(1), 1);
            let (expected, settled) = sequential(&g, 0);
            assert_eq!(run.output, expected);
            assert!(run.result.useful_tasks >= settled);
            assert!(run.result.work_increase(settled) < 2.0);
        });
    }
}
