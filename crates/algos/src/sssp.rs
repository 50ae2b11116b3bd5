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
//! [`engine`]; the same workload with a unit weight mapping
//! is BFS (see [`crate::bfs`]).

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::{prefetch_read, Task};
use smq_graph::{CsrGraph, GraphView};
use smq_runtime::Scratch;

use crate::engine::{self, DecreaseKeyWorkload, SequentialReference, TaskOutcome};

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

/// The SSSP workload: one `(distance, vertex)` task per relaxation, shared
/// state = one atomic tentative distance per vertex, priority = distance.
///
/// A run is a set of *seeds* applied to a set of starting labels: from
/// scratch the labels are all unreached and the one seed is `(source, 0)`;
/// an incremental repair (`crate::incremental`) starts from the pre-update
/// distances and seeds the heads of the updated edges.  Both relax through
/// the same `process`.
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
    distances: Vec<AtomicU64>,
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
    /// and display label.  Seeds that do not improve on their label are
    /// dropped here, so every initial task is live.
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
        let distances: Vec<AtomicU64> = match &start {
            Some(labels) => labels.iter().map(|&d| AtomicU64::new(d)).collect(),
            None => (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        };
        seeds.retain(|&(v, d)| engine::try_decrease(&distances[v as usize], d));
        Self {
            graph,
            label,
            edge_weight,
            seeds,
            start,
            distances,
        }
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

    fn initial_tasks(&self) -> Vec<Task> {
        self.seeds
            .iter()
            .map(|&(v, d)| Task::new(d, u64::from(v)))
            .collect()
    }

    fn process(
        &self,
        task: Task,
        push: &mut dyn FnMut(Task),
        _scratch: &mut Scratch,
    ) -> TaskOutcome {
        let v = task.value as usize;
        let d = task.key;
        if d > self.distances[v].load(Ordering::Relaxed) {
            return TaskOutcome::Wasted;
        }
        for (u, w) in self.graph.neighbors(v as u32) {
            let nd = d + (self.edge_weight)(w);
            if engine::try_decrease(&self.distances[u as usize], nd) {
                push(Task::new(nd, u64::from(u)));
            }
        }
        TaskOutcome::Useful
    }

    #[inline]
    fn prefetch(&self, task: Task) {
        // The two misses `process` starts with: the staleness check's
        // distance slot, then the head of the adjacency scan.
        prefetch_read(&self.distances, task.value as usize);
        self.graph.prefetch_vertex(task.value as u32);
    }

    fn output(&self) -> Vec<u64> {
        self.distances
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
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
    use smq_core::Scheduler;
    use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_obim::{Obim, ObimConfig};
    use smq_pool::PoolConfig;
    use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
    use smq_spraylist::{SprayList, SprayListConfig};

    fn small_road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 24,
            height: 24,
            removal_percent: 10,
            seed: 3,
        })
    }

    #[test]
    fn sequential_matches_hand_computed_graph() {
        use smq_graph::GraphBuilder;
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
        use smq_graph::GraphBuilder;
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let (dist, settled) = sequential(&g, 0);
        assert_eq!(dist[2], u64::MAX);
        assert_eq!(settled, 2);
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
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3));
        check_parallel_matches_sequential(&smq, 3);
    }

    #[test]
    fn smq_skiplist_parallel_sssp_is_correct() {
        let smq: SkipListSmq<Task> = SkipListSmq::new(SmqConfig::default_for_threads(2));
        check_parallel_matches_sequential(&smq, 2);
    }

    #[test]
    fn multiqueue_parallel_sssp_is_correct() {
        let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
        check_parallel_matches_sequential(&mq, 2);
    }

    #[test]
    fn obim_parallel_sssp_is_correct() {
        let obim: Obim<Task> = Obim::new(ObimConfig::obim(2, 4, 8));
        check_parallel_matches_sequential(&obim, 2);
    }

    #[test]
    fn pmod_parallel_sssp_is_correct() {
        let pmod: Obim<Task> = Obim::new(ObimConfig::pmod(2, 4, 8));
        check_parallel_matches_sequential(&pmod, 2);
    }

    #[test]
    fn spraylist_parallel_sssp_is_correct() {
        let sl: SprayList<Task> = SprayList::new(SprayListConfig::default_for_threads(2));
        check_parallel_matches_sequential(&sl, 2);
    }

    #[test]
    fn workload_reports_equivalence_against_its_own_reference() {
        let g = small_road();
        let workload = SsspWorkload::new(&g, 0);
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
        let (run, reference) = engine::run_and_check(&workload, &smq, 2);
        assert_eq!(run.output, reference.output);
        assert!(reference.baseline_tasks > 0);
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
        // One thread + an exact local priority queue + the per-task path
        // (batch 1) = Dijkstra's ordering, so (almost) no task should be
        // stale.
        let g = small_social();
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let run = engine::run_parallel_with(
            &SsspWorkload::new(&g, 0),
            &smq,
            PoolConfig::new(1).with_batch(1),
        );
        let (expected, settled) = sequential(&g, 0);
        assert_eq!(run.output, expected);
        // Exactly one useful (settling) task per reachable vertex; the only
        // overhead is lazy-deletion duplicates, which exist even in exact
        // Dijkstra, so we only bound them loosely.
        assert_eq!(run.result.useful_tasks, settled);
        assert!(run.result.work_increase(settled) < 2.0);
    }

    #[test]
    fn single_threaded_default_batch_stays_exact_and_cheap_on_social_graph() {
        // The default path pops 8 at a time, so one worker no longer runs
        // in Dijkstra order: a vertex may settle more than once, but the
        // answer is the same and the extra work stays bounded.
        let g = small_social();
        let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
        let run = engine::run_parallel(&SsspWorkload::new(&g, 0), &smq, 1);
        let (expected, settled) = sequential(&g, 0);
        assert_eq!(run.output, expected);
        assert!(run.result.useful_tasks >= settled);
        assert!(run.result.work_increase(settled) < 2.0);
    }
}
