//! Point-to-point shortest path with an A* distance heuristic.
//!
//! The paper evaluates A* on the road graphs using an equirectangular
//! distance approximation as the heuristic.  Our synthetic road networks
//! carry planar coordinates, so the heuristic is the scaled Euclidean
//! distance to the target; the scale is chosen to stay *admissible* (never
//! overestimate) with respect to the generator's weight formula, which keeps
//! the parallel result exact.
//!
//! Task priority is the usual `f = g + h`; a task is wasted if its `g` value
//! is stale or if the vertex can no longer improve the best known route to
//! the target.  The parallel run is [`AstarWorkload`] on the generic
//! [`engine`](crate::engine).

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};

use crate::engine::{DecreaseKeyWorkload, LabelStore, PoolJob, SequentialReference, TaskOutcome};

/// The admissible heuristic: scaled Euclidean distance between `v` and the
/// target.  The road generator assigns each edge a weight of at least
/// `100 × euclidean length`, so scaling by 100 and rounding down never
/// overestimates the remaining cost.  Graphs without coordinates fall back
/// to a zero heuristic (plain Dijkstra).
pub fn heuristic<G: GraphView>(graph: &G, v: u32, target: u32) -> u64 {
    match (graph.coordinates(v), graph.coordinates(target)) {
        (Some((vx, vy)), Some((tx, ty))) => {
            let d = ((vx - tx).powi(2) + (vy - ty).powi(2)).sqrt();
            (d * 100.0).floor().max(0.0) as u64
        }
        _ => 0,
    }
}

/// Exact sequential A*.  Returns the source→target distance and the number
/// of expanded vertices (baseline task count).
pub fn sequential<G: GraphView>(graph: &G, source: u32, target: u32) -> (u64, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_nodes();
    let mut g_score = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut expanded = 0u64;
    g_score[source as usize] = 0;
    heap.push(Reverse((heuristic(graph, source, target), 0u64, source)));
    while let Some(Reverse((_f, g, v))) = heap.pop() {
        if g > g_score[v as usize] {
            continue;
        }
        if v == target {
            return (g, expanded + 1);
        }
        expanded += 1;
        for (u, w) in graph.neighbors(v) {
            let ng = g + u64::from(w);
            if ng < g_score[u as usize] {
                g_score[u as usize] = ng;
                heap.push(Reverse((ng + heuristic(graph, u, target), ng, u)));
            }
        }
    }
    (g_score[target as usize], expanded)
}

/// The A* workload: tasks are `(f = g + h, vertex)`, shared state = one
/// g-score per vertex (in a [`LabelStore`]) plus the best route to the
/// target found so far (used to prune vertices that can no longer matter).
/// The output is the source→target distance, `u64::MAX` if unreachable.
pub struct AstarWorkload<'g, G = CsrGraph, L = Vec<AtomicU64>> {
    graph: &'g G,
    source: u32,
    target: u32,
    g_score: L,
    best_target: AtomicU64,
}

impl<'g, G: GraphView> AstarWorkload<'g, G> {
    /// A* from `source` to `target` over labels allocated for this run.
    pub fn new(graph: &'g G, source: u32, target: u32) -> Self {
        let unreached = (0..graph.num_nodes()).map(|_| AtomicU64::new(u64::MAX));
        Self::over(graph, source, target, unreached.collect())
    }
}

impl<'g, G: GraphView, L: LabelStore> AstarWorkload<'g, G, L> {
    /// A* from `source` to `target` over caller-supplied labels, all of
    /// which must read as unreached.
    pub fn over(graph: &'g G, source: u32, target: u32, g_score: L) -> Self {
        let n = graph.num_nodes();
        assert!(
            (source as usize) < n && (target as usize) < n,
            "vertex out of range"
        );
        g_score.try_decrease(source, 0);
        Self {
            graph,
            source,
            target,
            g_score,
            best_target: AtomicU64::new(L::UNREACHED),
        }
    }
}

impl<G: GraphView, L: LabelStore> PoolJob for AstarWorkload<'_, G, L> {
    fn seed_tasks(&self) -> Vec<Task> {
        vec![Task::new(
            heuristic(self.graph, self.source, self.target),
            u64::from(self.source),
        )]
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        let v = task.value as u32;
        let g = self.g_score.get(v);
        // Recompute the expected priority; a mismatch means a better path
        // to `v` has been found since this task was pushed.
        let expected_f = g.saturating_add(heuristic(self.graph, v, self.target));
        if task.key > expected_f || g == L::UNREACHED {
            return TaskOutcome::Wasted;
        }
        // Prune vertices that cannot improve the best route found so far
        // (admissible heuristic ⇒ f is a lower bound on any route via v).
        if expected_f >= self.best_target.load(Ordering::Relaxed) {
            return TaskOutcome::Wasted;
        }
        if v == self.target {
            self.best_target.fetch_min(g, Ordering::Relaxed);
            return TaskOutcome::Useful;
        }
        for (u, w) in self.graph.neighbors(v) {
            let ng = g + u64::from(w);
            if self.g_score.try_decrease(u, ng) {
                if u == self.target {
                    self.best_target.fetch_min(ng, Ordering::Relaxed);
                }
                push(Task::new(
                    ng + heuristic(self.graph, u, self.target),
                    u64::from(u),
                ));
            }
        }
        TaskOutcome::Useful
    }
}

impl<G: GraphView, L: LabelStore> DecreaseKeyWorkload for AstarWorkload<'_, G, L> {
    type Output = u64;

    fn name(&self) -> &'static str {
        "A*"
    }

    fn output(&self) -> u64 {
        let distance = self.g_score.get(self.target);
        if distance == L::UNREACHED {
            u64::MAX
        } else {
            distance
        }
    }

    fn sequential_reference(&self) -> SequentialReference<u64> {
        let (output, baseline_tasks) = sequential(self.graph, self.source, self.target);
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
    use crate::sssp;
    use smq_graph::generators::{road_network, RoadNetworkParams};
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_scheduler::{HeapSmq, SmqConfig};

    fn road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 20,
            height: 20,
            removal_percent: 10,
            seed: 17,
        })
    }

    #[test]
    fn heuristic_is_admissible_on_generated_roads() {
        // h(v) must never exceed the true remaining distance.
        let g = road();
        let target = (g.num_nodes() - 1) as u32;
        let (dist_from_target, _) = sssp::sequential(&g, target);
        for v in 0..g.num_nodes() as u32 {
            let true_dist = dist_from_target[v as usize];
            if true_dist != u64::MAX {
                assert!(
                    heuristic(&g, v, target) <= true_dist,
                    "heuristic overestimates at vertex {v}"
                );
            }
        }
    }

    #[test]
    fn sequential_astar_matches_dijkstra() {
        let g = road();
        let target = (g.num_nodes() - 1) as u32;
        let (dist, _) = sssp::sequential(&g, 0);
        let (astar_dist, expanded) = sequential(&g, 0, target);
        assert_eq!(astar_dist, dist[target as usize]);
        // The heuristic should prune a meaningful part of the graph.
        assert!(expanded as usize <= g.num_nodes());
    }

    #[test]
    fn parallel_astar_is_exact_with_smq() {
        hang_guard(|| {
            let g = road();
            let target = (g.num_nodes() - 1) as u32;
            let (expected, _) = sequential(&g, 0, target);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let run = engine::run_parallel(&AstarWorkload::new(&g, 0, target), &smq, 2);
            assert_eq!(run.output, expected);
            assert!(run.result.useful_tasks > 0);
        });
    }

    #[test]
    fn parallel_astar_is_exact_with_multiqueue() {
        hang_guard(|| {
            let g = road();
            let target = (g.num_nodes() / 2) as u32;
            let (expected, _) = sequential(&g, 0, target);
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2));
            let run = engine::run_parallel(&AstarWorkload::new(&g, 0, target), &mq, 2);
            assert_eq!(run.output, expected);
        });
    }

    #[test]
    fn unreachable_target_reports_max() {
        hang_guard(|| {
            use smq_graph::GraphBuilder;
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1, 5);
            let g = b.build();
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(1));
            let run = engine::run_parallel(&AstarWorkload::new(&g, 0, 2), &smq, 1);
            assert_eq!(run.output, u64::MAX);
        });
    }
}
