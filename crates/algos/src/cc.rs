//! Connected components via min-label propagation, as a relaxed
//! decrease-key workload.
//!
//! Every vertex starts with its own id as its label; executing a task for
//! `v` propagates `v`'s current label to every vertex adjacent to `v` in
//! *either* direction (weak connectivity on directed inputs), lowering
//! their labels through the canonical CAS-relax step.  At the fixed point,
//! `label[v]` is the minimum vertex id in `v`'s weakly connected component.
//!
//! Task priority is the label being propagated — small labels first — which
//! mirrors the sequential algorithm's behaviour of letting each component's
//! minimum vertex conquer the component before larger labels waste work.
//! Correctness under relaxation is the usual monotone argument: labels only
//! decrease, `min` is monotone, so every fair schedule reaches the same
//! (unique) least fixed point regardless of execution order — the output
//! comparison is exact equality.
//!
//! This is the cheapest workload in the crate (state = one `AtomicU64` per
//! vertex, no weights, no heuristic), which makes it a good canary for
//! scheduler overheads: with almost no work per task, scheduler hot-path
//! costs dominate end-to-end time.

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};

use crate::engine::{self, DecreaseKeyWorkload, PoolJob, SequentialReference, TaskOutcome};
use crate::kcore::ReverseAdjacency;

/// Exact sequential reference: Gauss–Seidel min-label propagation with a
/// lowest-label-first worklist.  Returns the label array and the number of
/// non-stale pops (the baseline task count).
pub fn sequential<G: GraphView>(graph: &G) -> (Vec<u64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_nodes();
    let reverse = ReverseAdjacency::of(graph);
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..n as u32).map(|v| Reverse((v as u64, v))).collect();
    let mut useful = 0u64;
    while let Some(Reverse((label, v))) = heap.pop() {
        if label > labels[v as usize] {
            continue; // stale: a smaller label reached v first
        }
        useful += 1;
        let l = labels[v as usize];
        let undirected = graph
            .neighbors(v)
            .map(|(u, _w)| u)
            .chain(reverse.in_neighbors(v).iter().copied());
        for u in undirected {
            if labels[u as usize] > l {
                labels[u as usize] = l;
                heap.push(Reverse((l, u)));
            }
        }
    }
    (labels, useful)
}

/// The CC workload: shared state = one atomic label per vertex,
/// monotonically lowered to the component minimum.
pub struct CcWorkload<'g, G = CsrGraph> {
    graph: &'g G,
    labels: Vec<AtomicU64>,
    reverse: ReverseAdjacency,
}

impl<'g, G: GraphView> CcWorkload<'g, G> {
    /// Weakly connected components of `graph`.
    pub fn new(graph: &'g G) -> Self {
        Self {
            graph,
            labels: (0..graph.num_nodes() as u64).map(AtomicU64::new).collect(),
            reverse: ReverseAdjacency::of(graph),
        }
    }
}

impl<G: GraphView> PoolJob for CcWorkload<'_, G> {
    fn seed_tasks(&self) -> Vec<Task> {
        (0..self.graph.num_nodes() as u64)
            .map(|v| Task::new(v, v))
            .collect()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        let v = task.value as u32;
        let label = self.labels[v as usize].load(Ordering::Relaxed);
        if task.key > label {
            // A smaller label already reached v; whoever lowered it also
            // (re-)notified the neighbourhood.
            return TaskOutcome::Wasted;
        }
        let out = self.graph.neighbors(v).map(|(u, _w)| u);
        let both = out.chain(self.reverse.in_neighbors(v).iter().copied());
        for u in both {
            if engine::try_decrease(&self.labels[u as usize], label) {
                push(Task::new(label, u64::from(u)));
            }
        }
        TaskOutcome::Useful
    }
}

impl<G: GraphView> DecreaseKeyWorkload for CcWorkload<'_, G> {
    type Output = Vec<u64>;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn output(&self) -> Vec<u64> {
        self.labels
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    fn sequential_reference(&self) -> SequentialReference<Vec<u64>> {
        let (output, baseline_tasks) = sequential(self.graph);
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
    use smq_graph::generators::{power_law, uniform_random, PowerLawParams};
    use smq_graph::GraphBuilder;
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_scheduler::{HeapSmq, SmqConfig};

    /// Independent reference: labels via union-find over undirected edges.
    fn union_find_labels(graph: &CsrGraph) -> Vec<u64> {
        let n = graph.num_nodes();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for e in graph.edges() {
            let (a, b) = (
                find(&mut parent, e.from as usize),
                find(&mut parent, e.to as usize),
            );
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
        // Compress fully, then map every vertex to its component minimum.
        let mut min_of_root = vec![u64::MAX; n];
        for v in 0..n {
            let r = find(&mut parent, v);
            min_of_root[r] = min_of_root[r].min(v as u64);
        }
        (0..n)
            .map(|v| {
                let r = find(&mut parent, v);
                min_of_root[r]
            })
            .collect()
    }

    #[test]
    fn two_components_and_an_isolate() {
        // 0-1-2 connected, 3-4 connected (via a directed edge), 5 isolated.
        let mut b = GraphBuilder::new(6);
        b.add_undirected_edge(0, 1, 1)
            .add_undirected_edge(1, 2, 1)
            .add_edge(4, 3, 1); // directed: weak connectivity must catch it
        let g = b.build();
        let (labels, useful) = sequential(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
        assert!(useful >= 6, "every vertex is popped at least once");
    }

    #[test]
    fn sequential_matches_union_find_on_random_graph() {
        let g = uniform_random(200, 500, 50, 11);
        let (labels, _) = sequential(&g);
        assert_eq!(labels, union_find_labels(&g));
    }

    #[test]
    fn parallel_matches_sequential_smq() {
        hang_guard(|| {
            let g = power_law(PowerLawParams {
                nodes: 2_000,
                avg_degree: 4,
                exponent: 2.3,
                max_weight: 100,
                seed: 23,
            });
            let workload = CcWorkload::new(&g);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3).with_seed(9));
            let (run, reference) = engine::run_and_check(&workload, &smq, 3);
            assert_eq!(run.output, union_find_labels(&g));
            assert!(reference.baseline_tasks > 0);
        });
    }

    #[test]
    fn parallel_matches_sequential_multiqueue() {
        hang_guard(|| {
            let g = uniform_random(500, 900, 30, 41);
            let workload = CcWorkload::new(&g);
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(6));
            engine::run_and_check(&workload, &mq, 2);
        });
    }
}
