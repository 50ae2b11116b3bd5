//! k-core decomposition as a relaxed decrease-key workload.
//!
//! Instead of the classic sequential bucket peeling (which is inherently
//! ordered), the parallel formulation iterates the **neighbourhood h-index
//! operator** to its fixed point: start every vertex at `h[v] = deg(v)` and
//! repeatedly replace `h[v]` by the largest `k` such that at least `k`
//! neighbours have `h ≥ k` (capped by the current `h[v]`).  On undirected
//! graphs the fixed point is exactly the coreness of every vertex (Lü,
//! Zhou, Zhang, Stanley, *Nature Communications* 2016); on directed graphs
//! it is the analogous out-neighbourhood coreness.  This is the k-core
//! formulation the Galois lineage uses for priority-scheduler benchmarks:
//! task priority is the vertex's (candidate) h-value, so low-core vertices
//! peel first, like the sequential algorithm.
//!
//! **Why any execution order gives the same answer:** `h` values only ever
//! decrease, and the h-index operator is *monotone* (raising an input can
//! never lower the output).  Chaotic-iteration theory then guarantees every
//! fair asynchronous schedule converges to the same greatest fixed point
//! below the initial degrees — so the parallel run is exactly equal to the
//! sequential reference, task order notwithstanding.  A task is *wasted*
//! when its recomputation finds nothing to lower (the vertex was already
//! re-evaluated, or the neighbour decrease that triggered it turned out not
//! to matter).

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};
use smq_runtime::Scratch;

use crate::engine::{self, DecreaseKeyWorkload, SequentialReference, TaskOutcome};

/// Reverse adjacency in CSR form: the in-neighbours of `v` are
/// `sources[offsets[v]..offsets[v + 1]]`.
///
/// `h[v]` is computed from `v`'s *out*-neighbours, so when `u`'s value
/// drops, the vertices whose h-index may drop in response are `u`'s
/// *in*-neighbours — notifications must flow against the edges.  (On a
/// symmetrized graph the two coincide and this is the classic undirected
/// coreness.)  Shared with the connected-components workload
/// (`crate::cc`), which needs the same "who can my update affect"
/// direction for weak connectivity.
pub(crate) struct ReverseAdjacency {
    offsets: Vec<u32>,
    sources: Vec<u32>,
}

impl ReverseAdjacency {
    pub(crate) fn of<G: GraphView>(graph: &G) -> Self {
        let n = graph.num_nodes();
        let mut offsets = vec![0u32; n + 1];
        for e in graph.edges() {
            offsets[e.to as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut sources = vec![0u32; graph.num_edges()];
        let mut next = offsets.clone();
        for e in graph.edges() {
            let slot = next[e.to as usize] as usize;
            sources[slot] = e.from;
            next[e.to as usize] += 1;
        }
        Self { offsets, sources }
    }

    /// The in-neighbours of `v` — the vertices an update of `v` can affect.
    pub(crate) fn in_neighbors(&self, v: u32) -> &[u32] {
        &self.sources[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// The largest `k ≤ cap` such that at least `k` of the `values` are `≥ k`
/// (the Hirsch index of the multiset, capped).
///
/// `counts` must be a zeroed buffer of at least `cap + 1` slots.  The
/// parallel workload hands in the worker's [`Scratch`] counting buffer, so
/// hub-heavy graphs pay one `memset` per task instead of one heap
/// allocation — the allocator was a measurable cost on power-law inputs.
fn h_index_capped(values: impl Iterator<Item = u64>, cap: u64, counts: &mut [u32]) -> u64 {
    let cap_us = cap as usize;
    if cap_us == 0 {
        return 0;
    }
    debug_assert!(counts.len() > cap_us);
    debug_assert!(counts.iter().all(|&c| c == 0));
    for value in values {
        counts[value.min(cap) as usize] += 1;
    }
    let mut at_least = 0u64;
    for k in (1..=cap_us).rev() {
        at_least += u64::from(counts[k]);
        if at_least >= k as u64 {
            return k as u64;
        }
    }
    0
}

/// Exact sequential reference: deterministic Gauss–Seidel iteration of the
/// h-index operator with a lowest-h-first worklist (the peeling order).
/// Returns the coreness array and the number of worklist pops that lowered
/// a value (the baseline task count).
pub fn sequential<G: GraphView>(graph: &G) -> (Vec<u64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_nodes();
    let reverse = ReverseAdjacency::of(graph);
    let mut h: Vec<u64> = (0..n as u32).map(|v| graph.degree(v) as u64).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..n as u32).map(|v| Reverse((h[v as usize], v))).collect();
    let mut useful = 0u64;
    let mut scratch = Scratch::new();
    while let Some(Reverse((_key, v))) = heap.pop() {
        let cur = h[v as usize];
        let candidate = h_index_capped(
            graph.neighbors(v).map(|(u, _w)| h[u as usize]),
            cur,
            scratch.counting_u32(cur as usize + 1),
        );
        if candidate >= cur {
            continue;
        }
        h[v as usize] = candidate;
        useful += 1;
        for &w in reverse.in_neighbors(v) {
            if h[w as usize] > candidate {
                heap.push(Reverse((h[w as usize], w)));
            }
        }
    }
    // Count the initial evaluation of every vertex like the parallel run's
    // seed tasks, so work-increase baselines compare like for like.
    (h, useful + n as u64)
}

/// The k-core workload: shared state = one atomic h-value per vertex,
/// monotonically lowered to the coreness fixed point.
pub struct KCoreWorkload<'g, G = CsrGraph> {
    graph: &'g G,
    h: Vec<AtomicU64>,
    reverse: ReverseAdjacency,
}

impl<'g, G: GraphView> KCoreWorkload<'g, G> {
    /// Coreness of every vertex of `graph`.
    pub fn new(graph: &'g G) -> Self {
        Self {
            graph,
            h: (0..graph.num_nodes() as u32)
                .map(|v| AtomicU64::new(graph.degree(v) as u64))
                .collect(),
            reverse: ReverseAdjacency::of(graph),
        }
    }
}

impl<G: GraphView> DecreaseKeyWorkload for KCoreWorkload<'_, G> {
    type Output = Vec<u64>;

    fn name(&self) -> &'static str {
        "k-core"
    }

    fn initial_tasks(&self) -> Vec<Task> {
        (0..self.graph.num_nodes() as u32)
            .map(|v| Task::new(self.graph.degree(v) as u64, u64::from(v)))
            .collect()
    }

    fn process(
        &self,
        task: Task,
        push: &mut dyn FnMut(Task),
        scratch: &mut Scratch,
    ) -> TaskOutcome {
        let v = task.value as u32;
        let cur = self.h[v as usize].load(Ordering::Relaxed);
        if cur == 0 {
            return TaskOutcome::Wasted;
        }
        // The counting buffer comes from the worker's scratch arena: no
        // per-task allocation, which matters on hub-heavy power-law graphs
        // where `cur` starts at the hub degree.
        let candidate = h_index_capped(
            self.graph
                .neighbors(v)
                .map(|(u, _w)| self.h[u as usize].load(Ordering::Relaxed)),
            cur,
            scratch.counting_u32(cur as usize + 1),
        );
        if !engine::try_decrease(&self.h[v as usize], candidate) {
            // Someone lowered h[v] to (or past) the candidate concurrently;
            // their decrease already notified the affected neighbours.
            return TaskOutcome::Wasted;
        }
        for &w in self.reverse.in_neighbors(v) {
            let hw = self.h[w as usize].load(Ordering::Relaxed);
            // Only in-neighbours whose value still exceeds the new h can be
            // affected by this decrease (the operator is monotone).
            if hw > candidate {
                push(Task::new(hw, u64::from(w)));
            }
        }
        TaskOutcome::Useful
    }

    fn output(&self) -> Vec<u64> {
        self.h.iter().map(|h| h.load(Ordering::Relaxed)).collect()
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

    /// Classic peeling coreness (Batagelj–Zaveršnik with a running max),
    /// as an independent reference for simple undirected graphs.
    fn peel_cores(graph: &CsrGraph) -> Vec<u64> {
        let n = graph.num_nodes();
        let mut deg: Vec<u64> = (0..n as u32).map(|v| graph.degree(v) as u64).collect();
        let mut cores = vec![0u64; n];
        let mut removed = vec![false; n];
        let mut running_max = 0u64;
        for _ in 0..n {
            let v = (0..n)
                .filter(|&v| !removed[v])
                .min_by_key(|&v| deg[v])
                .expect("vertex remaining");
            running_max = running_max.max(deg[v]);
            cores[v] = running_max;
            removed[v] = true;
            for (u, _w) in graph.neighbors(v as u32) {
                if !removed[u as usize] && deg[u as usize] > deg[v] {
                    deg[u as usize] -= 1;
                }
            }
        }
        cores
    }

    /// Symmetrizes, deduplicates, and drops self-loops so the peeling
    /// reference operates on a simple undirected graph.
    fn symmetrized(directed: &CsrGraph) -> CsrGraph {
        let mut seen = std::collections::HashSet::new();
        let mut b = GraphBuilder::new(directed.num_nodes() as u32);
        for e in directed.edges() {
            let (a, z) = (e.from.min(e.to), e.from.max(e.to));
            if a != z && seen.insert((a, z)) {
                b.add_undirected_edge(a, z, e.weight);
            }
        }
        b.build()
    }

    #[test]
    fn h_index_handles_edges_cases() {
        let mut scratch = Scratch::new();
        let mut h = |values: &[u64], cap: u64| {
            h_index_capped(
                values.iter().copied(),
                cap,
                scratch.counting_u32(cap as usize + 1),
            )
        };
        assert_eq!(h(&[], 5), 0);
        assert_eq!(h(&[3, 3, 3], 10), 3);
        assert_eq!(h(&[3, 3, 3], 2), 2);
        assert_eq!(h(&[1, 1, 1, 1], 4), 1);
        assert_eq!(h(&[10, 9, 8, 7], 6), 4);
        assert_eq!(h(&[5], 0), 0);
    }

    #[test]
    fn triangle_with_tail_has_known_cores() {
        // Triangle 0-1-2 (core 2) with a tail 2-3 (core 1) and an isolated
        // vertex 4 (core 0).
        let mut b = GraphBuilder::new(5);
        b.add_undirected_edge(0, 1, 1)
            .add_undirected_edge(1, 2, 1)
            .add_undirected_edge(0, 2, 1)
            .add_undirected_edge(2, 3, 1);
        let g = b.build();
        let (cores, _) = sequential(&g);
        assert_eq!(cores, vec![2, 2, 2, 1, 0]);
    }

    #[test]
    fn fixed_point_equals_peeling_on_undirected_random_graph() {
        let g = symmetrized(&uniform_random(120, 600, 100, 77));
        let (cores, _) = sequential(&g);
        assert_eq!(cores, peel_cores(&g));
    }

    #[test]
    fn parallel_matches_sequential_on_social_graph_smq() {
        hang_guard(|| {
            let g = power_law(PowerLawParams {
                nodes: 2_000,
                avg_degree: 8,
                exponent: 2.2,
                max_weight: 255,
                seed: 13,
            });
            let workload = KCoreWorkload::new(&g);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3).with_seed(5));
            let (run, _) = engine::run_and_check(&workload, &smq, 3);
            assert!(run.result.useful_tasks > 0);
        });
    }

    #[test]
    fn parallel_matches_sequential_multiqueue() {
        hang_guard(|| {
            let g = symmetrized(&uniform_random(400, 3_000, 50, 21));
            let workload = KCoreWorkload::new(&g);
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(2));
            engine::run_and_check(&workload, &mq, 2);
        });
    }
}
