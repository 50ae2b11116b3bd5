//! Residual-prioritized PageRank-delta over a relaxed priority scheduler.
//!
//! The push-based ("delta") formulation the Galois/PMOD lineage benchmarks:
//! every vertex carries a committed `rank` and a pending `residual`.
//! Executing a task for `v` drains `v`'s whole residual into its rank and
//! pushes a `damping / out-degree` share of it onto each out-neighbour's
//! residual.  A vertex is (re-)enqueued exactly when its residual crosses
//! the termination threshold `epsilon` from below, and task priority is the
//! residual at crossing time — *larger residuals first*, which is what makes
//! the workload a natural fit for relaxed priority schedulers: processing a
//! big residual early avoids re-propagating the mass it would otherwise
//! receive in dribs and drabs.
//!
//! Priorities are min-order in this workspace, so the key is derived from
//! the residual's IEEE-754 bit pattern, inverted and quantized onto a
//! ~17-bit log scale (see `priority_of` — the quantization is what keeps
//! bucketed schedulers like OBIM/PMOD efficient).
//!
//! **Equivalence under relaxation.**  Unlike the exact workloads, the final
//! rank vector depends on the drain order; what the algorithm *guarantees*
//! is that every terminal state has all residuals below `epsilon`.  Any two
//! terminal states therefore differ, per vertex, by at most
//! `epsilon · n / (1 - damping)` (each leftover residual is < `epsilon` and
//! the total influence of vertex `u` on vertex `v`, summed over `u`, is
//! bounded by the personalized-PageRank column sum `≤ n / (1 - damping)`).
//! [`PagerankWorkload::outputs_equivalent`] checks exactly that bound, so
//! the scheduler-equivalence tests remain sound for every execution order.

use std::sync::atomic::{AtomicU64, Ordering};

use smq_core::Task;
use smq_graph::{CsrGraph, GraphView};

use crate::engine::{DecreaseKeyWorkload, PoolJob, SequentialReference, TaskOutcome};

/// Tuning knobs of a PageRank-delta run.
#[derive(Debug, Clone, Copy)]
pub struct PagerankConfig {
    /// The damping factor `d` (the classic 0.85 by default).
    pub damping: f64,
    /// Residuals below this threshold are not propagated; termination and
    /// accuracy knob.
    pub epsilon: f64,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        // The benchmark-scale default: on the standard power-law inputs the
        // run costs a few hundred thousand to a few million tasks.  Tests
        // asserting equivalence pass a tighter epsilon on smaller graphs so
        // the per-vertex tolerance bound stays meaningful.
        Self {
            damping: 0.85,
            epsilon: 1e-4,
        }
    }
}

impl PagerankConfig {
    /// A tighter threshold for correctness tests on small graphs: the
    /// per-vertex tolerance (`n · epsilon / (1 - damping)`) stays small
    /// enough to be a real assertion.
    pub fn test_scale() -> Self {
        Self {
            damping: 0.85,
            epsilon: 1e-6,
        }
    }

    /// Panics unless `0 < damping < 1` and `0 < epsilon < 1 - damping`
    /// (the initial residual must be pushable, or no run ever starts).
    pub fn validate(&self) {
        assert!(
            self.damping > 0.0 && self.damping < 1.0,
            "damping must be in (0, 1)"
        );
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0 - self.damping,
            "epsilon must be in (0, 1 - damping)"
        );
    }
}

/// Priority key for a residual: larger residual ⇒ smaller key.
///
/// The bit pattern of a non-negative finite `f64` orders like the value;
/// keeping only the exponent and the top 6 mantissa bits quantizes that
/// order onto a ~17-bit log scale (buckets ~1.6% wide).  The coarsening
/// matters for bucketed schedulers: OBIM/PMOD hash `key >> Δ` into a bucket
/// map, and raw 64-bit patterns would scatter millions of tasks over
/// millions of singleton buckets (empirically a multi-minute crawl);
/// ~2¹⁷ well-populated keys keep every scheduler family efficient while
/// changing "largest residual first" by under 2%.
#[inline]
fn priority_of(residual: f64) -> u64 {
    const QUANT_SHIFT: u32 = 46;
    const KEY_SPAN: u64 = (1 << (63 - QUANT_SHIFT + 1)) - 1;
    KEY_SPAN - (residual.to_bits() >> QUANT_SHIFT)
}

#[inline]
fn load_f64(slot: &AtomicU64) -> f64 {
    f64::from_bits(slot.load(Ordering::Relaxed))
}

/// Atomically adds `delta` to the `f64` stored in `slot`, returning the
/// value before and after — the crossing test needs both.
#[inline]
fn add_f64(slot: &AtomicU64, delta: f64) -> (f64, f64) {
    let mut current = slot.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(current);
        let new = old + delta;
        match slot.compare_exchange_weak(
            current,
            new.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return (old, new),
            Err(observed) => current = observed,
        }
    }
}

/// Exact sequential PageRank-delta (largest residual first, via an exact
/// heap).  Returns the rank vector and the number of useful (draining)
/// tasks — the baseline for work-increase reporting.
pub fn sequential<G: GraphView>(graph: &G, config: PagerankConfig) -> (Vec<f64>, u64) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    config.validate();
    let n = graph.num_nodes();
    let init = 1.0 - config.damping;
    let mut rank = vec![0.0f64; n];
    let mut residual = vec![init; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..n as u32)
        .map(|v| Reverse((priority_of(init), v)))
        .collect();
    let mut drained = 0u64;
    while let Some(Reverse((_key, v))) = heap.pop() {
        let r = residual[v as usize];
        if r < config.epsilon {
            continue;
        }
        residual[v as usize] = 0.0;
        rank[v as usize] += r;
        drained += 1;
        let deg = graph.degree(v);
        if deg == 0 {
            continue;
        }
        let share = config.damping * r / deg as f64;
        for (u, _w) in graph.neighbors(v) {
            let old = residual[u as usize];
            let new = old + share;
            residual[u as usize] = new;
            if old < config.epsilon && new >= config.epsilon {
                heap.push(Reverse((priority_of(new), u)));
            }
        }
    }
    (rank, drained)
}

/// The PageRank-delta workload: shared state = one atomic rank and one
/// atomic residual per vertex (both `f64` bit patterns in `AtomicU64`).
pub struct PagerankWorkload<'g, G = CsrGraph> {
    graph: &'g G,
    config: PagerankConfig,
    rank: Vec<AtomicU64>,
    residual: Vec<AtomicU64>,
}

impl<'g, G: GraphView> PagerankWorkload<'g, G> {
    /// PageRank-delta on `graph` with the given configuration.
    pub fn new(graph: &'g G, config: PagerankConfig) -> Self {
        config.validate();
        let n = graph.num_nodes();
        let init = (1.0 - config.damping).to_bits();
        Self {
            graph,
            config,
            rank: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            residual: (0..n).map(|_| AtomicU64::new(init)).collect(),
        }
    }

    /// The per-vertex bound on how far two terminal rank vectors of this
    /// configuration can differ (see the module documentation).
    pub fn tolerance(&self) -> f64 {
        self.graph.num_nodes() as f64 * self.config.epsilon / (1.0 - self.config.damping)
    }
}

impl<G: GraphView> PoolJob for PagerankWorkload<'_, G> {
    fn seed_tasks(&self) -> Vec<Task> {
        let init = 1.0 - self.config.damping;
        (0..self.graph.num_nodes() as u32)
            .map(|v| Task::new(priority_of(init), u64::from(v)))
            .collect()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        let eps = self.config.epsilon;
        let v = task.value as usize;
        let r = f64::from_bits(self.residual[v].swap(0f64.to_bits(), Ordering::Relaxed));
        if r < eps {
            // Stale: a concurrent task already drained this vertex.  Put the
            // sub-threshold remainder back; if doing so crosses `epsilon`
            // (because another push landed while we held the mass), we own
            // the crossing and must re-enqueue.
            if r > 0.0 {
                let (old, new) = add_f64(&self.residual[v], r);
                if old < eps && new >= eps {
                    push(Task::new(priority_of(new), task.value));
                }
            }
            return TaskOutcome::Wasted;
        }
        add_f64(&self.rank[v], r);
        let deg = self.graph.degree(v as u32);
        if deg > 0 {
            let share = self.config.damping * r / deg as f64;
            for (u, _w) in self.graph.neighbors(v as u32) {
                let (old, new) = add_f64(&self.residual[u as usize], share);
                // Enqueue exactly at the upward epsilon crossing, so every
                // above-threshold residual has exactly one pending task.
                if old < eps && new >= eps {
                    push(Task::new(priority_of(new), u64::from(u)));
                }
            }
        }
        TaskOutcome::Useful
    }
}

impl<G: GraphView> DecreaseKeyWorkload for PagerankWorkload<'_, G> {
    type Output = Vec<f64>;

    fn name(&self) -> &'static str {
        "PR-delta"
    }

    fn output(&self) -> Vec<f64> {
        self.rank.iter().map(load_f64).collect()
    }

    fn sequential_reference(&self) -> SequentialReference<Vec<f64>> {
        let (output, baseline_tasks) = sequential(self.graph, self.config);
        SequentialReference {
            output,
            baseline_tasks,
        }
    }

    fn outputs_equivalent(&self, a: &Vec<f64>, b: &Vec<f64>) -> bool {
        let tol = self.tolerance() + 1e-12;
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::engine;
    use smq_graph::generators::{power_law, PowerLawParams};
    use smq_graph::GraphBuilder;
    use smq_multiqueue::{MultiQueue, MultiQueueConfig};
    use smq_scheduler::{HeapSmq, SmqConfig};

    fn social(nodes: u32) -> CsrGraph {
        power_law(PowerLawParams {
            nodes,
            avg_degree: 6,
            exponent: 2.2,
            max_weight: 255,
            seed: 41,
        })
    }

    #[test]
    fn priority_orders_larger_residuals_first() {
        assert!(priority_of(0.5) < priority_of(0.1));
        assert!(priority_of(0.1) < priority_of(1e-9));
        assert!(priority_of(2.0) < priority_of(1.0));
        // Quantized: nearby residuals share a key (bucketed schedulers
        // rely on the key space being dense), and the key space is small.
        assert_eq!(priority_of(1.0), priority_of(1.001));
        assert!(priority_of(1e-12) < (1 << 18));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_above_initial_residual_is_rejected() {
        PagerankConfig {
            damping: 0.85,
            epsilon: 0.2,
        }
        .validate();
    }

    #[test]
    fn sequential_conserves_mass_on_a_cycle() {
        // On a cycle every vertex has out-degree 1, so no mass is lost to
        // dangling vertices: ranks must sum to ≈ n (the geometric series
        // n·(1-d)·(1 + d + d² + ...)), up to the epsilon leftovers.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 1)
            .add_edge(3, 0, 1);
        let g = b.build();
        let config = PagerankConfig::default();
        let (ranks, drained) = sequential(&g, config);
        let total: f64 = ranks.iter().sum();
        let leftover_bound = 4.0 * config.epsilon / (1.0 - config.damping);
        assert!((total - 4.0).abs() <= leftover_bound + 1e-9);
        assert!(drained >= 4);
        // Symmetry: every vertex of the cycle has the same rank, up to the
        // sub-epsilon residuals left behind by the drain order.
        for r in &ranks {
            assert!((r - ranks[0]).abs() <= leftover_bound);
        }
    }

    #[test]
    fn sequential_ranks_hub_above_leaf() {
        // Star pointing at a hub: the hub must out-rank the spokes.
        let mut b = GraphBuilder::new(5);
        for v in 1..5u32 {
            b.add_edge(v, 0, 1);
        }
        let g = b.build();
        let (ranks, _) = sequential(&g, PagerankConfig::default());
        for v in 1..5 {
            assert!(ranks[0] > ranks[v], "hub must out-rank spoke {v}");
        }
    }

    #[test]
    fn parallel_matches_sequential_within_tolerance_smq() {
        hang_guard(|| {
            let g = social(1_500);
            let workload = PagerankWorkload::new(&g, PagerankConfig::test_scale());
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(3).with_seed(7));
            let (run, reference) = engine::run_and_check(&workload, &smq, 3);
            assert!(run.result.useful_tasks >= g.num_nodes() as u64);
            assert!(reference.baseline_tasks >= g.num_nodes() as u64);
        });
    }

    #[test]
    fn parallel_matches_sequential_within_tolerance_multiqueue() {
        hang_guard(|| {
            let g = social(1_000);
            let workload = PagerankWorkload::new(&g, PagerankConfig::test_scale());
            let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(2).with_seed(9));
            engine::run_and_check(&workload, &mq, 2);
        });
    }

    #[test]
    fn terminal_state_has_all_residuals_below_epsilon() {
        hang_guard(|| {
            let g = social(800);
            let config = PagerankConfig::default();
            let workload = PagerankWorkload::new(&g, config);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2).with_seed(3));
            engine::run_parallel(&workload, &smq, 2);
            for slot in &workload.residual {
                assert!(load_f64(slot) < config.epsilon);
            }
        });
    }
}
