//! Incremental SSSP: repairing a distance array after weight decreases.
//!
//! A dynamic-graph service rarely recomputes shortest paths from scratch —
//! after a batch of *non-increasing* updates (weight decreases, edge
//! inserts) the old distances are still valid **upper bounds**, and only
//! the region downstream of an improved edge can change.  The classical
//! repair is a re-relaxation seeded from the heads of the updated edges:
//! for every updated edge `(u, v, w)` propose `dist(u) + w` for `v`, then
//! run the ordinary decrease-key loop over the *new* graph until no label
//! improves.  With a (relaxed) priority scheduler this is exactly the SSSP
//! task formulation with a different initial task set, so the workload
//! plugs into the same engine and the same wasted-work accounting as the
//! from-scratch runs — and its task count measures *repair* work, which on
//! small update batches is orders of magnitude below a full recompute.
//!
//! Correctness sketch: labels start as exact old distances (upper bounds
//! under non-increasing updates).  If a vertex's distance truly decreased,
//! the last edge `(u, v)` of its new shortest path either is an updated
//! edge — covered by a seed task once `u`'s label settles — or is
//! unchanged, in which case `u`'s label must itself have decreased and
//! relaxing `u` (which pushes a task) covers `v`.  Induction along the new
//! shortest-path tree does the rest.

use smq_graph::{GraphUpdate, GraphView};

use crate::sssp::{self, SsspWorkload};

/// `(vertex, proposed distance)` seeds from the heads of updated edges.
fn seed_proposals(old_distances: &[u64], updates: &[GraphUpdate]) -> Vec<(u32, u64)> {
    updates
        .iter()
        .filter_map(|u| {
            let tail = old_distances[u.from() as usize];
            if tail == u64::MAX {
                // An unreached tail cannot improve anything yet; if its own
                // label later drops, normal relaxation covers this edge.
                None
            } else {
                Some((u.to(), tail + u64::from(u.weight())))
            }
        })
        .collect()
}

/// The repair constructors of the SSSP workload: shared state is the
/// distance array seeded with the *old* exact distances, initial tasks are
/// the heads of the updated edges that improve on them, and the kernel is
/// the ordinary SSSP relaxation over the post-update [`GraphView`].
impl<'g, G: GraphView> SsspWorkload<'g, G> {
    /// Builds a repair run (display name `inc-SSSP`) over the post-update
    /// `graph` from the exact pre-update `old_distances` and the update
    /// batch that separates the two versions.
    ///
    /// # Panics
    /// Panics if the distance array length does not match the graph, or if
    /// an update endpoint is out of range.
    pub fn repair(graph: &'g G, old_distances: Vec<u64>, updates: &[GraphUpdate]) -> Self {
        let n = graph.num_nodes();
        assert_eq!(old_distances.len(), n, "one old distance per vertex");
        for u in updates {
            assert!(
                (u.from() as usize) < n && (u.to() as usize) < n,
                "update endpoint out of range"
            );
        }
        let seeds = seed_proposals(&old_distances, updates);
        Self::from_labels(graph, "inc-SSSP", u64::from, Some(old_distances), seeds)
    }

    /// Convenience: computes the pre-update distances with a full Dijkstra
    /// on `old_graph`, checks that every `SetWeight` is non-increasing
    /// against it (the precondition for incremental repair), and builds
    /// the repair over the post-update `new_graph`.
    ///
    /// # Panics
    /// Panics if a `SetWeight` raises an existing edge's weight — repairs
    /// after weight *increases* need a different (decremental) algorithm.
    pub fn repair_after_updates<O: GraphView>(
        old_graph: &O,
        new_graph: &'g G,
        source: u32,
        updates: &[GraphUpdate],
    ) -> Self {
        for u in updates {
            if let GraphUpdate::SetWeight { from, to, weight } = *u {
                if let Some((_, old_w)) =
                    old_graph.neighbors(from).find(|&(target, _)| target == to)
                {
                    assert!(
                        weight <= old_w,
                        "SetWeight {from}->{to} raises {old_w} to {weight}: \
                         incremental repair requires non-increasing updates"
                    );
                }
                // A SetWeight on a missing edge is an insert, which (like
                // InsertEdge) only adds paths and never raises a distance.
            }
        }
        let (old_distances, _) = sssp::sequential(old_graph, source);
        Self::repair(new_graph, old_distances, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use crate::engine::{self, DecreaseKeyWorkload, PoolJob};
    use smq_core::Task;
    use smq_graph::generators::{road_network, RoadNetworkParams};
    use smq_graph::{CsrGraph, GraphBuilder, LiveGraph};
    use smq_scheduler::{HeapSmq, SmqConfig};
    use std::sync::Arc;

    fn road() -> CsrGraph {
        road_network(RoadNetworkParams {
            width: 20,
            height: 20,
            removal_percent: 10,
            seed: 11,
        })
    }

    #[test]
    fn hand_graph_repair_matches_full_dijkstra() {
        // 0 -> 1 (10), 0 -> 2 (3), 2 -> 1 (4), 1 -> 3 (2): dist = [0,7,3,9].
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10)
            .add_edge(0, 2, 3)
            .add_edge(2, 1, 4)
            .add_edge(1, 3, 2);
        let old = b.build();
        let updates = vec![GraphUpdate::SetWeight {
            from: 0,
            to: 1,
            weight: 1,
        }];
        let live = LiveGraph::new(Arc::new(old.clone()));
        live.publish(&updates);
        let snapshot = live.pin();
        let (old_dist, _) = crate::sssp::sequential(&old, 0);
        assert_eq!(old_dist, vec![0, 7, 3, 9]);
        let repaired = SsspWorkload::repair(&snapshot, old_dist, &updates).sequential_reference();
        let (full, _) = crate::sssp::sequential(&snapshot, 0);
        assert_eq!(repaired.output, full);
        assert_eq!(repaired.output, vec![0, 1, 3, 3]);
        // Only the improved region (1 and 3) re-settles.
        assert_eq!(repaired.baseline_tasks, 2);
    }

    #[test]
    fn empty_update_batch_is_a_no_op() {
        let g = road();
        let (old_dist, _) = crate::sssp::sequential(&g, 0);
        let workload = SsspWorkload::repair(&g, old_dist.clone(), &[]);
        let reference = workload.sequential_reference();
        assert_eq!(reference.output, old_dist);
        assert_eq!(reference.baseline_tasks, 0);
        assert!(workload.seed_tasks().is_empty());
        assert_eq!(workload.output(), old_dist);
        assert_eq!(workload.label_bits(), 64, "a repair keeps the 64-bit store");
    }

    #[test]
    fn repair_over_a_bounded_graph_keeps_the_wide_store() {
        hang_guard(|| {
            // The static graph's weight bound would admit 32-bit labels from
            // scratch; a repair starts from caller-supplied labels and keeps
            // 64 bits whatever the bound.
            let old = road();
            assert_eq!(SsspWorkload::new(&old, 0).label_bits(), 32);
            let updates = GraphUpdate::random_decreases(&old, 30, 9);
            let mut edges: Vec<_> = old.edges().collect();
            GraphUpdate::apply_to_edge_list(&mut edges, &updates);
            let mut b = GraphBuilder::new(old.num_nodes() as u32);
            for e in &edges {
                b.add_edge(e.from, e.to, e.weight);
            }
            let new = b.build();
            let workload = SsspWorkload::repair_after_updates(&old, &new, 0, &updates);
            assert_eq!(workload.label_bits(), 64);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let run = engine::run_parallel(&workload, &smq, 2);
            let (full, _) = crate::sssp::sequential(&new, 0);
            assert_eq!(run.output, full);
        });
    }

    #[test]
    fn parallel_repair_matches_full_dijkstra_on_new_snapshot() {
        hang_guard(|| {
            let base = Arc::new(road());
            let live = LiveGraph::new(Arc::clone(&base));
            let updates = GraphUpdate::random_decreases(&*base, 60, 77);
            live.publish(&updates);
            let snapshot = live.pin();
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let workload = SsspWorkload::repair_after_updates(&*base, &snapshot, 0, &updates);
            let run = engine::run_parallel(&workload, &smq, 2);
            let (full, _) = crate::sssp::sequential(&snapshot, 0);
            assert_eq!(run.output, full);
        });
    }

    #[test]
    fn workload_reports_equivalence_against_its_own_reference() {
        hang_guard(|| {
            let base = Arc::new(road());
            let live = LiveGraph::new(Arc::clone(&base));
            let updates = GraphUpdate::random_decreases(&*base, 40, 5);
            live.publish(&updates);
            let snapshot = live.pin();
            let workload = SsspWorkload::repair_after_updates(&*base, &snapshot, 0, &updates);
            let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(2));
            let (run, reference) = engine::run_and_check(&workload, &smq, 2);
            assert_eq!(run.output, reference.output);
        });
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn weight_increase_is_rejected() {
        let g = road();
        let edge = g.edges().next().unwrap();
        let updates = vec![GraphUpdate::SetWeight {
            from: edge.from,
            to: edge.to,
            weight: edge.weight + 1,
        }];
        let _ = SsspWorkload::repair_after_updates(&g, &g, 0, &updates);
    }

    #[test]
    fn repair_is_much_cheaper_than_recompute() {
        let base = Arc::new(road());
        let live = LiveGraph::new(Arc::clone(&base));
        let updates = GraphUpdate::random_decreases(&*base, 4, 21);
        live.publish(&updates);
        let snapshot = live.pin();
        let (old_dist, full_settled) = crate::sssp::sequential(&*base, 0);
        let repair_settled = SsspWorkload::repair(&snapshot, old_dist, &updates)
            .sequential_reference()
            .baseline_tasks;
        assert!(
            repair_settled < full_settled,
            "repair settled {repair_settled} >= full recompute {full_settled}"
        );
    }
}
