//! Point-to-point A* as a *query service* workload: thousands of
//! independent (source, target) route queries over one shared road graph,
//! served **concurrently**.
//!
//! A query runs the one A* kernel, [`AstarWorkload`]; what this module adds
//! is where its g-scores live.  A one-shot run allocates a fresh `O(n)`
//! label array — fine for a benchmark, fatal for a service where a single
//! query touches a few hundred vertices of a million-vertex graph.
//! [`RouteQueryEngine`] keeps a small fixed set of slot arrays (**lanes**)
//! for the graph's lifetime and stamps every entry with the query epoch
//! that wrote it:
//!
//! ```text
//!   slot = (epoch << DIST_BITS) | distance      (one AtomicU64 per vertex)
//! ```
//!
//! A slot whose stamp differs from the current query's epoch *is*
//! "infinity" — no reset pass ever runs, so per query the engine pays
//! O(touched vertices), not O(n).  The kernel sees a lane through the
//! [`LabelStore`] trait (`LaneLabels`, a lane plus an epoch) and never
//! learns the format.
//!
//! # Concurrency: lanes, each with its own epoch counter
//!
//! Each query claims an idle **lane** (an exclusive slot-array workspace;
//! concurrent queries must not share one, because a 64-bit slot can only
//! hold *one* query's tentative distance and an overwrite would silently
//! reset a live query's g-score to infinity) together with that lane's next
//! epoch.  Only the query holding a lane writes its slots, so an epoch need
//! only be unique within its lane: the free list keeps each idle lane's last
//! epoch, and no counter is shared between queries.  An engine with L lanes
//! serves up to L queries at once — pair it with a worker pool of G gangs
//! and `lanes >= G` so every gang can be busy; extra queries block briefly
//! for a free lane.
//!
//! # Epoch wrap
//!
//! When a lane's 24-bit epoch space is exhausted (every ~16.7M queries on
//! that lane), a stale stamp could alias the next epoch, so the query that
//! claims the lane wipes it and restarts its counter before writing any
//! slot.  No other query is involved: the other lanes run on untouched.
//!
//! Queries execute as jobs on a resident `smq_pool::WorkerPool` via
//! [`engine::run_on_pool`], one gang each, which is what the repo
//! benchmark's `route_closed` / `route_open_live` workloads and the
//! `JobService` acceptance tests drive: one scheduler fleet, G concurrent
//! queries, queries/sec as the reported metric.
//!
//! # Dynamic graphs
//!
//! The engine is generic over [`GraphSource`]: by default it serves a
//! frozen `CsrGraph` (pinning is a no-op reference), but it can equally sit
//! on a [`smq_graph::LiveGraph`] receiving concurrent weight updates.
//! Every query **pins one version for its whole lifetime** — A* expands the
//! frozen snapshot, never a torn mid-update view — and
//! [`RouteQueryEngine::query_pinned`] hands that exact view back to the
//! caller so the answer can be verified against a sequential run *on the
//! version that actually served it*, not the moving head.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use smq_graph::{CsrGraph, GraphSource, GraphView};
use smq_pool::WorkerPool;

use crate::astar::AstarWorkload;
use crate::engine::{self, LabelStore};
use crate::AlgoResult;

/// Low bits of a slot hold the tentative distance.
const DIST_BITS: u32 = 40;
/// In-slot "infinity": also the largest storable distance + 1.
const UNREACHED: u64 = (1 << DIST_BITS) - 1;
/// Epochs live in the remaining high bits.
const MAX_EPOCH: u64 = (1 << (64 - DIST_BITS)) - 1;

#[inline]
fn slot_epoch(raw: u64) -> u64 {
    raw >> DIST_BITS
}

#[inline]
fn slot_distance(raw: u64) -> u64 {
    raw & UNREACHED
}

#[inline]
const fn pack(epoch: u64, distance: u64) -> u64 {
    (epoch << DIST_BITS) | distance
}

/// A fresh or wiped slot: epoch 0 is never a live query epoch, so it reads
/// as unreached in every query.
const WIPED: u64 = pack(0, UNREACHED);

/// The answer to one route query.
#[derive(Debug, Clone)]
pub struct RouteAnswer {
    /// Shortest source→target distance (`u64::MAX` if unreachable).
    pub distance: u64,
    /// Graph version the query was served from (0 for static graphs).
    pub version: u64,
    /// Work and wall-clock accounting of the query's job.
    pub result: AlgoResult,
}

/// One query's view of its lane — the [`LabelStore`] the A* kernel runs
/// over in the service.  A slot stamped with another epoch reads as
/// unreached and is overwritten, stamp included, by the first decrease.
struct LaneLabels<'e> {
    slots: &'e [AtomicU64],
    epoch: u64,
}

impl LaneLabels<'_> {
    /// What a raw slot means to this query.
    #[inline]
    fn label(&self, raw: u64) -> u64 {
        if slot_epoch(raw) == self.epoch {
            slot_distance(raw)
        } else {
            UNREACHED
        }
    }
}

impl LabelStore for LaneLabels<'_> {
    const UNREACHED: u64 = UNREACHED;

    #[inline]
    fn get(&self, v: u32) -> u64 {
        self.label(self.slots[v as usize].load(Ordering::Relaxed))
    }

    #[inline]
    fn try_decrease(&self, v: u32, proposed: u64) -> bool {
        let slot = &self.slots[v as usize];
        let mut raw = slot.load(Ordering::Relaxed);
        while proposed < self.label(raw) {
            let stamped = pack(self.epoch, proposed);
            match slot.compare_exchange_weak(raw, stamped, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(observed) => raw = observed,
            }
        }
        false
    }
}

/// A resident point-to-point shortest-path query engine over one shared
/// road graph.
///
/// One engine value serves any number of queries, **concurrently** up to
/// its lane count (see the module docs): each query claims an exclusive
/// lane and that lane's next epoch, runs as a single-gang job on the given
/// pool, and releases the lane.  [`RouteQueryEngine::new`] builds a
/// one-lane engine (queries serialize on the lane);
/// [`RouteQueryEngine::with_lanes`] sizes it for a gang-partitioned pool.
///
/// The engine is generic over its [`GraphSource`] (default: a frozen
/// [`CsrGraph`]).  Over a [`smq_graph::LiveGraph`] every query pins the
/// latest published snapshot for its whole lifetime, so concurrent weight
/// updates never tear a query mid-expansion.
pub struct RouteQueryEngine<G: GraphSource = CsrGraph> {
    graph: Arc<G>,
    /// One slot array per concurrent query.  A lane belongs to exactly one
    /// in-flight query at a time; across queries the epoch stamps keep stale
    /// entries invisible without any reset pass.
    lanes: Vec<Vec<AtomicU64>>,
    /// Idle lanes, each with the last epoch it handed out; queries block on
    /// `lane_ready` when empty.
    free_lanes: Mutex<Vec<(usize, u64)>>,
    lane_ready: Condvar,
    /// Lane wipes at epoch wrap so far (diagnostics / tests).
    wraps: AtomicU64,
    queries_served: AtomicU64,
}

impl<G: GraphSource> RouteQueryEngine<G> {
    /// Builds a single-lane engine over `graph` (queries serialize on the
    /// one lane; memory is one `u64` per vertex).
    ///
    /// # Panics
    /// Panics if the graph's total edge weight does not fit the packed
    /// 40-bit distance field (no path can be longer than the sum of all
    /// edge weights, so fitting the sum guarantees every distance fits).
    pub fn new(graph: Arc<G>) -> Self {
        Self::with_lanes(graph, 1)
    }

    /// Builds an engine with `lanes` exclusive workspaces, serving up to
    /// `lanes` queries concurrently (memory: `lanes` `u64`s per vertex).
    /// Size it to the worker pool's gang count.
    ///
    /// The 40-bit-distance check runs against the version pinned *now*;
    /// for a live source, publishers are responsible for keeping the total
    /// weight of later versions under the same bound (each query asserts
    /// it on the version it pins).
    ///
    /// # Panics
    /// Like [`new`](Self::new); additionally requires `lanes >= 1`.
    pub fn with_lanes(graph: Arc<G>, lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one query lane");
        assert!(
            graph.pin().total_weight() < UNREACHED,
            "graph weights overflow the packed 40-bit distance field"
        );
        let n = graph.source_num_nodes();
        Self {
            lanes: (0..lanes)
                .map(|_| (0..n).map(|_| AtomicU64::new(WIPED)).collect())
                .collect(),
            // Epoch 0 is the wiped stamp, so every lane hands out 1 first.
            free_lanes: Mutex::new((0..lanes).map(|lane| (lane, 0)).collect()),
            lane_ready: Condvar::new(),
            graph,
            wraps: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
        }
    }

    /// The shared graph source.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Epoch-space wraps handled so far, one per lane wipe.
    pub fn epoch_wraps(&self) -> u64 {
        self.wraps.load(Ordering::Relaxed)
    }

    /// Runs one (source, target) query as a single-gang job on `pool`,
    /// returning the exact shortest distance (A* with the admissible road
    /// heuristic).  Safe to call from many threads at once: queries
    /// proceed concurrently up to the engine's lane count and the pool's
    /// gang count.
    pub fn query(&self, source: u32, target: u32, pool: &WorkerPool) -> RouteAnswer {
        self.query_pinned(source, target, pool).0
    }

    /// Like [`query`](Self::query), but also returns the graph view the
    /// query was served from.
    ///
    /// Over a live source this is the snapshot pinned for the query's
    /// whole lifetime: verify the answer against a sequential run on
    /// **this** view, not on a fresh pin of the (possibly newer) head.
    ///
    /// # Panics
    /// Panics if the pinned version's total weight does not fit the packed
    /// 40-bit distance field: a longer distance would overwrite the epoch
    /// bits of its slot and corrupt the answer.
    pub fn query_pinned(
        &self,
        source: u32,
        target: u32,
        pool: &WorkerPool,
    ) -> (RouteAnswer, G::View<'_>) {
        let lane = self.claim_lane();
        let view = self.graph.pin();
        // A static graph (version 0) was checked in `with_lanes` and walks
        // every edge to sum its weights; a live version caches the sum.
        assert!(
            view.version() == 0 || view.total_weight() < UNREACHED,
            "published updates overflowed the packed 40-bit distance field"
        );
        // The one A* kernel, over this query's epoch view of its lane.
        let labels = lane.labels();
        let run = engine::run_on_pool(&AstarWorkload::over(&view, source, target, labels), pool);
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let answer = RouteAnswer {
            distance: run.output,
            version: view.version(),
            result: run.result,
        };
        (answer, view)
    }

    /// Takes an idle lane and its next epoch, blocking while all lanes are
    /// busy.  Past `MAX_EPOCH` the lane is wiped and its counter restarts,
    /// before the caller writes any slot, so a stale stamp never aliases
    /// the new epoch.
    fn claim_lane(&self) -> LaneClaim<'_, G> {
        let mut free = self.free_lanes.lock().unwrap_or_else(|e| e.into_inner());
        let (index, last_epoch) = loop {
            if let Some(idle) = free.pop() {
                break idle;
            }
            free = self
                .lane_ready
                .wait(free)
                .unwrap_or_else(|e| e.into_inner());
        };
        drop(free);
        let mut epoch = last_epoch + 1;
        if epoch > MAX_EPOCH {
            // The job hand-off to the pool orders these before any read.
            for slot in &self.lanes[index] {
                slot.store(WIPED, Ordering::Relaxed);
            }
            self.wraps.fetch_add(1, Ordering::Relaxed);
            epoch = 1;
        }
        LaneClaim {
            engine: self,
            index,
            epoch,
        }
    }
}

/// Returns the lane, with the epoch it handed out, on drop — also on
/// unwind, so a panicking query job cannot leak a lane (its scribbles carry
/// an epoch the lane's next query has moved past).
struct LaneClaim<'e, G: GraphSource> {
    engine: &'e RouteQueryEngine<G>,
    index: usize,
    epoch: u64,
}

impl<'e, G: GraphSource> LaneClaim<'e, G> {
    /// The claimed lane as the query holding it sees it.
    fn labels(&self) -> LaneLabels<'e> {
        LaneLabels {
            slots: &self.engine.lanes[self.index],
            epoch: self.epoch,
        }
    }
}

impl<G: GraphSource> Drop for LaneClaim<'_, G> {
    fn drop(&mut self) {
        let mut free = self
            .engine
            .free_lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        free.push((self.index, self.epoch));
        self.engine.lane_ready.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar;
    use crate::common::hang_guard;
    use proptest::prelude::*;
    use smq_core::Task;
    use smq_graph::generators::{road_network, RoadNetworkParams};
    use smq_graph::{GraphBuilder, GraphUpdate, LiveGraph};
    use smq_pool::PoolConfig;
    use smq_scheduler::{HeapSmq, SmqConfig};

    fn road() -> Arc<CsrGraph> {
        Arc::new(road_network(RoadNetworkParams {
            width: 18,
            height: 18,
            removal_percent: 12,
            seed: 33,
        }))
    }

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::new(
            HeapSmq::<Task>::new(SmqConfig::default_for_threads(threads).with_seed(4)),
            PoolConfig::new(threads),
        )
    }

    impl<G: GraphSource> RouteQueryEngine<G> {
        /// Sets the last epoch of every idle lane, to bring lanes to their
        /// wrap.
        fn set_idle_epochs(&self, last: u64) {
            for (_, epoch) in self.free_lanes.lock().unwrap().iter_mut() {
                *epoch = last;
            }
        }
    }

    fn gang_pool(gangs: usize, gang_size: usize) -> WorkerPool {
        WorkerPool::new_partitioned(
            move |g| {
                HeapSmq::<Task>::new(
                    SmqConfig::default_for_threads(gang_size).with_seed(4 + g as u64),
                )
            },
            PoolConfig::partitioned(gangs, gang_size),
        )
    }

    #[test]
    fn packing_round_trips() {
        let raw = pack(12, 99);
        assert_eq!(slot_epoch(raw), 12);
        assert_eq!(slot_distance(raw), 99);
        assert_eq!(slot_distance(pack(MAX_EPOCH, UNREACHED)), UNREACHED);
        assert_eq!(slot_epoch(pack(MAX_EPOCH, UNREACHED)), MAX_EPOCH);
    }

    #[test]
    fn queries_match_one_shot_astar() {
        hang_guard(|| {
            let graph = road();
            let engine = RouteQueryEngine::new(Arc::clone(&graph));
            let pool = pool(2);
            let n = graph.num_nodes() as u32;
            for i in 0..40u32 {
                let source = (i * 13) % n;
                let target = (i * 29 + 7) % n;
                let answer = engine.query(source, target, &pool);
                let (expected, _) = astar::sequential(&graph, source, target);
                assert_eq!(answer.distance, expected, "query {source}->{target}");
            }
            assert_eq!(engine.queries_served(), 40);
            assert_eq!(pool.stats().threads_spawned, 2);
        });
    }

    proptest! {
        /// The two label formats answer alike: one lane reused by a run of
        /// queries — stale-epoch slots left in place, the lane's epoch
        /// counter crossing its wrap — against a `Vec<AtomicU64>` allocated
        /// fresh per query, under the same random `get` / `try_decrease`
        /// sequence.
        #[test]
        fn lane_labels_answer_like_a_fresh_label_vector(
            queries in proptest::collection::vec(
                proptest::collection::vec((0u32..6, 0u64..40, any::<bool>()), 1..24),
                4..10,
            ),
            before_wrap in 0u64..4,
        ) {
            let engine = RouteQueryEngine::new(road());
            engine.set_idle_epochs(MAX_EPOCH - before_wrap);
            for ops in &queries {
                let claim = engine.claim_lane();
                let lane = claim.labels();
                let dense: Vec<AtomicU64> = (0..6).map(|_| AtomicU64::new(u64::MAX)).collect();
                for &(v, proposed, read) in ops {
                    if read {
                        let expected = match LabelStore::get(&dense, v) {
                            u64::MAX => UNREACHED,
                            label => label,
                        };
                        prop_assert_eq!(lane.get(v), expected);
                    } else {
                        prop_assert_eq!(
                            lane.try_decrease(v, proposed),
                            dense.try_decrease(v, proposed)
                        );
                    }
                }
            }
            prop_assert_eq!(engine.epoch_wraps(), 1);
        }
    }

    #[test]
    fn unreachable_target_reports_max() {
        hang_guard(|| {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1, 5);
            let graph = Arc::new(b.build());
            let engine = RouteQueryEngine::new(graph);
            let pool = pool(1);
            let answer = engine.query(0, 2, &pool);
            assert_eq!(answer.distance, u64::MAX);
        });
    }

    #[test]
    fn epoch_wrap_resets_lanes() {
        hang_guard(|| {
            let graph = road();
            let engine = RouteQueryEngine::new(Arc::clone(&graph));
            // Force the lane to the edge of its epoch space.
            engine.set_idle_epochs(MAX_EPOCH);
            engine.lanes[0][3].store(pack(1, 13), Ordering::Relaxed);
            let pool = pool(1);
            let answer = engine.query(0, (graph.num_nodes() - 1) as u32, &pool);
            let (expected, _) = astar::sequential(&graph, 0, (graph.num_nodes() - 1) as u32);
            assert_eq!(answer.distance, expected);
            // The lane wrapped (one wipe) and restarted its counter; the stale
            // slot, which would alias epoch 1, was wiped.
            assert_eq!(engine.epoch_wraps(), 1);
            assert_eq!(*engine.free_lanes.lock().unwrap(), vec![(0, 1)]);
        });
    }

    #[test]
    fn concurrent_queries_on_separate_lanes_are_exact() {
        hang_guard(|| {
            // Two client threads hammer one engine (two lanes) through two
            // independent pools; every answer must stay exact even though the
            // queries genuinely overlap.
            let graph = road();
            let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
            let n = graph.num_nodes() as u32;
            std::thread::scope(|scope| {
                for t in 0..2u32 {
                    let engine = Arc::clone(&engine);
                    let graph = Arc::clone(&graph);
                    scope.spawn(move || {
                        let pool = pool(1);
                        for i in 0..60u32 {
                            let source = (t * 997 + i * 13) % n;
                            let target = (t * 389 + i * 29 + 7) % n;
                            let answer = engine.query(source, target, &pool);
                            let (expected, _) = astar::sequential(&graph, source, target);
                            assert_eq!(answer.distance, expected, "query {source}->{target}");
                        }
                    });
                }
            });
            assert_eq!(engine.queries_served(), 120);
        });
    }

    #[test]
    fn lanes_wrap_independently_under_two_live_clients() {
        hang_guard(|| {
            // Two clients each hold a lane at once in every round, so both
            // lanes cross their wrap mid-stream while the other lane's query
            // is live; every answer must stay exact.
            let graph = road();
            let engine = RouteQueryEngine::with_lanes(Arc::clone(&graph), 2);
            let n = graph.num_nodes() as u32;
            engine.set_idle_epochs(MAX_EPOCH - 30);
            let both_claimed = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for t in 0..2u32 {
                    let (engine, graph, both_claimed) = (&engine, &graph, &both_claimed);
                    scope.spawn(move || {
                        let pool = pool(1);
                        let mut answers = Vec::new();
                        for i in 0..40u32 {
                            let source = (t * 653 + i * 17) % n;
                            let target = (t * 211 + i * 41 + 3) % n;
                            let lane = engine.claim_lane();
                            both_claimed.wait();
                            let run = engine::run_on_pool(
                                &AstarWorkload::over(&**graph, source, target, lane.labels()),
                                &pool,
                            );
                            answers.push((source, target, run.output));
                        }
                        // Checked after the rounds, so a failure cannot leave
                        // the other client waiting at the barrier.
                        for (source, target, distance) in answers {
                            let (expected, _) = astar::sequential(&**graph, source, target);
                            assert_eq!(distance, expected, "query {source}->{target}");
                        }
                    });
                }
            });
            assert_eq!(engine.epoch_wraps(), 2, "each lane wrapped once");

            // A wrap on one lane leaves the other's stamped slots and its
            // counter untouched.
            let held = engine.claim_lane();
            held.labels().try_decrease(5, 77);
            let slots = |lane: usize| -> Vec<u64> {
                engine.lanes[lane]
                    .iter()
                    .map(|slot| slot.load(Ordering::Relaxed))
                    .collect()
            };
            let held_slots = slots(held.index);
            engine.set_idle_epochs(MAX_EPOCH);
            let wrapped = engine.claim_lane();
            assert_eq!(wrapped.epoch, 1);
            assert_eq!(engine.epoch_wraps(), 3);
            assert!(slots(wrapped.index).iter().all(|&raw| raw == WIPED));
            assert_eq!(slots(held.index), held_slots);
            assert_eq!(held.labels().get(5), 77);
            let (held_lane, held_epoch) = (held.index, held.epoch);
            drop(held);
            assert!(engine
                .free_lanes
                .lock()
                .unwrap()
                .contains(&(held_lane, held_epoch)));
        });
    }

    #[test]
    #[should_panic(expected = "published updates overflowed the packed 40-bit distance field")]
    fn live_version_past_the_distance_field_fails_loudly() {
        hang_guard(|| {
            // 299 chain edges at u32::MAX sum past 2^40: the far end's distance
            // would spill into its slot's epoch bits.
            let mut b = GraphBuilder::new(300);
            for v in 0..299 {
                b.add_edge(v, v + 1, 1);
            }
            let live = Arc::new(LiveGraph::new(Arc::new(b.build())));
            let engine = RouteQueryEngine::new(Arc::clone(&live));
            let slowdowns: Vec<GraphUpdate> = (0..299)
                .map(|v| GraphUpdate::SetWeight {
                    from: v,
                    to: v + 1,
                    weight: u32::MAX,
                })
                .collect();
            live.publish(&slowdowns);
            engine.query(0, 299, &pool(1));
        });
    }

    #[test]
    fn static_queries_report_version_zero() {
        hang_guard(|| {
            let graph = road();
            let engine = RouteQueryEngine::new(Arc::clone(&graph));
            let pool = pool(1);
            let (answer, view) = engine.query_pinned(3, 200, &pool);
            let (expected, _) = astar::sequential(&view, 3, 200);
            assert_eq!(answer.distance, expected);
            assert_eq!(answer.version, 0);
            assert_eq!(view.version(), 0);
        });
    }

    #[test]
    fn live_graph_queries_verify_on_the_pinned_view() {
        hang_guard(|| {
            // An engine over a LiveGraph: weight updates land between queries,
            // every answer must match sequential A* on the view that actually
            // served it, and later queries must observe later versions.
            let graph = road();
            let live = Arc::new(LiveGraph::new(Arc::clone(&graph)));
            let engine = RouteQueryEngine::new(Arc::clone(&live));
            let pool = pool(1);
            let n = graph.num_nodes() as u32;
            let mut last_version = 0;
            for i in 0..12u32 {
                let source = (i * 13) % n;
                let target = (i * 29 + 7) % n;
                let (answer, view) = engine.query_pinned(source, target, &pool);
                let (expected, _) = astar::sequential(&view, source, target);
                assert_eq!(answer.distance, expected, "query {source}->{target}");
                assert_eq!(answer.version, view.version());
                assert!(answer.version > last_version, "versions must advance");
                last_version = answer.version;
                // Slowdowns only: weights stay >= the base weights the road
                // generator derived from coordinates, so the A* heuristic
                // stays admissible on every version.
                let updates = GraphUpdate::random_slowdowns(&*graph, 8, 100 + u64::from(i), 4);
                live.publish(&updates);
            }
            assert!(last_version >= 12);
            assert_eq!(engine.queries_served(), 12);
        });
    }

    #[test]
    fn gang_pool_serves_concurrent_queries() {
        hang_guard(|| {
            // One 2-gang pool + 2-lane engine: queries claim one gang each.
            let graph = road();
            let engine = Arc::new(RouteQueryEngine::with_lanes(Arc::clone(&graph), 2));
            let pool = gang_pool(2, 1);
            let n = graph.num_nodes() as u32;
            std::thread::scope(|scope| {
                for t in 0..2u32 {
                    let engine = Arc::clone(&engine);
                    let graph = Arc::clone(&graph);
                    let pool = &pool;
                    scope.spawn(move || {
                        for i in 0..30u32 {
                            let source = (t * 71 + i * 13) % n;
                            let target = (t * 127 + i * 29 + 7) % n;
                            let answer = engine.query(source, target, pool);
                            let (expected, _) = astar::sequential(&graph, source, target);
                            assert_eq!(answer.distance, expected);
                        }
                    });
                }
            });
            assert_eq!(engine.queries_served(), 60);
            assert_eq!(pool.stats().jobs_completed, 60);
            assert_eq!(pool.stats().threads_spawned, 2);
        });
    }
}
