//! Cross-crate integration tests: every scheduler, run through the real
//! executor on real workloads, must produce algorithm outputs equivalent to
//! the sequential references — relaxation may change *how much* work is
//! done, never *what* is computed.
//!
//! All seven workloads go through the generic engine
//! (`smq_algos::engine::run_and_check`), which runs the parallel workload,
//! runs its sequential reference, and asserts the workload's own
//! equivalence notion (exact for SSSP/BFS/A*/MST/k-core/CC, the
//! epsilon-derived tolerance bound for PageRank-delta).  Each test runs
//! under `common::hang_guard`, so a run that never quiesces fails by name.

mod common;

use smq_repro::algos::astar::AstarWorkload;
use smq_repro::algos::cc::CcWorkload;
use smq_repro::algos::engine;
use smq_repro::algos::kcore::KCoreWorkload;
use smq_repro::algos::mst::BoruvkaWorkload;
use smq_repro::algos::pagerank::{PagerankConfig, PagerankWorkload};
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::core::{Probability, Scheduler, Task};
use smq_repro::graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
use smq_repro::graph::CsrGraph;
use smq_repro::multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::runtime::Topology;
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};

fn road() -> CsrGraph {
    road_network(RoadNetworkParams {
        width: 28,
        height: 28,
        removal_percent: 10,
        seed: 91,
    })
}

fn social() -> CsrGraph {
    power_law(PowerLawParams {
        nodes: 4_000,
        avg_degree: 8,
        exponent: 2.2,
        max_weight: 255,
        seed: 17,
    })
}

/// A smaller power-law graph for the two task-heavy new workloads
/// (PageRank-delta, k-core): their wasted-work amplification under
/// relaxation is much higher than SSSP's, and the equivalence guarantee is
/// size-independent, so a compact graph keeps the debug-mode suite fast
/// while the tolerance bound stays meaningful.
fn small_social() -> CsrGraph {
    power_law(PowerLawParams {
        nodes: 800,
        avg_degree: 6,
        exponent: 2.2,
        max_weight: 255,
        seed: 29,
    })
}

/// Runs all seven workloads on fresh schedulers from `make`, each checked
/// against its sequential reference by the engine, under `hang_guard`.
fn verify_all_workloads<S, F>(make: F, threads: usize)
where
    S: Scheduler<Task>,
    F: Fn() -> S + Send + 'static,
{
    common::hang_guard(move || run_all_workloads(make, threads));
}

fn run_all_workloads<S: Scheduler<Task>>(make: impl Fn() -> S, threads: usize) {
    let social = social();
    let road = road();
    let small_social = small_social();
    let target = (road.num_nodes() - 1) as u32;

    engine::run_and_check(&SsspWorkload::new(&social, 0), &make(), threads);
    engine::run_and_check(&SsspWorkload::bfs(&social, 0), &make(), threads);
    engine::run_and_check(&AstarWorkload::new(&road, 0, target), &make(), threads);
    // MST is also cross-checked against Kruskal — an algorithmically
    // independent reference, so a bug in the shared Borůvka machinery can't
    // hide by corrupting the parallel run and its reference identically.
    let (mst_run, _) = engine::run_and_check(&BoruvkaWorkload::new(&road), &make(), threads);
    let (kruskal, kedges) = smq_repro::algos::mst::kruskal_weight(&road);
    assert_eq!(
        mst_run.output,
        (kruskal, kedges),
        "MST diverged from Kruskal"
    );
    engine::run_and_check(
        &PagerankWorkload::new(&small_social, PagerankConfig::test_scale()),
        &make(),
        threads,
    );
    engine::run_and_check(&KCoreWorkload::new(&small_social), &make(), threads);
    engine::run_and_check(&CcWorkload::new(&social), &make(), threads);
}

#[test]
fn smq_heap_matches_references() {
    verify_all_workloads(
        || HeapSmq::<Task>::new(SmqConfig::default_for_threads(3).with_seed(1)),
        3,
    );
}

#[test]
fn smq_heap_with_aggressive_stealing_matches_references() {
    verify_all_workloads(
        || {
            HeapSmq::<Task>::new(
                SmqConfig::default_for_threads(2)
                    .with_p_steal(Probability::ALWAYS)
                    .with_steal_size(64)
                    .with_seed(2),
            )
        },
        2,
    );
}

#[test]
fn smq_skiplist_matches_references() {
    verify_all_workloads(
        || SkipListSmq::<Task>::new(SmqConfig::default_for_threads(2).with_seed(3)),
        2,
    );
}

#[test]
fn smq_numa_variant_matches_references() {
    verify_all_workloads(
        || {
            HeapSmq::<Task>::new(
                SmqConfig::default_for_threads(4)
                    .with_numa(Topology::split(4, 2), 16)
                    .with_seed(4),
            )
        },
        4,
    );
}

#[test]
fn classic_multiqueue_matches_references() {
    verify_all_workloads(
        || MultiQueue::<Task>::new(MultiQueueConfig::classic(2).with_seed(5)),
        2,
    );
}

#[test]
fn optimized_multiqueue_matches_references() {
    verify_all_workloads(
        || {
            MultiQueue::<Task>::new(
                MultiQueueConfig::classic(2)
                    .with_insert(InsertPolicy::Batching(16))
                    .with_delete(DeletePolicy::Batching(16))
                    .with_seed(6),
            )
        },
        2,
    );
}

#[test]
fn temporal_locality_multiqueue_matches_references() {
    verify_all_workloads(
        || {
            MultiQueue::<Task>::new(
                MultiQueueConfig::classic(2)
                    .with_insert(InsertPolicy::TemporalLocality(Probability::new(64)))
                    .with_delete(DeletePolicy::TemporalLocality(Probability::new(64)))
                    .with_seed(7),
            )
        },
        2,
    );
}

#[test]
fn numa_multiqueue_matches_references() {
    verify_all_workloads(
        || {
            MultiQueue::<Task>::new(
                MultiQueueConfig::classic(4)
                    .with_numa(Topology::split(4, 2), 64)
                    .with_seed(8),
            )
        },
        4,
    );
}

#[test]
fn reld_matches_references() {
    verify_all_workloads(|| Reld::<Task>::new(2, 4, 9), 2);
}

#[test]
fn obim_matches_references() {
    verify_all_workloads(|| Obim::<Task>::new(ObimConfig::obim(2, 6, 16)), 2);
}

#[test]
fn pmod_matches_references() {
    verify_all_workloads(|| Obim::<Task>::new(ObimConfig::pmod(2, 6, 16)), 2);
}

#[test]
fn spraylist_matches_references() {
    verify_all_workloads(
        || SprayList::<Task>::new(SprayListConfig::default_for_threads(2)),
        2,
    );
}
