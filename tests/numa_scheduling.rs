//! Cross-crate NUMA-scheduling properties and stress tests.
//!
//! Three guarantees are pinned here, at the workspace level, because they
//! span the topology layer, both schedulers, and the engine:
//!
//! * **Partition**: the node-blocked queue layout assigns every queue to
//!   exactly one node, and each node's block is the contiguous range
//!   `queues_of_node` reports — for arbitrary topology shapes.
//! * **Weighted sampling honors its contract**: the empirical in-node
//!   fraction of `WeightedQueueSampler` matches the documented
//!   `local_probability()` within tolerance, across random shapes, weights,
//!   and seeds.
//! * **`Topology::single_node` is exactly the topology-blind code path**:
//!   a single-thread replay with NUMA configured over one node produces
//!   *identical* `OpStats` (and work accounting) to a run with NUMA
//!   disabled, for both the Multi-Queue and the Stealing Multi-Queue.
//!   This is what makes NUMA awareness strictly opt-in.
//!
//! Plus the locality stress-assert: under a simulated 2-node topology with
//! a heavy local weight, the measured sample/steal locality rates must
//! meet the configured target.

use proptest::prelude::*;

use smq_repro::algos::engine;
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::core::rng::Pcg32;
use smq_repro::core::{OpStats, Probability, Scheduler, Task};
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::CsrGraph;
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig};
use smq_repro::pool::PoolConfig;
use smq_repro::runtime::{Topology, WeightedQueueSampler};
use smq_repro::smq::{HeapSmq, SmqConfig};

fn road(width: u32, seed: u64) -> CsrGraph {
    road_network(RoadNetworkParams {
        width,
        height: width,
        removal_percent: 10,
        seed,
    })
}

/// Merged `OpStats` plus work accounting from one single-thread SSSP
/// replay — everything that must be bit-identical between the
/// topology-blind path and the single-node NUMA path.
fn replay<S: Scheduler<Task>>(scheduler: &S, graph: &CsrGraph) -> (OpStats, u64, u64) {
    let workload = SsspWorkload::new(graph, 0);
    let run = engine::run_parallel_with(&workload, scheduler, PoolConfig::new(1).with_batch(1));
    (
        run.result.metrics.total.clone(),
        run.result.useful_tasks,
        run.result.wasted_tasks,
    )
}

proptest! {
    /// The node-blocked layout is a partition: every queue belongs to
    /// exactly one node, blocks are contiguous, and `node_of_queue` agrees
    /// with `queues_of_node` — for arbitrary topology shapes and
    /// queues-per-thread factors.
    #[test]
    fn node_assignment_partitions_the_queue_space(
        nodes in 1usize..6,
        threads_per_node in 1usize..5,
        qpt in 1usize..5,
    ) {
        let topo = Topology::uniform(nodes, threads_per_node);
        let num_queues = topo.num_threads() * qpt;
        let mut owners = vec![None; num_queues];
        for node in 0..nodes {
            let block = topo.queues_of_node(node, qpt);
            prop_assert_eq!(block.len(), topo.queues_per_node(qpt));
            for q in block {
                prop_assert!(q < num_queues, "queue {} out of range", q);
                prop_assert_eq!(owners[q], None, "queue {} claimed twice", q);
                owners[q] = Some(node);
                prop_assert_eq!(topo.node_of_queue(q, qpt), node);
            }
        }
        prop_assert!(owners.iter().all(Option::is_some), "some queue unassigned");
    }

    /// The weighted sampler's empirical in-node fraction matches its
    /// documented `local_probability()` within tolerance, across topology
    /// shapes, weights `K`, sampling threads, and RNG seeds.
    #[test]
    fn weighted_choice_matches_documented_probability(
        nodes in 2usize..5,
        threads_per_node in 1usize..4,
        qpt in 1usize..4,
        k in prop::sample::select(vec![1u32, 2, 4, 16, 64]),
        thread in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let topo = Topology::uniform(nodes, threads_per_node);
        let thread = thread % topo.num_threads();
        let sampler = WeightedQueueSampler::new(topo, qpt, k);
        let mut rng = Pcg32::new(seed);
        const DRAWS: usize = 8_192;
        let mut local = 0usize;
        for _ in 0..DRAWS {
            let (q, was_local) = sampler.sample(thread, &mut rng);
            prop_assert!(q < sampler.num_queues());
            local += usize::from(was_local);
        }
        let empirical = local as f64 / DRAWS as f64;
        let expected = sampler.local_probability();
        // Standard error at 8k draws is <= 0.0056; 5 sigma ~ 0.028.
        prop_assert!(
            (empirical - expected).abs() < 0.03,
            "empirical {} vs documented {} (K={}, nodes={})",
            empirical, expected, k, nodes
        );
    }

    /// A single-node NUMA configuration is bit-for-bit the topology-blind
    /// code path: single-thread replays produce identical operation
    /// statistics and work accounting for the Multi-Queue.
    #[test]
    fn single_node_multiqueue_replay_is_stats_identical(
        width in 8u32..20,
        seed in 0u64..1_000_000,
        k in prop::sample::select(vec![1u32, 16, 256]),
    ) {
        let graph = road(width, seed);
        let blind: MultiQueue<Task> =
            MultiQueue::new(MultiQueueConfig::classic(1).with_seed(seed));
        let numa: MultiQueue<Task> = MultiQueue::new(
            MultiQueueConfig::classic(1)
                .with_seed(seed)
                .with_numa(Topology::single_node(1), k),
        );
        prop_assert_eq!(replay(&blind, &graph), replay(&numa, &graph));
    }

    /// Same zero-regression guarantee for the Stealing Multi-Queue: NUMA
    /// over one node must not change a single counter relative to the
    /// topology-blind scheduler.
    #[test]
    fn single_node_smq_replay_is_stats_identical(
        width in 8u32..20,
        seed in 0u64..1_000_000,
        k in prop::sample::select(vec![1u32, 16, 256]),
    ) {
        let graph = road(width, seed);
        let blind: HeapSmq<Task> =
            HeapSmq::new(SmqConfig::default_for_threads(1).with_seed(seed));
        let numa: HeapSmq<Task> = HeapSmq::new(
            SmqConfig::default_for_threads(1)
                .with_seed(seed)
                .with_numa(Topology::single_node(1), k),
        );
        prop_assert_eq!(replay(&blind, &graph), replay(&numa, &graph));
    }
}

/// Locality stress-assert: a 4-thread run over a simulated 2-node topology
/// with a heavy local weight must keep the measured sample locality at or
/// above the configured target, and classified steals must stay
/// predominantly in-node.
#[test]
fn two_node_locality_meets_target() {
    let graph = road(40, 7);
    let topology = Topology::split(4, 2);
    let k = 64;

    // With C=4 queues per thread and 2 symmetric nodes, half the queues are
    // local: p_local = L / (L + R/K) = 0.5 / (0.5 + 0.5/64) ~ 0.9846.  The
    // target leaves headroom for the (classified-uniform) K-independent
    // accesses around it.
    let sample_target = 0.9;
    let mq: MultiQueue<Task> = MultiQueue::new(
        MultiQueueConfig::classic(4)
            .with_seed(11)
            .with_numa(topology.clone(), k),
    );
    let run = engine::run_parallel_with(
        &SsspWorkload::new(&graph, 0),
        &mq,
        PoolConfig::new(4).with_batch(1),
    );
    let stats = &run.result.metrics.total;
    let rate = stats
        .sample_locality_rate()
        .expect("NUMA-configured MultiQueue must classify samples");
    assert!(
        stats.local_samples + stats.remote_samples > 1_000,
        "stress run too small to be meaningful"
    );
    assert!(
        rate >= sample_target,
        "sample locality {rate} below target {sample_target}"
    );

    // SMQ: 1 of 3 possible victims is in-node, so uniform sampling would
    // sit at ~0.33; the weighted sampler with K=64 must push the sampled
    // *and* the successful-steal locality far above that.
    let steal_target = 0.6;
    let smq: HeapSmq<Task> = HeapSmq::new(
        SmqConfig::default_for_threads(4)
            .with_steal_size(4)
            .with_p_steal(Probability::new(2))
            .with_seed(13)
            .with_numa(topology, k),
    );
    let run = engine::run_parallel_with(
        &SsspWorkload::new(&graph, 0),
        &smq,
        PoolConfig::new(4).with_batch(1),
    );
    let stats = &run.result.metrics.total;
    let sampled = stats
        .sample_locality_rate()
        .expect("NUMA-configured SMQ must classify sampled victims");
    assert!(
        sampled >= steal_target,
        "sampled-victim locality {sampled} below target {steal_target}"
    );
    if stats.local_steals + stats.remote_steals >= 100 {
        let stolen = stats.steal_locality_rate().unwrap();
        assert!(
            stolen >= steal_target,
            "successful-steal locality {stolen} below target {steal_target}"
        );
    }
}
