//! Integration tests for the *quality* side of the paper's claims: the SMQ's
//! stealing keeps priority relaxation (and therefore wasted work) bounded,
//! and the rank-model simulator agrees qualitatively with the schedulers'
//! measured wasted work.

use smq_repro::algos::sssp::{self, SsspWorkload};
use smq_repro::core::{Probability, Scheduler, SchedulerHandle, Task};
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::graph::CsrGraph;
use smq_repro::pool::PoolJob;
use smq_repro::rank::{simulate, RankSimConfig};
use smq_repro::smq::{HeapSmq, SmqConfig};

/// SSSP from vertex 0 on an SMQ built from `config`, with the handles
/// driven round-robin from this one thread: each turn a handle pops one
/// task (stealing on its own seeded coin), runs the workload's `process`
/// on it and pushes the follow-ups back into itself.  Returns the work
/// increase over `settled`.  No OS thread is involved, so the result is a
/// function of the graph and the scheduler seed alone — the real-thread
/// version of this measurement failed 2 runs in 100.
fn round_robin_work_increase(graph: &CsrGraph, config: SmqConfig, settled: u64) -> f64 {
    let workload = SsspWorkload::new(graph, 0);
    let smq: HeapSmq<Task> = HeapSmq::new(config);
    let mut handles: Vec<_> = (0..smq.num_threads()).map(|t| smq.handle(t)).collect();
    let mut pending = 0u64;
    for task in workload.seed_tasks() {
        handles[0].push(task);
        pending += 1;
    }
    let mut executed = 0u64;
    while pending > 0 {
        for handle in &mut handles {
            if let Some(task) = handle.pop() {
                pending -= 1;
                executed += 1;
                let mut push = |follow_up| {
                    handle.push(follow_up);
                    pending += 1;
                };
                workload.process(task, &mut push);
            }
        }
    }
    executed as f64 / settled as f64
}

#[test]
fn more_stealing_means_less_wasted_work_on_road_sssp() {
    // Wasted work in SSSP is driven by priority inversions; Theorem 1 says
    // inversions grow as stealing becomes rarer.  Compare p_steal = 1/2
    // against p_steal = 1/256 on a road graph, same thread count and seeds.
    let graph = road_network(RoadNetworkParams {
        width: 40,
        height: 40,
        removal_percent: 10,
        seed: 5,
    });
    let (_, settled) = sssp::sequential(&graph, 0);

    let run_with = |p: u32, seed: u64| {
        let config = SmqConfig::default_for_threads(4)
            .with_p_steal(Probability::new(p))
            .with_steal_size(1)
            .with_seed(seed);
        round_robin_work_increase(&graph, config, settled)
    };

    // Average over several scheduler seeds and assert the direction only.
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let frequent: f64 = seeds.iter().map(|&s| run_with(2, s)).sum::<f64>() / seeds.len() as f64;
    let rare: f64 = seeds.iter().map(|&s| run_with(256, s)).sum::<f64>() / seeds.len() as f64;
    assert!(
        rare > frequent,
        "rare stealing should not waste less work: frequent {frequent:.3}, rare {rare:.3}"
    );
}

#[test]
fn rank_model_and_scheduler_agree_on_batching_direction() {
    // The analytical model says larger batches increase rank cost; the
    // schedulers should show the same direction in wasted work (larger
    // steal batches => more relaxation).  This ties the theory crate to the
    // implementation crate.
    let model_small = simulate(&RankSimConfig {
        batch: 1,
        ..RankSimConfig::default()
    });
    let model_large = simulate(&RankSimConfig {
        batch: 32,
        ..RankSimConfig::default()
    });
    assert!(model_large.mean_removed_rank > model_small.mean_removed_rank);

    let graph = road_network(RoadNetworkParams {
        width: 40,
        height: 40,
        removal_percent: 10,
        seed: 8,
    });
    let (_, settled) = sssp::sequential(&graph, 0);
    // Average over several scheduler seeds; the assertion only guards the
    // *direction* (huge batches must not systematically reduce waste), not
    // a precise ratio.
    let work_with = |steal_size: usize| {
        let seeds = [11u64, 12, 13, 14, 15, 16, 17, 18];
        seeds
            .iter()
            .map(|&s| {
                let config = SmqConfig::default_for_threads(4)
                    .with_steal_size(steal_size)
                    .with_p_steal(Probability::new(2))
                    .with_seed(s);
                round_robin_work_increase(&graph, config, settled)
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let small = work_with(1);
    let large = work_with(256);
    assert!(
        large > small,
        "very large steal batches should not reduce wasted work: small {small:.3}, large {large:.3}"
    );
}

#[test]
fn smq_wasted_work_is_modest_at_default_parameters() {
    // Figure 2's qualitative claim: at the default parameters the SMQ's work
    // increase over the sequential baseline stays small on road SSSP.
    let graph = road_network(RoadNetworkParams {
        width: 48,
        height: 48,
        removal_percent: 10,
        seed: 21,
    });
    let (_, settled) = sssp::sequential(&graph, 0);
    let config = SmqConfig::default_for_threads(4).with_seed(2);
    let increase = round_robin_work_increase(&graph, config, settled);
    assert!(
        increase < 2.0,
        "work increase {increase:.2} is implausibly high for default SMQ parameters"
    );
}
