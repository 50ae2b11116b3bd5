//! SSSP on a synthetic road network, comparing the Stealing Multi-Queue
//! against the classic Multi-Queue and OBIM — a miniature of the paper's
//! Figure 2 experiment.
//!
//! Run with: `cargo run --release --example sssp_roadmap`

use smq_repro::algos::run_parallel;
use smq_repro::algos::sssp::{self, SsspWorkload};
use smq_repro::core::Task;
use smq_repro::graph::generators::{road_network, RoadNetworkParams};
use smq_repro::multiqueue::{MultiQueue, MultiQueueConfig};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::smq::{HeapSmq, SmqConfig};

fn main() {
    let graph = road_network(RoadNetworkParams {
        width: 64,
        height: 64,
        removal_percent: 10,
        seed: 42,
    });
    let threads = 4;
    println!(
        "road network: {} vertices, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let (reference, settled) = sssp::sequential(&graph, 0);
    println!("sequential Dijkstra settled {settled} vertices");

    // Stealing Multi-Queue (the paper's contribution).
    let smq: HeapSmq<Task> = HeapSmq::new(SmqConfig::default_for_threads(threads));
    let smq_run = run_parallel(&SsspWorkload::new(&graph, 0), &smq, threads);
    assert_eq!(smq_run.output, reference, "SMQ produced wrong distances");

    // Classic Multi-Queue baseline.
    let mq: MultiQueue<Task> = MultiQueue::new(MultiQueueConfig::classic(threads));
    let mq_run = run_parallel(&SsspWorkload::new(&graph, 0), &mq, threads);
    assert_eq!(mq_run.output, reference);

    // OBIM heuristic baseline.
    let obim: Obim<Task> = Obim::new(ObimConfig::obim(threads, 10, 32));
    let obim_run = run_parallel(&SsspWorkload::new(&graph, 0), &obim, threads);
    assert_eq!(obim_run.output, reference);

    println!("\nscheduler           time        tasks   work increase");
    for (name, run) in [
        ("SMQ (heap)", &smq_run),
        ("classic Multi-Queue", &mq_run),
        ("OBIM", &obim_run),
    ] {
        println!(
            "{:<19} {:>9.2?} {:>8} {:>14.2}",
            name,
            run.result.metrics.elapsed,
            run.result.total_tasks(),
            run.result.work_increase(settled),
        );
    }
    println!("\nAll three schedulers computed identical shortest-path distances.");
}
