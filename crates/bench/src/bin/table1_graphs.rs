//! Table 1: the benchmark input graphs.
//!
//! Prints the vertex/edge counts and structural statistics of the synthetic
//! stand-ins used throughout the harness (and notes what they substitute),
//! plus — new with the unified workload engine — the sequential baseline
//! task count of every workload on every graph it suits, the denominator of
//! every work-increase number the other binaries report.

use std::sync::Arc;

use smq_algos::{astar, bfs, cc, incremental, kcore, mst, pagerank, sssp};
use smq_bench::{incremental_update_batch, standard_graphs, BenchArgs, GraphSpec, Table, Workload};
use smq_graph::LiveGraph;

/// The sequential reference's task count for `workload` on `spec`.
fn baseline_tasks(workload: Workload, spec: &GraphSpec, seed: u64) -> u64 {
    match workload {
        Workload::Sssp => sssp::sequential(&spec.graph, spec.source).1,
        Workload::Bfs => bfs::sequential(&spec.graph, spec.source).1,
        Workload::Astar => astar::sequential(&spec.graph, spec.source, spec.target).1,
        Workload::Mst => mst::sequential(&spec.graph).2,
        Workload::PagerankDelta => {
            pagerank::sequential(&spec.graph, pagerank::PagerankConfig::default()).1
        }
        Workload::KCore => kcore::sequential(&spec.graph).1,
        Workload::Cc => cc::sequential(&spec.graph).1,
        Workload::IncrementalSssp => {
            // Same deterministic decrease batch the parallel arm repairs.
            let updates = incremental_update_batch(spec, seed);
            let live = LiveGraph::new(Arc::new(spec.graph.clone()));
            live.publish(&updates);
            let snapshot = live.pin();
            let (old, _) = sssp::sequential(&spec.graph, spec.source);
            incremental::sequential(&snapshot, &old, &updates).1
        }
    }
}

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);

    let mut table = Table::new(
        "Table 1 — input graphs (synthetic stand-ins for the paper's datasets)",
        &[
            "Graph",
            "|V|",
            "|E|",
            "avg deg",
            "max deg",
            "coords",
            "Description",
        ],
    );
    for spec in &specs {
        table.add_row(vec![
            spec.name.to_string(),
            spec.graph.num_nodes().to_string(),
            spec.graph.num_edges().to_string(),
            format!("{:.2}", spec.graph.avg_degree()),
            spec.graph.max_degree().to_string(),
            spec.graph.has_coordinates().to_string(),
            spec.description.to_string(),
        ]);
    }
    table.print();

    let workloads = args.selected_workloads();
    let mut header: Vec<&str> = vec!["Graph"];
    header.extend(workloads.iter().map(|w| w.name()));
    let mut baselines = Table::new(
        "Table 1b — sequential baseline tasks per workload ('-' = workload \
         not run on this graph)",
        &header,
    );
    for spec in &specs {
        let mut row = vec![spec.name.to_string()];
        for &workload in &workloads {
            row.push(if workload.suits(spec) {
                smq_bench::report::count(baseline_tasks(workload, spec, args.seed))
            } else {
                "-".to_string()
            });
        }
        baselines.add_row(row);
    }
    baselines.print();

    println!(
        "Paper's originals: USA 24M/58M, WEST 6M/15M, TWITTER 41M/1468M, WEB 50M/1930M \
         (vertices/edges).  Run with --scale full for larger stand-ins."
    );
}
