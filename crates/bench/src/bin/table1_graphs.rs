//! Table 1: the benchmark input graphs.
//!
//! Prints the vertex/edge counts and structural statistics of the synthetic
//! stand-ins used throughout the harness (and notes what they substitute),
//! plus the task count of every workload's own sequential reference on
//! every graph it suits (through the same dispatch the parallel runs use),
//! the denominator of every work-increase number the other binaries report.

use smq_bench::{baseline_tasks, standard_graphs, BenchArgs, Table};

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
