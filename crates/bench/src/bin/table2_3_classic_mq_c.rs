//! Tables 2–3: classic Multi-Queue speedup for queue multiplicities C ∈ {2..8}.
//!
//! The paper reports speedup of the C·T-queue Multi-Queue over a sequential
//! priority-queue execution, per benchmark.  This binary sweeps C for every
//! workload × graph combination and prints speedup over the single-threaded
//! classic Multi-Queue baseline (the same baseline Figure 2 uses).

use smq_bench::{
    report::f2, run_workload, standard_graphs, BenchArgs, SchedulerSpec, Table, Workload,
};

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);
    let c_values: Vec<usize> = if args.full_scale() {
        (2..=8).collect()
    } else {
        vec![2, 4, 6, 8]
    };

    let mut header: Vec<String> = vec!["Benchmark".to_string()];
    header.extend(c_values.iter().map(|c| format!("C={c}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!(
            "Tables 2-3 — classic Multi-Queue speedup vs C ({} threads, speedup over 1-thread MQ)",
            args.threads
        ),
        &header_refs,
    );

    let mut results = Vec::new();
    for workload in [
        Workload::Sssp,
        Workload::Bfs,
        Workload::Astar,
        Workload::Mst,
    ] {
        for spec in &specs {
            if !workload.suits(spec) {
                continue; // A* and MST are evaluated on the road graphs only
            }
            let (base_secs, _) = smq_bench::schedulers::baseline(workload, spec, args.seed);
            let mut row = vec![format!("{} {}", workload.name(), spec.name)];
            for &c in &c_values {
                let mut total = 0.0;
                for rep in 0..args.repetitions {
                    let r = run_workload(
                        &SchedulerSpec::ClassicMq { c },
                        workload,
                        spec,
                        args.threads,
                        args.seed + rep as u64,
                    );
                    total += r.speedup_over(base_secs);
                }
                let speedup = total / args.repetitions as f64;
                results.push((workload.name(), spec.name, c, speedup));
                row.push(f2(speedup));
            }
            table.add_row(row);
        }
    }
    table.print();
    smq_bench::report::print_json("table2_3", &results);
}
