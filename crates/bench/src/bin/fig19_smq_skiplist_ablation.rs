//! Appendix Figs 19–20 / Tables 14–15: the same p_steal × STEAL_SIZE
//! ablation as Figure 1, but for the skip-list-backed SMQ variant.

use smq_bench::{
    report::f2, run_workload, schedulers::baseline, standard_graphs, BenchArgs, SchedulerSpec,
    Table, Workload,
};
use smq_core::Probability;

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);
    let p_steals: Vec<u32> = if args.full_scale() {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    } else {
        vec![1, 4, 16, 64]
    };
    let steal_sizes: Vec<usize> = if args.full_scale() {
        vec![1, 2, 4, 8, 16, 32, 64]
    } else {
        vec![1, 4, 16]
    };

    let mut results = Vec::new();
    for spec in &specs {
        let workload = Workload::Sssp;
        let (base_secs, base_tasks) = baseline(workload, spec, args.seed);
        let mut header = vec!["p_steal".to_string()];
        header.extend(steal_sizes.iter().map(|s| format!("S={s}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            format!(
                "Figs 19-20 — SMQ (skip list) SSSP on {}: speedup / work increase ({} threads)",
                spec.name, args.threads
            ),
            &header_refs,
        );
        for &p in &p_steals {
            let mut row = vec![format!("p=1/{p}")];
            for &s in &steal_sizes {
                let kind = SchedulerSpec::SmqSkipList {
                    steal_size: s,
                    p_steal: Probability::new(p),
                    numa_k: None,
                };
                let mut secs = 0.0;
                let mut tasks = 0u64;
                for rep in 0..args.repetitions {
                    let r =
                        run_workload(&kind, workload, spec, args.threads, args.seed + rep as u64);
                    secs += r.seconds;
                    tasks += r.total_tasks();
                }
                let secs = secs / args.repetitions as f64;
                let tasks = tasks / args.repetitions as u64;
                let speedup = base_secs / secs.max(1e-9);
                let increase = tasks as f64 / base_tasks.max(1) as f64;
                row.push(format!("{} / {}", f2(speedup), f2(increase)));
                results.push((spec.name, p, s, speedup, increase));
            }
            table.add_row(row);
        }
        table.print();
    }
    smq_bench::report::print_json("fig19_smq_skiplist_ablation", &results);
}
