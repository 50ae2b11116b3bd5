//! Figure 1 (and Appendix Figs 17–18 / Tables 12–13): ablation of the SMQ's
//! stealing probability `p_steal` and steal buffer size, for the d-ary-heap
//! variant, reporting both speedup and work increase.

use smq_bench::{
    report::f2, run_workload, schedulers::baseline, standard_graphs, BenchArgs, SchedulerSpec,
    Table, Workload,
};
use smq_core::Probability;

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);

    let p_steals: Vec<u32> = if args.full_scale() {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
    } else {
        vec![1, 4, 16, 64]
    };
    let steal_sizes: Vec<usize> = if args.full_scale() {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    } else {
        vec![1, 4, 16, 64]
    };

    let mut results = Vec::new();
    for workload in [Workload::Sssp, Workload::Astar] {
        for spec in &specs {
            if !workload.suits(spec) {
                continue;
            }
            let (base_secs, base_tasks) = baseline(workload, spec, args.seed);
            let mut speed = Table::new(
                format!(
                    "Fig 1 — SMQ (heap) speedup: {} on {} ({} threads)",
                    workload.name(),
                    spec.name,
                    args.threads
                ),
                &build_header(&steal_sizes),
            );
            let mut work = Table::new(
                format!(
                    "Fig 1 — SMQ (heap) work increase: {} on {}",
                    workload.name(),
                    spec.name
                ),
                &build_header(&steal_sizes),
            );
            let mut best = (0.0f64, 0u32, 0usize);
            for &p in &p_steals {
                let mut speed_row = vec![format!("p=1/{p}")];
                let mut work_row = vec![format!("p=1/{p}")];
                for &s in &steal_sizes {
                    let spec_kind = SchedulerSpec::SmqHeap {
                        steal_size: s,
                        p_steal: Probability::new(p),
                        numa_k: None,
                    };
                    let mut secs = 0.0;
                    let mut tasks = 0u64;
                    for rep in 0..args.repetitions {
                        let r = run_workload(
                            &spec_kind,
                            workload,
                            spec,
                            args.threads,
                            args.seed + rep as u64,
                        );
                        secs += r.seconds;
                        tasks += r.total_tasks();
                    }
                    let secs = secs / args.repetitions as f64;
                    let tasks = tasks / args.repetitions as u64;
                    let speedup = base_secs / secs.max(1e-9);
                    let increase = tasks as f64 / base_tasks.max(1) as f64;
                    if speedup > best.0 {
                        best = (speedup, p, s);
                    }
                    speed_row.push(f2(speedup));
                    work_row.push(f2(increase));
                    results.push((workload.name(), spec.name, p, s, speedup, increase));
                }
                speed.add_row(speed_row);
                work.add_row(work_row);
            }
            speed.print();
            work.print();
            println!(
                "Best configuration for {} on {}: p_steal = 1/{}, STEAL_SIZE = {} (speedup {:.2})\n",
                workload.name(),
                spec.name,
                best.1,
                best.2,
                best.0
            );
        }
    }
    smq_bench::report::print_json("fig1_smq_heap_ablation", &results);
}

fn build_header(steal_sizes: &[usize]) -> Vec<&'static str> {
    // Leak the small header strings so the Table API (which wants &str) stays
    // simple; a handful of short strings per process is negligible.
    let mut header = vec!["p_steal"];
    for s in steal_sizes {
        header.push(Box::leak(format!("S={s}").into_boxed_str()));
    }
    header
}
