//! Appendix C.9 (Figures 15–16): head-to-head comparison of the four classic
//! Multi-Queue optimisation combinations (batching vs temporal locality on
//! each of the insert and delete sides) using representative parameter
//! choices, against the unoptimised classic Multi-Queue.

use smq_bench::{
    report::f2, run_workload, schedulers::baseline, standard_graphs, BenchArgs, SchedulerSpec,
    Table, Workload,
};
use smq_core::Probability;
use smq_multiqueue::{DeletePolicy, InsertPolicy};

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);

    let variants: Vec<(&str, SchedulerSpec)> = vec![
        ("classic", SchedulerSpec::ClassicMq { c: 4 }),
        (
            "insert=TL delete=TL",
            SchedulerSpec::OptimizedMq {
                c: 4,
                insert: InsertPolicy::TemporalLocality(Probability::new(64)),
                delete: DeletePolicy::TemporalLocality(Probability::new(64)),
                numa_k: None,
            },
        ),
        (
            "insert=TL delete=B",
            SchedulerSpec::OptimizedMq {
                c: 4,
                insert: InsertPolicy::TemporalLocality(Probability::new(64)),
                delete: DeletePolicy::Batching(16),
                numa_k: None,
            },
        ),
        (
            "insert=B delete=TL",
            SchedulerSpec::OptimizedMq {
                c: 4,
                insert: InsertPolicy::Batching(16),
                delete: DeletePolicy::TemporalLocality(Probability::new(64)),
                numa_k: None,
            },
        ),
        (
            "insert=B delete=B",
            SchedulerSpec::OptimizedMq {
                c: 4,
                insert: InsertPolicy::Batching(16),
                delete: DeletePolicy::Batching(16),
                numa_k: None,
            },
        ),
    ];

    let mut results = Vec::new();
    for workload in [Workload::Sssp, Workload::Bfs] {
        for spec in &specs {
            let (base_secs, base_tasks) = baseline(workload, spec, args.seed);
            let mut table = Table::new(
                format!(
                    "Figs 15-16 — MQ optimisation combos: {} on {} ({} threads)",
                    workload.name(),
                    spec.name,
                    args.threads
                ),
                &["Variant", "Speedup", "Work increase"],
            );
            for (label, kind) in &variants {
                let mut secs = 0.0;
                let mut tasks = 0u64;
                for rep in 0..args.repetitions {
                    let r =
                        run_workload(kind, workload, spec, args.threads, args.seed + rep as u64);
                    secs += r.seconds;
                    tasks += r.total_tasks();
                }
                let secs = secs / args.repetitions as f64;
                let speedup = base_secs / secs.max(1e-9);
                let increase = (tasks / args.repetitions as u64) as f64 / base_tasks.max(1) as f64;
                table.add_row(vec![label.to_string(), f2(speedup), f2(increase)]);
                results.push((
                    workload.name(),
                    spec.name,
                    label.to_string(),
                    speedup,
                    increase,
                ));
            }
            table.print();
        }
    }
    smq_bench::report::print_json("fig15_16_mq_best_variants", &results);
}
