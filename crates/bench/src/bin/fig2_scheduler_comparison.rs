//! Figure 2 (and Appendix Figs 21–22): comparison of SMQ (tuned and
//! default), the optimized NUMA-aware Multi-Queue, OBIM, PMOD, RELD and
//! SprayList across all workloads and graphs — the paper's four plus the
//! engine's PageRank-delta and k-core (run on the power-law graphs, the
//! inputs the Galois/PMOD lineage uses for them).
//!
//! For every scheduler the binary reports speedup over the single-threaded
//! classic Multi-Queue baseline and the work increase (total tasks executed
//! relative to that baseline), the two quantities plotted in Figure 2.
//! Restrict the sweep with `--workloads sssp,kcore,...`.
//!
//! Each configuration additionally sweeps the hot-path **batch size**
//! (`--batch N` pins it; the default sweeps `[1, 8, 32]`): the `Batch`
//! and `Locks/op` columns make the batch-granularity claim visible —
//! locks (and lock-equivalent synchronization passes) per scheduler
//! operation must fall as the batch grows, at unchanged answers.
//!
//! The `Rank err p50/p99` column reports the sampled rank-error probe
//! (popped key minus a cheap global-min estimate, every 64th pop) for
//! schedulers that expose a min-key hint; OBIM/PMOD and SprayList show
//! `-`.

use smq_bench::{
    report::f2, run_workload_batched, schedulers::baseline, standard_graphs, BenchArgs,
    SchedulerSpec, Table,
};
use smq_core::Probability;
use smq_multiqueue::{DeletePolicy, InsertPolicy};

fn competitors(threads: usize) -> Vec<(&'static str, SchedulerSpec)> {
    let numa_k = if threads >= 2 {
        Some(threads as u32 * 2)
    } else {
        None
    };
    vec![
        (
            "SMQ (Tuned)",
            SchedulerSpec::SmqHeap {
                steal_size: 16,
                p_steal: Probability::new(4),
                numa_k,
            },
        ),
        ("SMQ (Default)", SchedulerSpec::smq_default()),
        (
            "SMQ skip-list",
            SchedulerSpec::SmqSkipList {
                steal_size: 16,
                p_steal: Probability::new(8),
                numa_k: None,
            },
        ),
        (
            "MQ optimized (NUMA)",
            SchedulerSpec::OptimizedMq {
                c: 4,
                insert: InsertPolicy::Batching(16),
                delete: DeletePolicy::Batching(16),
                numa_k,
            },
        ),
        (
            "OBIM",
            SchedulerSpec::Obim {
                delta_shift: 10,
                chunk_size: 32,
            },
        ),
        (
            "PMOD",
            SchedulerSpec::Pmod {
                delta_shift: 10,
                chunk_size: 32,
            },
        ),
        ("RELD", SchedulerSpec::Reld { c: 4 }),
        ("SprayList", SchedulerSpec::SprayList),
    ]
}

fn main() {
    let args = BenchArgs::from_env_strict();
    let specs = standard_graphs(args.full_scale(), args.seed);
    let schedulers = competitors(args.threads);

    let mut results = Vec::new();
    for workload in args.selected_workloads() {
        for spec in &specs {
            // Workload/graph pairings mirror the paper's: A* needs
            // coordinates, MST runs on roads, PR-delta/k-core on power-law.
            if !workload.suits(spec) {
                continue;
            }
            let (base_secs, base_tasks) = baseline(workload, spec, args.seed);
            let mut table = Table::new(
                format!(
                    "Figure 2 — {} on {} ({} threads; speedup over 1-thread MQ / work increase)",
                    workload.name(),
                    spec.name,
                    args.threads
                ),
                &[
                    "Scheduler",
                    "Batch",
                    "Speedup",
                    "Work increase",
                    "Wasted %",
                    "Locks/op",
                    "NUMA locality",
                    "Rank err p50/p99",
                ],
            );
            for (label, kind) in &schedulers {
                for &batch in &args.batch_sweep() {
                    let mut secs = 0.0;
                    let mut tasks = 0u64;
                    let mut wasted = 0u64;
                    let mut locality = None;
                    // Averaged over the reps that reported it, like every
                    // other column in the row.
                    let mut locks_sum = 0.0;
                    let mut locks_reps = 0u32;
                    let mut rank_errors = smq_telemetry::LogHistogram::new();
                    for rep in 0..args.repetitions {
                        let r = run_workload_batched(
                            kind,
                            workload,
                            spec,
                            args.threads,
                            args.seed + rep as u64,
                            batch,
                        );
                        secs += r.seconds;
                        tasks += r.total_tasks();
                        wasted += r.wasted_tasks;
                        locality = r.node_locality.or(locality);
                        if let Some(l) = r.locks_per_op {
                            locks_sum += l;
                            locks_reps += 1;
                        }
                        rank_errors.merge(&r.rank_errors);
                    }
                    let locks_per_op = (locks_reps > 0).then(|| locks_sum / f64::from(locks_reps));
                    let secs = secs / args.repetitions as f64;
                    let tasks_avg = tasks / args.repetitions as u64;
                    let speedup = base_secs / secs.max(1e-9);
                    let increase = tasks_avg as f64 / base_tasks.max(1) as f64;
                    let wasted_pct = 100.0 * wasted as f64 / tasks.max(1) as f64;
                    table.add_row(vec![
                        label.to_string(),
                        batch.to_string(),
                        f2(speedup),
                        f2(increase),
                        f2(wasted_pct),
                        locks_per_op.map(f2).unwrap_or_else(|| "-".to_string()),
                        locality.map(f2).unwrap_or_else(|| "-".to_string()),
                        if rank_errors.is_empty() {
                            "-".to_string()
                        } else {
                            format!(
                                "{}/{}",
                                rank_errors.quantile(0.5),
                                rank_errors.quantile(0.99)
                            )
                        },
                    ]);
                    results.push((
                        workload.name(),
                        spec.name,
                        format!("{label} b{batch}"),
                        speedup,
                        increase,
                    ));
                }
            }
            table.print();
        }
    }
    smq_bench::report::print_json("fig2_scheduler_comparison", &results);
}
