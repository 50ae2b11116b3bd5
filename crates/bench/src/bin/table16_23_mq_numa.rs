//! Appendix E.1–E.4 (Tables 16–23): NUMA weight `K` ablation for the
//! optimised Multi-Queue variants.
//!
//! `K = 1` is the non-NUMA-aware sampler; larger `K` makes out-of-node
//! queue choices rarer.  Every table also carries a topology-blind
//! baseline row (`K` column `blind`, built with `numa_k: None`) so the
//! NUMA machinery is always measured against the exact code path it
//! replaces, sweeps the hot-path batch size, and reports locks per
//! operation next to the paper's E_int in-node ratio.  The simulated node
//! count comes from `--numa-nodes` (default 2).

use smq_bench::args::Scale;
use smq_bench::schedulers::{baseline, run_workload_numa};
use smq_bench::{report::f2, standard_graphs, BenchArgs, SchedulerSpec, Table, Workload};
use smq_core::Probability;
use smq_multiqueue::{DeletePolicy, InsertPolicy};

fn main() {
    let args = BenchArgs::from_env_strict();
    // Build the simulated topology up front so a `--numa-nodes` value that
    // does not divide `--threads` fails before any graph is generated.
    let topology = args.numa_topology(2);
    let numa_nodes = topology.num_nodes();
    let mut specs = standard_graphs(args.full_scale(), args.seed);
    let ks: Vec<u32> = match args.scale {
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        Scale::Small => vec![1, 4, 16, 64, 256],
        Scale::Ci => vec![16],
    };

    let mut variants: Vec<(&str, InsertPolicy, DeletePolicy)> = vec![
        (
            "insert=TL delete=TL",
            InsertPolicy::TemporalLocality(Probability::new(64)),
            DeletePolicy::TemporalLocality(Probability::new(64)),
        ),
        (
            "insert=TL delete=B",
            InsertPolicy::TemporalLocality(Probability::new(64)),
            DeletePolicy::Batching(16),
        ),
        (
            "insert=B delete=TL",
            InsertPolicy::Batching(16),
            DeletePolicy::TemporalLocality(Probability::new(64)),
        ),
        (
            "insert=B delete=B",
            InsertPolicy::Batching(16),
            DeletePolicy::Batching(16),
        ),
    ];
    if args.scale == Scale::Ci {
        // CI smoke: the fully batched variant on the small road graph keeps
        // the run in seconds on two cores.
        variants = variants.split_off(3);
        specs = vec![specs.swap_remove(1)];
    }

    let batches = args.batch_sweep();
    let mut results = Vec::new();
    for (variant_name, insert, delete) in &variants {
        for spec in &specs {
            let workload = Workload::Sssp;
            let (base_secs, _) = baseline(workload, spec, args.seed);
            let mut table = Table::new(
                format!(
                    "Tables 16-23 — MQ {variant_name} NUMA sweep: SSSP on {} ({} threads, {numa_nodes} simulated node(s))",
                    spec.name, args.threads
                ),
                &["K", "Batch", "Speedup", "Locks/op", "E_int"],
            );
            let mut blind_best = 0.0f64;
            let mut numa_best = 0.0f64;
            for k in std::iter::once(None).chain(ks.iter().copied().map(Some)) {
                let kind = SchedulerSpec::OptimizedMq {
                    c: 4,
                    insert: *insert,
                    delete: *delete,
                    numa_k: k,
                };
                for &batch in &batches {
                    let mut secs = 0.0;
                    let mut locks = 0.0;
                    let mut locality = 0.0;
                    let mut locality_reps = 0u32;
                    for rep in 0..args.repetitions {
                        let r = run_workload_numa(
                            &kind,
                            workload,
                            spec,
                            args.threads,
                            args.seed + rep as u64,
                            batch,
                            numa_nodes,
                        );
                        secs += r.seconds;
                        locks += r.locks_per_op.unwrap_or(0.0);
                        if let Some(l) = r.node_locality {
                            locality += l;
                            locality_reps += 1;
                        }
                    }
                    let secs = secs / args.repetitions as f64;
                    let locks = locks / args.repetitions as f64;
                    let speedup = base_secs / secs.max(1e-9);
                    let e_int = (locality_reps > 0).then(|| locality / locality_reps as f64);
                    match k {
                        None => blind_best = blind_best.max(speedup),
                        Some(_) => numa_best = numa_best.max(speedup),
                    }
                    table.add_row(vec![
                        k.map_or_else(|| "blind".to_string(), |k| k.to_string()),
                        batch.to_string(),
                        f2(speedup),
                        f2(locks),
                        e_int.map_or_else(|| "-".to_string(), f2),
                    ]);
                    results.push((
                        variant_name.to_string(),
                        spec.name,
                        k,
                        batch,
                        speedup,
                        locks,
                        e_int,
                    ));
                }
            }
            table.print();
            println!(
                "best NUMA-aware speedup {} vs topology-blind {} ({})\n",
                f2(numa_best),
                f2(blind_best),
                if numa_best >= blind_best {
                    "NUMA ahead"
                } else {
                    "blind ahead"
                }
            );
        }
    }
    smq_bench::report::print_json("table16_23_mq_numa", &results);
}
