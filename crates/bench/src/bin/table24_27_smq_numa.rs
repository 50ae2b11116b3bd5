//! Appendix E.5–E.6 (Tables 24–27): NUMA weight `K` ablation for the
//! Stealing Multi-Queue (heap and skip-list variants).
//!
//! Mirrors the Multi-Queue NUMA sweep: a topology-blind baseline row
//! (`K` column `blind`, `numa_k: None`), a hot-path batch sweep, locks
//! per operation, and the E_int in-node ratio over both sampled victims
//! and successful steals.  The simulated node count comes from
//! `--numa-nodes` (default 2).

use smq_bench::args::Scale;
use smq_bench::schedulers::{baseline, run_workload_numa};
use smq_bench::{report::f2, standard_graphs, BenchArgs, SchedulerSpec, Table, Workload};
use smq_core::Probability;

fn main() {
    let (args, rest) = BenchArgs::from_env();
    // Build the simulated topology up front so a `--numa-nodes` value that
    // does not divide `--threads` fails before any graph is generated.
    let topology = args.numa_topology(2);
    let numa_nodes = topology.num_nodes();
    let mut queue = "heap".to_string();
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--queue" => queue = it.next().expect("--queue needs heap|skiplist"),
            other => panic!("unknown flag '{other}'"),
        }
    }
    let mut specs = standard_graphs(args.full_scale(), args.seed);
    let ks: Vec<u32> = match args.scale {
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        Scale::Small => vec![1, 4, 16, 64, 256],
        Scale::Ci => vec![16],
    };
    if args.scale == Scale::Ci {
        // CI smoke: the small road graph keeps the run in seconds.
        specs = vec![specs.swap_remove(1)];
    }

    let batches = args.batch_sweep();
    let mut results = Vec::new();
    for spec in &specs {
        let workload = Workload::Sssp;
        let (base_secs, _) = baseline(workload, spec, args.seed);
        let mut table = Table::new(
            format!(
                "Tables 24-27 — SMQ ({queue}) NUMA sweep: SSSP on {} ({} threads, {numa_nodes} simulated node(s))",
                spec.name, args.threads
            ),
            &["K", "Batch", "Speedup", "Locks/op", "E_int"],
        );
        let mut blind_best = 0.0f64;
        let mut numa_best = 0.0f64;
        for k in std::iter::once(None).chain(ks.iter().copied().map(Some)) {
            let kind = match queue.as_str() {
                "skiplist" => SchedulerSpec::SmqSkipList {
                    steal_size: 4,
                    p_steal: Probability::new(8),
                    numa_k: k,
                },
                _ => SchedulerSpec::SmqHeap {
                    steal_size: 4,
                    p_steal: Probability::new(8),
                    numa_k: k,
                },
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
                results.push((queue.clone(), spec.name, k, batch, speedup, locks, e_int));
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
    smq_bench::report::print_json("table24_27_smq_numa", &results);
}
