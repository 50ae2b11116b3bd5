//! Appendix B (Figures 3–6): ablation of OBIM's / PMOD's Δ and CHUNK_SIZE
//! parameters, reported as speedup over the single-threaded classic
//! Multi-Queue baseline.

use smq_bench::{
    report::f2, run_workload, schedulers::baseline, standard_graphs, BenchArgs, SchedulerSpec,
    Table, Workload,
};

fn main() {
    let (args, rest) = BenchArgs::from_env();
    // `--scheduler obim|pmod|both` selects which heuristic to sweep.
    let mut which = "both".to_string();
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scheduler" => which = it.next().expect("--scheduler needs obim|pmod|both"),
            other => panic!("unknown flag '{other}'"),
        }
    }

    let specs = standard_graphs(args.full_scale(), args.seed);
    let deltas: Vec<u32> = if args.full_scale() {
        vec![0, 2, 4, 6, 8, 10, 12, 14, 16]
    } else {
        vec![0, 4, 8, 12]
    };
    let chunks: Vec<usize> = if args.full_scale() {
        vec![1, 4, 16, 64, 256, 512]
    } else {
        vec![4, 32, 128]
    };

    let mut results = Vec::new();
    let schedulers: Vec<&str> = match which.as_str() {
        "obim" => vec!["OBIM"],
        "pmod" => vec!["PMOD"],
        _ => vec!["OBIM", "PMOD"],
    };
    for sched_name in schedulers {
        for spec in &specs {
            let workload = Workload::Sssp;
            let (base_secs, _) = baseline(workload, spec, args.seed);
            let mut header = vec!["delta".to_string()];
            header.extend(chunks.iter().map(|c| format!("chunk={c}")));
            let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
            let mut table = Table::new(
                format!(
                    "Figs 3-6 — {sched_name} SSSP speedup on {} ({} threads)",
                    spec.name, args.threads
                ),
                &header_refs,
            );
            for &d in &deltas {
                let mut row = vec![format!("2^{d}")];
                for &c in &chunks {
                    let kind = if sched_name == "OBIM" {
                        SchedulerSpec::Obim {
                            delta_shift: d,
                            chunk_size: c,
                        }
                    } else {
                        SchedulerSpec::Pmod {
                            delta_shift: d,
                            chunk_size: c,
                        }
                    };
                    let mut secs = 0.0;
                    for rep in 0..args.repetitions {
                        secs += run_workload(
                            &kind,
                            workload,
                            spec,
                            args.threads,
                            args.seed + rep as u64,
                        )
                        .seconds;
                    }
                    let speedup = base_secs / (secs / args.repetitions as f64).max(1e-9);
                    row.push(f2(speedup));
                    results.push((sched_name, spec.name, d, c, speedup));
                }
                table.add_row(row);
            }
            table.print();
        }
    }
    smq_bench::report::print_json("fig3_6_obim_pmod_tuning", &results);
}
