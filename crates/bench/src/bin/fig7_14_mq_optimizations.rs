//! Appendix C (Figures 7–14, Tables 4–11): ablation of the classic
//! Multi-Queue's insert/delete optimisations.
//!
//! `--insert tl|batch` and `--delete tl|batch` select which of the four
//! combinations to sweep (temporal locality or task batching on each side),
//! mirroring the appendix's four sub-sections.  Parameters are swept over
//! the probability / batch grid and reported as speedup and work increase
//! over the single-threaded classic Multi-Queue.

use smq_bench::{
    report::f2, run_workload, schedulers::baseline, standard_graphs, BenchArgs, SchedulerSpec,
    Table, Workload,
};
use smq_core::Probability;
use smq_multiqueue::{DeletePolicy, InsertPolicy};

#[derive(Clone, Copy, PartialEq)]
enum Side {
    TemporalLocality,
    Batching,
}

fn parse_side(v: &str) -> Side {
    match v {
        "tl" => Side::TemporalLocality,
        "batch" => Side::Batching,
        other => panic!("expected tl|batch, got '{other}'"),
    }
}

fn main() {
    let (args, rest) = BenchArgs::from_env();
    let mut insert_side = Side::TemporalLocality;
    let mut delete_side = Side::TemporalLocality;
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--insert" => insert_side = parse_side(&it.next().expect("--insert needs tl|batch")),
            "--delete" => delete_side = parse_side(&it.next().expect("--delete needs tl|batch")),
            other => panic!("unknown flag '{other}'"),
        }
    }

    let grid: Vec<u32> = if args.full_scale() {
        vec![1, 2, 8, 32, 128, 512, 1024]
    } else {
        vec![1, 8, 64, 512]
    };
    let specs = standard_graphs(args.full_scale(), args.seed);
    let workload = Workload::Sssp;

    let make_insert = |v: u32| match insert_side {
        Side::TemporalLocality => InsertPolicy::TemporalLocality(Probability::new(v)),
        Side::Batching => InsertPolicy::Batching(v as usize),
    };
    let make_delete = |v: u32| match delete_side {
        Side::TemporalLocality => DeletePolicy::TemporalLocality(Probability::new(v)),
        Side::Batching => DeletePolicy::Batching(v as usize),
    };
    let side_name = |s: Side| match s {
        Side::TemporalLocality => "TL",
        Side::Batching => "B",
    };

    let mut results = Vec::new();
    for spec in &specs {
        let (base_secs, base_tasks) = baseline(workload, spec, args.seed);
        let mut header = vec!["insert \\ delete".to_string()];
        header.extend(
            grid.iter()
                .map(|v| format!("{}={v}", side_name(delete_side))),
        );
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            format!(
                "Figs 7-14 — MQ insert={} delete={} on {} SSSP ({} threads; speedup / work increase)",
                side_name(insert_side),
                side_name(delete_side),
                spec.name,
                args.threads
            ),
            &header_refs,
        );
        for &iv in &grid {
            let mut row = vec![format!("{}={iv}", side_name(insert_side))];
            for &dv in &grid {
                let kind = SchedulerSpec::OptimizedMq {
                    c: 4,
                    insert: make_insert(iv),
                    delete: make_delete(dv),
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
                let speedup = base_secs / secs.max(1e-9);
                let increase = (tasks / args.repetitions as u64) as f64 / base_tasks.max(1) as f64;
                row.push(format!("{} / {}", f2(speedup), f2(increase)));
                results.push((spec.name, iv, dv, speedup, increase));
            }
            table.add_row(row);
        }
        table.print();
    }
    smq_bench::report::print_json("fig7_14_mq_optimizations", &results);
}
