//! The paper's figures and tables, each a declaration over the sweep
//! driver: a function names its grid (sized by [`Scale::pick`](crate::args::Scale::pick)) and which
//! [`Cell`] fields go in which column; [`measure`] owns the repetition
//! loop and the averaging, and every run's answer is checked.  The binaries in `src/bin/`
//! call [`main`] with their [`REGISTRY`] name.
//!
//! Every speedup is over the 1-thread classic Multi-Queue ([`Baseline`]);
//! every work increase is over the workload's sequential reference.  All
//! figures but Fig. 2 and the NUMA tables run batch 1 (one task per step).

use smq_core::Probability;
use smq_multiqueue::{DeletePolicy, InsertPolicy};
use smq_rank::{simulate, RankSimConfig};

use crate::args::{own_flags, BenchArgs};
use crate::graphs::{standard_graphs, GraphSpec};
use crate::report::{count, print_tables, Table, Value};
use crate::schedulers::{
    mq_variants, sequential_reference, Point, SchedulerSpec, SmqQueue, Workload,
};
use crate::sweep::{measure, Baseline, Cell};

/// A figure: the shared arguments and the figure's own leftover flags in,
/// its tables out.
pub type Figure = fn(&BenchArgs, Vec<String>) -> Vec<Table>;

/// Every figure by the name of its binary.
pub const REGISTRY: [(&str, Figure); 11] = [
    ("fig1_smq_heap_ablation", fig1_smq_heap_ablation),
    ("fig2_scheduler_comparison", fig2_scheduler_comparison),
    ("fig3_6_obim_pmod_tuning", fig3_6_obim_pmod_tuning),
    ("fig7_14_mq_optimizations", fig7_14_mq_optimizations),
    ("fig15_16_mq_best_variants", fig15_16_mq_best_variants),
    ("fig19_smq_skiplist_ablation", fig19_smq_skiplist_ablation),
    ("table1_graphs", table1_graphs),
    ("table2_3_classic_mq_c", table2_3_classic_mq_c),
    ("table16_23_mq_numa", table16_23_mq_numa),
    ("table24_27_smq_numa", table24_27_smq_numa),
    ("theorem1_rank_bounds", theorem1_rank_bounds),
];

/// The body of every binary: runs the registered figure `name` on the
/// process arguments and prints its tables and the `JSON <name>:` line.
pub fn main(name: &str) {
    let (args, rest) = BenchArgs::parse(std::env::args().skip(1));
    let (_, run) = REGISTRY
        .iter()
        .find(|(registered, _)| *registered == name)
        .unwrap_or_else(|| panic!("no figure named '{name}'"));
    print_tables(name, &run(&args, rest));
}

/// What every cell of one workload × graph pairing shares.
struct Input<'a> {
    args: &'a BenchArgs,
    workload: Workload,
    graph: &'a GraphSpec,
    baseline: Baseline,
}

impl<'a> Input<'a> {
    /// Every pairing of `workloads` with the graphs that suit them (A*
    /// needs coordinates, MST runs on roads, PR-delta/k-core on power-law),
    /// each with its baseline measured.
    fn all(args: &'a BenchArgs, graphs: &'a [GraphSpec], workloads: &[Workload]) -> Vec<Self> {
        let mut inputs = Vec::new();
        for &workload in workloads {
            for graph in graphs.iter().filter(|graph| workload.suits(graph)) {
                inputs.push(Self {
                    args,
                    workload,
                    graph,
                    baseline: Baseline::measure(workload, graph, args.seed),
                });
            }
        }
        inputs
    }

    fn name(&self) -> String {
        format!("{} on {}", self.workload.name(), self.graph.name)
    }

    /// `figure`, this input and the thread count, as a table title.
    fn title(&self, figure: &str) -> String {
        format!("{figure}: {} ({} threads)", self.name(), self.args.threads)
    }

    fn cell(&self, scheduler: SchedulerSpec, batch: usize) -> Cell {
        let point = Point {
            scheduler,
            workload: self.workload,
            graph: self.graph,
            threads: self.args.threads,
            seed: self.args.seed,
            batch,
            numa_nodes: self.args.numa_nodes.unwrap_or(2),
        };
        measure(&point, self.args, &self.baseline)
    }
}

/// A `Cell` field as a table column.
type Column = (&'static str, fn(&Cell) -> Value);
const SPEEDUP: Column = ("Speedup", |cell| cell.speedup.into());
const WORK_INCREASE: Column = ("Work increase", |cell| cell.work_increase.into());
const WASTED: Column = ("Wasted %", |cell| (100.0 * cell.wasted_share).into());
const LOCKS_PER_OP: Column = ("Locks/op", |cell| cell.locks_per_op.into());
const E_INT: Column = ("E_int", |cell| cell.locality.into());
const RANK_ERRORS: Column = ("Rank err p50/p99", |cell| {
    cell.rank_error_quantiles()
        .map_or(Value::Absent, Value::Text)
});

/// One table with a row per `(labels, cell)`: the labels under `keys`,
/// then the cell's `columns`.
fn listing(
    title: String,
    keys: &[&str],
    columns: &[Column],
    rows: impl IntoIterator<Item = (Vec<Value>, Cell)>,
) -> Table {
    let names = columns.iter().map(|(name, _)| name);
    let mut table = Table::new(title, keys.iter().chain(names).copied());
    for (mut row, cell) in rows {
        row.extend(columns.iter().map(|(_, column)| column(&cell)));
        table.add_row(row);
    }
    table
}

/// Measures a `rows × cols` grid of cells once and returns one table per
/// entry of `columns` over it.
fn grid(
    title: &str,
    corner: &str,
    rows: &[String],
    cols: &[String],
    columns: &[Column],
    mut cell: impl FnMut(usize, usize) -> Cell,
) -> Vec<Table> {
    let head = || std::iter::once(corner).chain(cols.iter().map(String::as_str));
    let mut tables: Vec<Table> = columns
        .iter()
        .map(|(what, _)| Table::new(format!("{title}: {what}"), head()))
        .collect();
    for (r, label) in rows.iter().enumerate() {
        let cells: Vec<Cell> = (0..cols.len()).map(|c| cell(r, c)).collect();
        for (table, (_, column)) in tables.iter_mut().zip(columns) {
            let mut row = vec![label.as_str().into()];
            row.extend(cells.iter().map(column));
            table.add_row(row);
        }
    }
    tables
}

/// `1, 2, 4, .., 2^max_exponent`: the paper's full-scale parameter grids.
fn pow2<T: From<u16>>(max_exponent: u32) -> Vec<T> {
    (0..=max_exponent).map(|e| T::from(1 << e)).collect()
}

fn labels<T: std::fmt::Display>(prefix: &str, values: &[T]) -> Vec<String> {
    values.iter().map(|v| format!("{prefix}{v}")).collect()
}

/// The `p_steal` × `STEAL_SIZE` ablation of Figs 1 and 19–20.
fn smq_ablation(
    args: &BenchArgs,
    figure: &str,
    queue: SmqQueue,
    workloads: &[Workload],
    p_steals: Vec<u32>,
    steal_sizes: Vec<usize>,
) -> Vec<Table> {
    let graphs = standard_graphs(args.scale, args.seed);
    let sweep = |input: &Input| {
        grid(
            &input.title(figure),
            "p_steal",
            &labels("p=1/", &p_steals),
            &labels("S=", &steal_sizes),
            &[SPEEDUP, WORK_INCREASE],
            |r, c| {
                let scheduler = SchedulerSpec::Smq {
                    queue,
                    steal_size: steal_sizes[c],
                    p_steal: Probability::new(p_steals[r]),
                    numa_k: None,
                };
                input.cell(scheduler, 1)
            },
        )
    };
    let inputs = Input::all(args, &graphs, workloads);
    inputs.iter().flat_map(sweep).collect()
}

/// Figure 1 (and Appendix Figs 17–18 / Tables 12–13): ablation of the
/// SMQ's stealing probability and steal buffer size, d-ary-heap variant,
/// on SSSP and A*.
pub fn fig1_smq_heap_ablation(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    smq_ablation(
        args,
        "Fig 1 — SMQ (heap)",
        SmqQueue::Heap,
        &[Workload::Sssp, Workload::Astar],
        args.scale.pick(vec![1, 16], vec![1, 4, 16, 64], pow2(8)),
        args.scale.pick(vec![1, 16], vec![1, 4, 16, 64], pow2(9)),
    )
}

/// Appendix Figs 19–20 / Tables 14–15: the ablation of Figure 1 for the
/// skip-list-backed SMQ, on SSSP.
pub fn fig19_smq_skiplist_ablation(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    smq_ablation(
        args,
        "Figs 19-20 — SMQ (skip list)",
        SmqQueue::SkipList,
        &[Workload::Sssp],
        args.scale.pick(vec![1, 16], vec![1, 4, 16, 64], pow2(7)),
        args.scale.pick(vec![1, 16], vec![1, 4, 16], pow2(6)),
    )
}

/// Figure 2 (and Appendix Figs 21–22): SMQ (tuned and default), the
/// optimized NUMA-aware Multi-Queue, OBIM, PMOD, RELD and SprayList across
/// all workloads (`--workloads` restricts them) and the graphs that suit
/// them.  Each scheduler also sweeps the hot-path batch size (`--batch N`
/// pins it): `Locks/op` must fall as the batch grows, at unchanged
/// answers.  `Rank err p50/p99` is the sampled rank-error probe (popped
/// key minus a cheap global-min estimate, every 64th pop).
pub fn fig2_scheduler_comparison(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let graphs = standard_graphs(args.scale, args.seed);
    // NUMA-aware sampling needs a thread count that splits in two.
    let numa_k = args
        .threads
        .is_multiple_of(2)
        .then_some(args.threads as u32 * 2);
    let obim = |adaptive| SchedulerSpec::Obim {
        adaptive,
        delta_shift: 10,
        chunk_size: 32,
    };
    let smq = |queue, steal_size, p_steal, numa_k| SchedulerSpec::Smq {
        queue,
        steal_size,
        p_steal: Probability::new(p_steal),
        numa_k,
    };
    let schedulers = [
        ("SMQ (Tuned)", smq(SmqQueue::Heap, 16, 4, numa_k)),
        (
            "SMQ (Default)",
            SchedulerSpec::smq_default(SmqQueue::Heap, None),
        ),
        ("SMQ skip-list", smq(SmqQueue::SkipList, 16, 8, None)),
        // The fully batched variant, `insert=B delete=B`.
        ("MQ optimized (NUMA)", mq_variants(numa_k)[3].1),
        ("OBIM", obim(false)),
        ("PMOD", obim(true)),
        ("RELD", SchedulerSpec::Reld { c: 4 }),
        ("SprayList", SchedulerSpec::SprayList),
    ];
    let table = |input: &Input| {
        let rows = schedulers.iter().flat_map(|(label, scheduler)| {
            args.batch_sweep().into_iter().map(move |batch| {
                let key = vec![(*label).into(), batch.to_string().into()];
                (key, input.cell(*scheduler, batch))
            })
        });
        let columns = [
            SPEEDUP,
            WORK_INCREASE,
            WASTED,
            LOCKS_PER_OP,
            ("NUMA locality", E_INT.1),
            RANK_ERRORS,
        ];
        listing(
            input.title("Figure 2"),
            &["Scheduler", "Batch"],
            &columns,
            rows,
        )
    };
    let inputs = Input::all(args, &graphs, &args.selected_workloads());
    inputs.iter().map(table).collect()
}

/// Appendix B (Figures 3–6): ablation of OBIM's / PMOD's Δ and CHUNK_SIZE
/// on SSSP.  `--scheduler obim|pmod|both` selects the heuristic.
pub fn fig3_6_obim_pmod_tuning(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [which] = own_flags(rest, ["--scheduler"]);
    let schedulers: &[(&str, bool)] = match which.as_deref().unwrap_or("both") {
        "obim" => &[("OBIM", false)],
        "pmod" => &[("PMOD", true)],
        "both" => &[("OBIM", false), ("PMOD", true)],
        other => panic!("--scheduler needs obim|pmod|both, got '{other}'"),
    };
    let deltas: Vec<u32> = args.scale.pick(
        vec![0, 8],
        vec![0, 4, 8, 12],
        (0..=8).map(|d| 2 * d).collect(),
    );
    let chunks: Vec<usize> =
        args.scale
            .pick(vec![4, 32], vec![4, 32, 128], vec![1, 4, 16, 64, 256, 512]);
    let graphs = standard_graphs(args.scale, args.seed);
    let inputs = Input::all(args, &graphs, &[Workload::Sssp]);
    let mut tables = Vec::new();
    for &(name, adaptive) in schedulers {
        for input in &inputs {
            tables.extend(grid(
                &input.title(&format!("Figs 3-6 — {name}")),
                "delta",
                &labels("2^", &deltas),
                &labels("chunk=", &chunks),
                &[SPEEDUP],
                |r, c| {
                    let scheduler = SchedulerSpec::Obim {
                        adaptive,
                        delta_shift: deltas[r],
                        chunk_size: chunks[c],
                    };
                    input.cell(scheduler, 1)
                },
            ));
        }
    }
    tables
}

/// Appendix C (Figures 7–14, Tables 4–11): ablation of the classic
/// Multi-Queue's insert/delete optimisations on SSSP.  `--insert tl|batch`
/// and `--delete tl|batch` select which of the four combinations to sweep
/// (temporal locality or task batching on each side) over the probability /
/// batch grid.
pub fn fig7_14_mq_optimizations(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [insert, delete] = own_flags(rest, ["--insert", "--delete"]);
    // Whether a side batches (`B`) or uses temporal locality (`TL`).
    let tag = |flag: &str, side: Option<String>| match side.as_deref().unwrap_or("tl") {
        "tl" => "TL",
        "batch" => "B",
        other => panic!("{flag} needs tl|batch, got '{other}'"),
    };
    let (insert, delete) = (tag("--insert", insert), tag("--delete", delete));
    let values: Vec<u32> = args.scale.pick(
        vec![1, 16],
        vec![1, 8, 64, 512],
        vec![1, 2, 8, 32, 128, 512, 1024],
    );
    let graphs = standard_graphs(args.scale, args.seed);
    let sweep = |input: &Input| {
        grid(
            &input.title(&format!("Figs 7-14 — MQ insert={insert} delete={delete}")),
            "insert \\ delete",
            &labels(&format!("{insert}="), &values),
            &labels(&format!("{delete}="), &values),
            &[SPEEDUP, WORK_INCREASE, LOCKS_PER_OP],
            |r, c| {
                let (iv, dv) = (values[r], values[c]);
                let insert = match insert {
                    "B" => InsertPolicy::Batching(iv as usize),
                    _ => InsertPolicy::TemporalLocality(Probability::new(iv)),
                };
                let delete = match delete {
                    "B" => DeletePolicy::Batching(dv as usize),
                    _ => DeletePolicy::TemporalLocality(Probability::new(dv)),
                };
                input.cell(SchedulerSpec::mq(insert, delete, None), 1)
            },
        )
    };
    let inputs = Input::all(args, &graphs, &[Workload::Sssp]);
    inputs.iter().flat_map(sweep).collect()
}

/// Appendix C.9 (Figures 15–16): the four Multi-Queue optimisation
/// combinations at representative parameters against the unoptimised
/// classic Multi-Queue, on SSSP and BFS.
pub fn fig15_16_mq_best_variants(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let graphs = standard_graphs(args.scale, args.seed);
    let mut variants = vec![("classic", SchedulerSpec::classic_mq(4))];
    variants.extend(mq_variants(None));
    let table = |input: &Input| {
        let rows = variants
            .iter()
            .map(|(label, scheduler)| (vec![(*label).into()], input.cell(*scheduler, 1)));
        let columns = [SPEEDUP, WORK_INCREASE, LOCKS_PER_OP];
        let title = input.title("Figs 15-16 — MQ optimisation combos");
        listing(title, &["Variant"], &columns, rows)
    };
    let inputs = Input::all(args, &graphs, &[Workload::Sssp, Workload::Bfs]);
    inputs.iter().map(table).collect()
}

/// Table 1: the synthetic stand-ins for the paper's input graphs (USA
/// 24M/58M, WEST 6M/15M, TWITTER 41M/1468M, WEB 50M/1930M vertices/edges),
/// and Table 1b: the task count of every workload's sequential reference on
/// every graph it suits, the denominator of every work-increase number.
pub fn table1_graphs(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let graphs = standard_graphs(args.scale, args.seed);
    let mut table = Table::new(
        "Table 1 — input graphs (synthetic stand-ins for the paper's datasets)",
        [
            "Graph",
            "|V|",
            "|E|",
            "avg deg",
            "max deg",
            "coords",
            "Description",
        ],
    );
    for spec in &graphs {
        table.add_row(vec![
            spec.name.into(),
            spec.graph.num_nodes().to_string().into(),
            spec.graph.num_edges().to_string().into(),
            spec.graph.avg_degree().into(),
            spec.graph.max_degree().to_string().into(),
            spec.graph.has_coordinates().to_string().into(),
            spec.description.into(),
        ]);
    }
    let workloads = args.selected_workloads();
    let mut baselines = Table::new(
        "Table 1b — sequential baseline tasks per workload ('-' = workload \
         not run on this graph)",
        std::iter::once("Graph").chain(workloads.iter().map(Workload::name)),
    );
    for spec in &graphs {
        let mut row = vec![spec.name.into()];
        row.extend(workloads.iter().map(|workload| {
            if workload.suits(spec) {
                count(sequential_reference(*workload, spec).tasks).into()
            } else {
                Value::Absent
            }
        }));
        baselines.add_row(row);
    }
    vec![table, baselines]
}

/// Tables 2–3: classic Multi-Queue speedup for queue multiplicities `C`,
/// on the paper's four workloads.
pub fn table2_3_classic_mq_c(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let graphs = standard_graphs(args.scale, args.seed);
    let c_values: Vec<usize> = args
        .scale
        .pick(vec![2, 4], vec![2, 4, 6, 8], (2..=8).collect());
    let workloads = [
        Workload::Sssp,
        Workload::Bfs,
        Workload::Astar,
        Workload::Mst,
    ];
    let inputs = Input::all(args, &graphs, &workloads);
    let names: Vec<String> = inputs.iter().map(Input::name).collect();
    grid(
        &format!(
            "Tables 2-3 — classic Multi-Queue vs C ({} threads)",
            args.threads
        ),
        "Benchmark",
        &names,
        &labels("C=", &c_values),
        &[SPEEDUP],
        |r, c| inputs[r].cell(SchedulerSpec::classic_mq(c_values[c]), 1),
    )
}

/// The body of Tables 16–27: one table per graph, a row per `K` (the
/// topology-blind `blind` row first) and batch size.
fn numa_sweep(
    args: &BenchArgs,
    figure: &str,
    scheduler: impl Fn(Option<u32>) -> SchedulerSpec,
) -> Vec<Table> {
    // Build the simulated topology up front so a `--numa-nodes` value that
    // does not divide `--threads` fails before any graph is generated.
    let nodes = args.numa_topology(2).num_nodes();
    let figure = format!("{figure} NUMA sweep, {nodes} simulated node(s)");
    let ks: Vec<u32> = args
        .scale
        .pick(vec![1, 64], vec![1, 4, 16, 64, 256], pow2(10));
    let graphs = standard_graphs(args.scale, args.seed);
    let table = |input: &Input| {
        let ks = std::iter::once(None).chain(ks.iter().copied().map(Some));
        let rows = ks.flat_map(|k| {
            let label = k.map_or("blind".to_string(), |k| k.to_string());
            let spec = scheduler(k);
            args.batch_sweep().into_iter().map(move |batch| {
                let key = vec![label.as_str().into(), batch.to_string().into()];
                (key, input.cell(spec, batch))
            })
        });
        let columns = [SPEEDUP, LOCKS_PER_OP, E_INT];
        listing(input.title(&figure), &["K", "Batch"], &columns, rows)
    };
    let inputs = Input::all(args, &graphs, &[Workload::Sssp]);
    inputs.iter().map(table).collect()
}

/// Appendix E.1–E.4 (Tables 16–23): the NUMA weight `K` ablation for the
/// optimised Multi-Queue variants (the fully batched one alone at CI
/// scale) on SSSP.  `K = 1` is the non-NUMA-aware sampler; larger `K`
/// makes out-of-node choices rarer.  Every table also carries a
/// topology-blind row (`K` column `blind`, `numa_k: None`) so the NUMA
/// machinery is measured against the exact code path it replaces, sweeps
/// the hot-path batch size, and reports locks per operation next to the
/// paper's E_int in-node ratio.  The simulated node count comes from
/// `--numa-nodes` (default 2).
pub fn table16_23_mq_numa(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let sweep = |variant: usize| {
        let figure = format!("Tables 16-23 — MQ {}", mq_variants(None)[variant].0);
        numa_sweep(args, &figure, |numa_k| mq_variants(numa_k)[variant].1)
    };
    (args.scale.pick(3, 0, 0)..4).flat_map(sweep).collect()
}

/// Appendix E.5–E.6 (Tables 24–27): the sweep of [`table16_23_mq_numa`]
/// for the Stealing Multi-Queue at its default parameters;
/// `--queue heap|skiplist`.
pub fn table24_27_smq_numa(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [queue] = own_flags(rest, ["--queue"]);
    let name = queue.as_deref().unwrap_or("heap");
    let queue = match name {
        "heap" => SmqQueue::Heap,
        "skiplist" => SmqQueue::SkipList,
        other => panic!("--queue needs heap|skiplist, got '{other}'"),
    };
    numa_sweep(args, &format!("Tables 24-27 — SMQ ({name})"), |numa_k| {
        SchedulerSpec::smq_default(queue, numa_k)
    })
}

/// Theorem 1 (Section 3): empirical rank of the queue tops of the SMQ
/// process over the number of queues `n`, `p_steal`, the batch size `B` and
/// the scheduling imbalance `γ`.  The theorem predicts the average scales
/// like `n·B·(1+γ)/p_steal` (up to logarithmic factors); the last column
/// divides the measurement by that, so it should stay roughly flat.
pub fn theorem1_rank_bounds(args: &BenchArgs, rest: Vec<String>) -> Vec<Table> {
    let [] = own_flags(rest, []);
    let queue_counts: Vec<usize> =
        args.scale
            .pick(vec![4, 8], vec![4, 8, 16, 32], vec![4, 8, 16, 32, 64, 128]);
    let p_steals: Vec<u32> = args
        .scale
        .pick(vec![1, 4], vec![1, 4, 16], vec![1, 2, 4, 8, 16, 32]);
    let steps = args.scale.pick(2_000, 8_000, 40_000);
    let mut table = Table::new(
        "Theorem 1 — empirical rank of queue tops for the SMQ process",
        [
            "n",
            "p_steal",
            "B",
            "gamma",
            "avg top rank",
            "max top rank",
            "avg / (nB/p)",
        ],
    );
    for &n in &queue_counts {
        for &p in &p_steals {
            for b in [1, 4, 16] {
                for gamma in [0.0, 0.25] {
                    let r = simulate(&RankSimConfig {
                        queues: n,
                        // Twice what the run can remove, so no queue drains.
                        initial_tasks: (n * b * 4_000).max(2 * steps * b).max(100_000),
                        batch: b,
                        p_steal: Probability::new(p),
                        gamma,
                        steps,
                        seed: args.seed,
                    });
                    let predicted = n as f64 * b as f64 * (1.0 + gamma) * p as f64;
                    table.add_row(vec![
                        n.to_string().into(),
                        format!("1/{p}").into(),
                        b.to_string().into(),
                        gamma.into(),
                        r.mean_top_rank.into(),
                        r.mean_max_top_rank.into(),
                        (r.mean_top_rank / predicted).into(),
                    ]);
                }
            }
        }
    }
    vec![table]
}
