//! Behaviour fingerprints: "same behaviour" as a test.  One pool worker is
//! deterministic, so every scheduler family × every workload × batch
//! ∈ {1, 8}, run at T = 1 from fixed seeds, has one exact outcome.  Each row
//! of `tests/fingerprints.txt` records it: tasks executed, useful and
//! wasted, every `OpStats` counter, and an FNV-1a hash of the `(key, value)`
//! sequence the worker processed.
//!
//! A change that moves a row fails here, naming the row.  If the move is
//! intended, rewrite the file and name the rows that moved, and why:
//!
//! ```sh
//! FINGERPRINTS_BLESS=1 cargo test --test fingerprints
//! ```
//!
//! The families are `common/families.rs`' list; the workloads are the
//! eight `crates/bench` registers, each on one small generated graph it
//! suits (the road grid has coordinates and degree ≤ 10, the power-law
//! graph degree > 10, as `Workload::suits` pairs them).

mod common;
#[path = "common/families.rs"]
mod families;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use common::hang_guard;
use families::{each_family, FamilyVisitor};
use smq_repro::algos::astar::AstarWorkload;
use smq_repro::algos::cc::CcWorkload;
use smq_repro::algos::engine::{PoolJob, TaskOutcome};
use smq_repro::algos::kcore::KCoreWorkload;
use smq_repro::algos::mst::BoruvkaWorkload;
use smq_repro::algos::pagerank::{PagerankConfig, PagerankWorkload};
use smq_repro::algos::sssp::SsspWorkload;
use smq_repro::core::{OpStats, Scheduler, Task};
use smq_repro::graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
use smq_repro::graph::{CsrGraph, GraphUpdate, LiveGraph};
use smq_repro::pool::{JobOutput, PoolConfig, WorkerPool};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fingerprints.txt");
const BATCHES: [usize; 2] = [1, 8];

/// FNV-1a, 64-bit, over the little-endian bytes of each processed task's
/// key then value: fixed here, unlike `DefaultHasher`, whose output Rust
/// does not promise across releases.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }
}

/// `job` with every processed task folded into a hash, in processing order.
struct Hashed<'a> {
    job: &'a dyn PoolJob,
    hash: Mutex<Fnv>,
}

impl PoolJob for Hashed<'_> {
    fn seed_tasks(&self) -> Vec<Task> {
        self.job.seed_tasks()
    }

    fn process(&self, task: Task, push: &mut dyn FnMut(Task)) -> TaskOutcome {
        let mut hash = self.hash.lock().unwrap();
        hash.write(task.key);
        hash.write(task.value);
        drop(hash);
        self.job.process(task, push)
    }

    fn prefetch(&self, task: Task) {
        self.job.prefetch(task);
    }
}

/// The two inputs: a road grid and a power-law graph.
struct Graphs {
    road: CsrGraph,
    social: CsrGraph,
}

impl Graphs {
    fn new() -> Self {
        Graphs {
            road: road_network(RoadNetworkParams {
                width: 16,
                height: 16,
                removal_percent: 10,
                seed: 41,
            }),
            social: power_law(PowerLawParams {
                nodes: 300,
                avg_degree: 12,
                exponent: 2.2,
                max_weight: 255,
                seed: 42,
            }),
        }
    }
}

/// Runs `job` on a fresh one-worker pool over `scheduler` at `batch` and
/// formats its row's values.
fn fingerprint<S: Scheduler<Task>>(scheduler: &S, batch: usize, job: &dyn PoolJob) -> String {
    let hashed = Hashed {
        job,
        hash: Mutex::new(Fnv(Fnv::OFFSET)),
    };
    let config = PoolConfig::new(1).with_batch(batch);
    let out: JobOutput = WorkerPool::with_borrowed(scheduler, config, |pool| {
        pool.run_job(&hashed)
            .expect("a one-worker job cannot be lost")
    });
    // Destructured in full, so a new counter cannot be left out of the file.
    let OpStats {
        pushes,
        pops,
        empty_pops,
        steal_attempts,
        steal_successes,
        steal_failed_claims,
        stolen_tasks,
        contention_retries,
        locks_acquired,
        push_locks_acquired,
        batch_flushes,
        tasks_batched,
        local_samples,
        remote_samples,
        local_steals,
        remote_steals,
    } = out.metrics.total;
    format!(
        "executed={} useful={} wasted={} pushes={pushes} pops={pops} empty_pops={empty_pops} \
         steal_attempts={steal_attempts} steal_successes={steal_successes} \
         steal_failed_claims={steal_failed_claims} stolen_tasks={stolen_tasks} \
         contention_retries={contention_retries} locks_acquired={locks_acquired} \
         push_locks_acquired={push_locks_acquired} batch_flushes={batch_flushes} \
         tasks_batched={tasks_batched} local_samples={local_samples} \
         remote_samples={remote_samples} local_steals={local_steals} \
         remote_steals={remote_steals} hash={:016x}",
        out.metrics.tasks_executed,
        out.useful_tasks,
        out.wasted_tasks,
        hashed.hash.into_inner().unwrap().0,
    )
}

/// Fingerprints every (family, workload, batch) into `rows`, keyed
/// `family / workload / batch N`.
struct Fingerprints<'a> {
    graphs: &'a Graphs,
    rows: BTreeMap<String, String>,
}

impl FamilyVisitor for Fingerprints<'_> {
    fn visit<S: Scheduler<Task>>(&mut self, family: &str, make: impl Fn() -> S) {
        let Graphs { road, social } = self.graphs;
        let target = road.num_nodes() as u32 - 1;
        // The incremental workload's repair, as `crates/bench` builds it:
        // about 5 % of the edges get a lower weight on a live copy.
        let updates = GraphUpdate::random_decreases(road, road.num_edges() / 20, 43);
        let live = LiveGraph::new(Arc::new(road.clone()));
        live.publish(&updates);
        let snapshot = live.pin();
        for batch in BATCHES {
            // A workload's labels are its state: each run gets a fresh one.
            let jobs: [(&str, Box<dyn PoolJob + '_>); 8] = [
                ("SSSP", Box::new(SsspWorkload::new(road, 0))),
                ("BFS", Box::new(SsspWorkload::bfs(road, 0))),
                ("A*", Box::new(AstarWorkload::new(road, 0, target))),
                ("MST", Box::new(BoruvkaWorkload::new(road))),
                (
                    "PR-delta",
                    Box::new(PagerankWorkload::new(social, PagerankConfig::default())),
                ),
                ("k-core", Box::new(KCoreWorkload::new(social))),
                ("CC", Box::new(CcWorkload::new(road))),
                (
                    "inc-SSSP",
                    Box::new(SsspWorkload::repair_after_updates(
                        road, &snapshot, 0, &updates,
                    )),
                ),
            ];
            for (workload, job) in jobs {
                let row = format!("{family} / {workload} / batch {batch}");
                self.rows
                    .insert(row, fingerprint(&make(), batch, job.as_ref()));
            }
        }
    }
}

fn parse(golden: &str) -> BTreeMap<String, String> {
    golden
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (row, values) = line.split_once(": ").expect("`row: values` lines");
            (row.to_string(), values.to_string())
        })
        .collect()
}

#[test]
fn fingerprints_match_the_committed_file() {
    let rows = hang_guard(|| {
        let graphs = Graphs::new();
        let mut fingerprints = Fingerprints {
            graphs: &graphs,
            rows: BTreeMap::new(),
        };
        each_family(1, &mut fingerprints);
        fingerprints.rows
    });

    // Both SMQ local queues are exact, so at one worker they must process
    // the same tasks in the same order with the same counters (Fig. 19
    // compares their speed only).
    for (row, values) in rows.iter().filter(|(row, _)| row.starts_with("HeapSmq /")) {
        let twin = row.replacen("HeapSmq", "SkipListSmq", 1);
        assert_eq!(Some(values), rows.get(&twin), "{row} and {twin} differ");
    }

    if std::env::var_os("FINGERPRINTS_BLESS").is_some_and(|v| v == "1") {
        let mut file = String::from(
            "# One row per family / workload / batch at one worker; see tests/fingerprints.rs.\n",
        );
        for (row, values) in &rows {
            file += &format!("{row}: {values}\n");
        }
        std::fs::write(GOLDEN, file).expect("write the fingerprint file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read tests/fingerprints.txt");
    let golden = parse(&golden);
    let mut moved = Vec::new();
    for row in golden
        .keys()
        .chain(rows.keys().filter(|row| !golden.contains_key(*row)))
    {
        match (golden.get(row), rows.get(row)) {
            (Some(want), Some(got)) if want == got => {}
            (want, got) => moved.push(format!(
                "{row}\n  file: {}\n  run:  {}",
                want.map_or("(no row)", String::as_str),
                got.map_or("(no row)", String::as_str)
            )),
        }
    }
    assert!(
        moved.is_empty(),
        "{} fingerprint rows moved (FINGERPRINTS_BLESS=1 rewrites the file):\n{}",
        moved.len(),
        moved.join("\n")
    );
}
