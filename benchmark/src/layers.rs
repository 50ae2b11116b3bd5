//! From the counters the product's public calls return to per-layer
//! metrics: one function per layer, shared by the workloads that reach it.

use smq_algos::AlgoResult;
use smq_core::OpStats;
use smq_graph::CsrGraph;
use smq_pool::WorkerPool;
use smq_telemetry::{LogHistogram, Phase, PhaseTimes};

use crate::report::Layer;

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The `smq.*` counters of one window.  `busy_ns` is the thread time the
/// operations took: whole thread time where the benchmark drives the
/// scheduler itself, the executor's pop + steal + flush phases otherwise.
pub fn smq_layer(layer: &mut Layer, s: &OpStats, busy_ns: u64) {
    let ops = s.pushes + s.pops + s.empty_pops;
    layer.set("smq.ns_per_op", share(busy_ns, ops));
    layer.set("smq.locks_per_push", share(s.push_locks_acquired, s.pushes));
    layer.set(
        "smq.empty_pop_share",
        share(s.empty_pops, s.pops + s.empty_pops),
    );
    layer.set(
        "smq.tasks_per_batch",
        share(s.tasks_batched, s.batch_flushes),
    );
    layer.set(
        "smq.steal_success_share",
        share(s.steal_successes, s.steal_attempts),
    );
    layer.set(
        "smq.steal_failed_claim_share",
        share(
            s.steal_failed_claims,
            s.steal_successes + s.steal_failed_claims,
        ),
    );
    layer.set("smq.stolen_task_share", share(s.stolen_tasks, s.pops));
    layer.set(
        "smq.contention_retries_per_kop",
        1e3 * share(s.contention_retries, ops),
    );
}

/// The `multiqueue.*` counters of one window.
pub fn multiqueue_layer(layer: &mut Layer, s: &OpStats, busy_ns: u64) {
    let ops = s.pushes + s.pops + s.empty_pops;
    layer.set("multiqueue.ns_per_op", share(busy_ns, ops));
    layer.set("multiqueue.locks_per_pop", share(s.locks_acquired, s.pops));
    layer.set(
        "multiqueue.locks_per_push",
        share(s.push_locks_acquired, s.pushes),
    );
    layer.set(
        "multiqueue.contention_retries_per_kop",
        1e3 * share(s.contention_retries, ops),
    );
    layer.set(
        "multiqueue.empty_pop_share",
        share(s.empty_pops, s.pops + s.empty_pops),
    );
}

/// Bytes the CSR arrays hold per edge, computed from the array sizes
/// (`u64` offsets, `u32` targets and weights, two `f64` coordinates).
fn csr_bytes_per_edge(graph: &CsrGraph) -> f64 {
    let (n, m) = (graph.num_nodes() as f64, graph.num_edges() as f64);
    let coordinates = if graph.has_coordinates() {
        16.0 * n
    } else {
        0.0
    };
    (8.0 * (n + 1.0) + 8.0 * m + coordinates) / m
}

/// The `graph.*` size and generation metrics.
pub fn graph_layer(layer: &mut Layer, graph: &CsrGraph, generate_s: f64) {
    layer.set("graph.generate_ms", generate_s * 1e3);
    layer.set("graph.nodes", graph.num_nodes() as f64);
    layer.set("graph.edges", graph.num_edges() as f64);
    layer.set("graph.bytes_per_edge", csr_bytes_per_edge(graph));
}

/// The pool's lifetime counters.
pub fn pool_layer(layer: &mut Layer, pool: &WorkerPool, spawn_s: f64) {
    let stats = pool.stats();
    layer.set("pool.spawn_ms", spawn_s * 1e3);
    layer.set("pool.threads_spawned", stats.threads_spawned as f64);
    layer.set("pool.handles_created", stats.handles_created as f64);
    layer.set("pool.gangs_poisoned", stats.gangs_poisoned as f64);
    layer.set("pool.gangs_respawned", stats.gangs_respawned as f64);
}

/// What the engine runs of one window (SSSP runs, route queries) did, summed
/// from the `AlgoResult` each returned.
#[derive(Default)]
pub struct EngineTally {
    pub runs: u64,
    pub useful: u64,
    pub wasted: u64,
    executed: u64,
    scans: u64,
    stats: OpStats,
    phases: PhaseTimes,
    rank_errors: LogHistogram,
}

impl EngineTally {
    pub fn record(&mut self, result: &AlgoResult) {
        let metrics = &result.metrics;
        self.runs += 1;
        self.useful += result.useful_tasks;
        self.wasted += result.wasted_tasks;
        self.executed += metrics.tasks_executed;
        self.scans += metrics.quiescence_scans;
        self.stats.merge(&metrics.total);
        if let Some(report) = &metrics.telemetry {
            self.phases.merge(&report.phases);
            self.rank_errors.merge(&report.rank_errors);
        }
    }

    pub fn merge(&mut self, other: &EngineTally) {
        self.runs += other.runs;
        self.useful += other.useful;
        self.wasted += other.wasted;
        self.executed += other.executed;
        self.scans += other.scans;
        self.stats.merge(&other.stats);
        self.phases.merge(&other.phases);
        self.rank_errors.merge(&other.rank_errors);
    }

    /// The `algos.*`, `runtime.*` and `smq.*` metrics every executor
    /// workload reports.  The phase shares and rank errors exist only
    /// where telemetry was on.
    pub fn into_layer(self, layer: &mut Layer) {
        let runs = self.runs.max(1) as f64;
        layer.set("algos.useful_tasks", self.useful as f64 / runs);
        layer.set(
            "algos.wasted_share",
            share(self.wasted, self.useful + self.wasted),
        );
        layer.set("runtime.tasks_executed", self.executed as f64 / runs);
        layer.set(
            "runtime.scans_per_ktask",
            1e3 * share(self.scans, self.executed),
        );
        const SHARES: [(&str, Phase); 6] = [
            ("runtime.phase_pop_share", Phase::Pop),
            ("runtime.phase_steal_share", Phase::Steal),
            ("runtime.phase_process_share", Phase::Process),
            ("runtime.phase_flush_share", Phase::Flush),
            ("runtime.phase_park_share", Phase::Park),
            ("runtime.phase_scan_share", Phase::Scan),
        ];
        for (name, phase) in SHARES {
            layer.set(name, self.phases.fraction(phase));
        }
        if !self.rank_errors.is_empty() {
            layer.set("smq.rank_err_p50", self.rank_errors.quantile(0.50) as f64);
            layer.set("smq.rank_err_p99", self.rank_errors.quantile(0.99) as f64);
        }
        // Follow-up pushes happen inside the process phase, so the
        // scheduler's own time is what the loop spent popping, stealing
        // and flushing.
        let scheduler_ns = [Phase::Pop, Phase::Steal, Phase::Flush]
            .iter()
            .map(|&p| self.phases.get(p))
            .sum();
        smq_layer(layer, &self.stats, scheduler_ns);
    }
}
