//! Scheduler dispatch: build any of the evaluated schedulers from a
//! description and run any of the registered workloads on it through the
//! generic engine (`smq_algos::engine`).

use std::any::Any;
use std::sync::Arc;

use smq_algos::astar::AstarWorkload;
use smq_algos::cc::CcWorkload;
use smq_algos::engine::{self, DecreaseKeyWorkload};
use smq_algos::kcore::KCoreWorkload;
use smq_algos::mst::BoruvkaWorkload;
use smq_algos::pagerank::{PagerankConfig, PagerankWorkload};
use smq_algos::sssp::SsspWorkload;
use smq_core::{Probability, Scheduler, Task};
use smq_graph::{GraphUpdate, LiveGraph};
use smq_multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_obim::{Obim, ObimConfig};
use smq_pool::{JobOutput, PoolConfig};
use smq_scheduler::{HeapSmq, SkipListSmq, SmqConfig};
use smq_spraylist::{SprayList, SprayListConfig};
use smq_telemetry::TelemetryConfig;

use crate::args::numa_topology;
use crate::graphs::GraphSpec;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-source shortest paths from the spec's source.
    Sssp,
    /// Breadth-first search from the spec's source.
    Bfs,
    /// A* from the spec's source to its target.
    Astar,
    /// Borůvka minimum spanning forest.
    Mst,
    /// Residual-prioritized PageRank-delta.
    PagerankDelta,
    /// k-core decomposition (h-index fixed point).
    KCore,
    /// Weakly connected components (min-label propagation).
    Cc,
    /// Incremental SSSP repair after a batch of non-increasing weight
    /// updates on a `LiveGraph` snapshot.
    IncrementalSssp,
}

impl Workload {
    /// All eight workloads: the paper's four, the three Galois-lineage
    /// benchmarks the engine added, and the dynamic-graph repair workload.
    pub const ALL: [Workload; 8] = [
        Workload::Sssp,
        Workload::Bfs,
        Workload::Astar,
        Workload::Mst,
        Workload::PagerankDelta,
        Workload::KCore,
        Workload::Cc,
        Workload::IncrementalSssp,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Sssp => "SSSP",
            Workload::Bfs => "BFS",
            Workload::Astar => "A*",
            Workload::Mst => "MST",
            Workload::PagerankDelta => "PR-delta",
            Workload::KCore => "k-core",
            Workload::Cc => "CC",
            Workload::IncrementalSssp => "inc-SSSP",
        }
    }

    /// Parses a command-line workload name (`--workloads` flag).
    pub fn parse(name: &str) -> Option<Workload> {
        match name.to_ascii_lowercase().as_str() {
            "sssp" => Some(Workload::Sssp),
            "bfs" => Some(Workload::Bfs),
            "astar" | "a*" => Some(Workload::Astar),
            "mst" => Some(Workload::Mst),
            "pagerank" | "pr-delta" | "prdelta" => Some(Workload::PagerankDelta),
            "kcore" | "k-core" => Some(Workload::KCore),
            "cc" | "components" | "wcc" => Some(Workload::Cc),
            "incsssp" | "inc-sssp" | "incremental" => Some(Workload::IncrementalSssp),
            _ => None,
        }
    }

    /// Whether `spec` is a sensible input for this workload, mirroring the
    /// paper's (and the Galois lineage's) pairings: A* needs coordinates,
    /// MST runs on the road graphs, PageRank-delta and k-core on the
    /// power-law (social/web) graphs.  CC runs everywhere (it is the
    /// cheapest per-task workload, used as a scheduler-overhead canary).
    pub fn suits(&self, spec: &GraphSpec) -> bool {
        match self {
            Workload::Sssp | Workload::Bfs | Workload::Cc | Workload::IncrementalSssp => true,
            Workload::Astar => spec.graph.has_coordinates(),
            Workload::Mst => spec.graph.avg_degree() <= 10.0,
            Workload::PagerankDelta | Workload::KCore => spec.graph.avg_degree() > 10.0,
        }
    }
}

/// The local queue of a Stealing Multi-Queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmqQueue {
    /// d-ary heap.
    Heap,
    /// Skip list.
    SkipList,
}

/// A buildable scheduler configuration, mirroring the paper's evaluated
/// systems.
#[derive(Debug, Clone, Copy)]
pub enum SchedulerSpec {
    /// Multi-Queue with multiplicity `C`, insert/delete policies and
    /// optional NUMA-aware sampling weight `K`.
    Mq {
        /// Queues per thread.
        c: usize,
        /// Insert-side policy.
        insert: InsertPolicy,
        /// Delete-side policy.
        delete: DeletePolicy,
        /// NUMA weight `K` (None disables NUMA-aware sampling).
        numa_k: Option<u32>,
    },
    /// Random-enqueue local-dequeue.
    Reld {
        /// Queues per thread.
        c: usize,
    },
    /// Stealing Multi-Queue.
    Smq {
        /// Local queue type.
        queue: SmqQueue,
        /// Steal batch size.
        steal_size: usize,
        /// Stealing probability.
        p_steal: Probability,
        /// NUMA weight `K` (None disables NUMA-aware victim sampling).
        numa_k: Option<u32>,
    },
    /// OBIM, or PMOD when `adaptive`.
    Obim {
        /// PMOD: adapt Δ at run time, starting from `delta_shift`.
        adaptive: bool,
        /// Δ shift.
        delta_shift: u32,
        /// Chunk size.
        chunk_size: usize,
    },
    /// SprayList.
    SprayList,
}

impl SchedulerSpec {
    /// The classic Multi-Queue of Listing 1 with multiplicity `c`.
    pub fn classic_mq(c: usize) -> Self {
        SchedulerSpec::Mq {
            c,
            insert: InsertPolicy::Direct,
            delete: DeletePolicy::TwoChoice,
            numa_k: None,
        }
    }

    /// A Multi-Queue at the paper's multiplicity `C = 4`.
    pub fn mq(insert: InsertPolicy, delete: DeletePolicy, numa_k: Option<u32>) -> Self {
        SchedulerSpec::Mq {
            c: 4,
            insert,
            delete,
            numa_k,
        }
    }

    /// The paper's "SMQ (Default)" parameters, `STEAL_SIZE = 4` and
    /// `p_steal = 1/8`, over the given local queue and NUMA weight.
    pub fn smq_default(queue: SmqQueue, numa_k: Option<u32>) -> Self {
        SchedulerSpec::Smq {
            queue,
            steal_size: 4,
            p_steal: Probability::new(8),
            numa_k,
        }
    }
}

/// The four insert × delete optimisation combinations of Appendix C at
/// their representative parameters (temporal locality 1/64, batches of 16).
pub fn mq_variants(numa_k: Option<u32>) -> [(&'static str, SchedulerSpec); 4] {
    let tl = Probability::new(64);
    let (insert_tl, delete_tl) = (
        InsertPolicy::TemporalLocality(tl),
        DeletePolicy::TemporalLocality(tl),
    );
    let (insert_b, delete_b) = (InsertPolicy::Batching(16), DeletePolicy::Batching(16));
    let mq = |insert, delete| SchedulerSpec::mq(insert, delete, numa_k);
    [
        ("insert=TL delete=TL", mq(insert_tl, delete_tl)),
        ("insert=TL delete=B", mq(insert_tl, delete_b)),
        ("insert=B delete=TL", mq(insert_b, delete_tl)),
        ("insert=B delete=B", mq(insert_b, delete_b)),
    ]
}

/// One measured configuration: a scheduler running a workload on a graph.
#[derive(Clone, Copy)]
pub struct Point<'a> {
    /// The scheduler to build.
    pub scheduler: SchedulerSpec,
    /// The algorithm to run.
    pub workload: Workload,
    /// Its input.
    pub graph: &'a GraphSpec,
    /// Worker threads.
    pub threads: usize,
    /// Scheduler PRNG seed.
    pub seed: u64,
    /// Hot-path batch size (1: one task per insert and delete step).
    pub batch: usize,
    /// Simulated NUMA nodes for specs that carry a `numa_k` weight; the
    /// others ignore it and stay topology-blind.
    pub numa_nodes: usize,
}

/// A workload's sequential reference on a graph.
pub struct Reference {
    /// The reference answer; every workload has its own output type.
    output: Box<dyn Any>,
    /// How many tasks the sequential execution processed — the denominator
    /// of every work-increase number.
    pub tasks: u64,
}

/// Something to do with a constructed workload, whatever its type: the
/// one eight-arm `match` ([`with_workload`]) builds the value, a visitor
/// says what happens to it.
trait WorkloadVisitor {
    type Out;
    fn visit<W: DecreaseKeyWorkload<Output: 'static>>(self, workload: &W) -> Self::Out;
}

/// Runs the workload's own sequential reference.
struct RunReference;

impl WorkloadVisitor for RunReference {
    type Out = Reference;

    fn visit<W: DecreaseKeyWorkload<Output: 'static>>(self, workload: &W) -> Reference {
        let reference = workload.sequential_reference();
        Reference {
            output: Box::new(reference.output),
            tasks: reference.baseline_tasks,
        }
    }
}

/// Runs the point's workload on the built scheduler through the engine
/// and panics unless its answer is equivalent to the reference's.
struct RunOn<'a, S> {
    scheduler: &'a S,
    point: &'a Point<'a>,
    reference: &'a Reference,
}

impl<S: Scheduler<Task>> WorkloadVisitor for RunOn<'_, S> {
    type Out = JobOutput;

    fn visit<W: DecreaseKeyWorkload<Output: 'static>>(self, workload: &W) -> JobOutput {
        let run = engine::run_parallel_with(
            workload,
            self.scheduler,
            PoolConfig::new(self.point.threads)
                .with_batch(self.point.batch)
                .with_telemetry(TelemetryConfig::probe_only()),
        );
        let expected = self.reference.output.downcast_ref::<W::Output>();
        let expected = expected.expect("a reference of the point's workload");
        assert!(
            workload.outputs_equivalent(&run.output, expected),
            "{:?} diverged from the sequential reference: {} on {}",
            self.point.scheduler,
            self.point.workload.name(),
            self.point.graph.name
        );
        run.result
    }
}

/// The workload dispatch: each arm only constructs the workload value for
/// `spec` and hands it to `visitor`.
fn with_workload<V: WorkloadVisitor>(workload: Workload, spec: &GraphSpec, visitor: V) -> V::Out {
    match workload {
        Workload::Sssp => visitor.visit(&SsspWorkload::new(&spec.graph, spec.source)),
        Workload::Bfs => visitor.visit(&SsspWorkload::bfs(&spec.graph, spec.source)),
        Workload::Astar => {
            visitor.visit(&AstarWorkload::new(&spec.graph, spec.source, spec.target))
        }
        Workload::Mst => visitor.visit(&BoruvkaWorkload::new(&spec.graph)),
        Workload::PagerankDelta => visitor.visit(&PagerankWorkload::new(
            &spec.graph,
            PagerankConfig::default(),
        )),
        Workload::KCore => visitor.visit(&KCoreWorkload::new(&spec.graph)),
        Workload::Cc => visitor.visit(&CcWorkload::new(&spec.graph)),
        Workload::IncrementalSssp => {
            // Publish a deterministic weight-decrease batch (~5% of the
            // edges, derived from the graph's seed) onto a live copy of the
            // spec's graph and repair the pre-update distances on the
            // pinned snapshot.
            let update_count = (spec.graph.num_edges() / 20).clamp(16, 4096);
            let updates =
                GraphUpdate::random_decreases(&spec.graph, update_count, spec.seed ^ 0x9e37_79b9);
            let live = LiveGraph::new(Arc::new(spec.graph.clone()));
            live.publish(&updates);
            let snapshot = live.pin();
            visitor.visit(&SsspWorkload::repair_after_updates(
                &spec.graph,
                &snapshot,
                spec.source,
                &updates,
            ))
        }
    }
}

/// Runs `workload`'s sequential reference on `spec`.
pub fn sequential_reference(workload: Workload, spec: &GraphSpec) -> Reference {
    with_workload(workload, spec, RunReference)
}

/// Builds the scheduler `point` describes (the scheduler dispatch) and
/// runs the point's workload on it once.  The run's answer must be
/// equivalent to `reference`, the sequential reference of the point's
/// workload on its graph: a divergence panics, naming scheduler, workload
/// and graph, so no figure reports a speedup for a wrong answer.
pub fn run_once(point: &Point, reference: &Reference) -> JobOutput {
    fn on<S: Scheduler<Task>>(scheduler: &S, point: &Point, reference: &Reference) -> JobOutput {
        let visitor = RunOn {
            scheduler,
            point,
            reference,
        };
        with_workload(point.workload, point.graph, visitor)
    }
    let Point { threads, seed, .. } = *point;
    let topology = || numa_topology(threads, point.numa_nodes);
    match point.scheduler {
        SchedulerSpec::Mq {
            c,
            insert,
            delete,
            numa_k,
        } => {
            let mut config = MultiQueueConfig::classic(threads)
                .with_c_factor(c)
                .with_insert(insert)
                .with_delete(delete)
                .with_seed(seed);
            if let Some(k) = numa_k {
                config = config.with_numa(topology(), k);
            }
            on(&MultiQueue::<Task>::new(config), point, reference)
        }
        SchedulerSpec::Reld { c } => on(&Reld::<Task>::new(threads, c, seed), point, reference),
        SchedulerSpec::Smq {
            queue,
            steal_size,
            p_steal,
            numa_k,
        } => {
            let mut config = SmqConfig::default_for_threads(threads)
                .with_steal_size(steal_size)
                .with_p_steal(p_steal)
                .with_seed(seed);
            if let Some(k) = numa_k {
                config = config.with_numa(topology(), k);
            }
            match queue {
                SmqQueue::Heap => on(&HeapSmq::<Task>::new(config), point, reference),
                SmqQueue::SkipList => on(&SkipListSmq::<Task>::new(config), point, reference),
            }
        }
        SchedulerSpec::Obim {
            adaptive,
            delta_shift,
            chunk_size,
        } => {
            let preset = if adaptive {
                ObimConfig::pmod
            } else {
                ObimConfig::obim
            };
            let obim = Obim::<Task>::new(preset(threads, delta_shift, chunk_size));
            on(&obim, point, reference)
        }
        SchedulerSpec::SprayList => {
            let config = SprayListConfig {
                seed,
                ..SprayListConfig::default_for_threads(threads)
            };
            on(&SprayList::<Task>::new(config), point, reference)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;
    use crate::graphs::standard_graphs;

    fn point(scheduler: SchedulerSpec, workload: Workload, graph: &GraphSpec) -> Point<'_> {
        Point {
            scheduler,
            workload,
            graph,
            threads: 2,
            seed: 3,
            batch: 1,
            numa_nodes: 2,
        }
    }

    #[test]
    fn every_scheduler_runs_sssp_on_a_small_road_graph() {
        let specs = standard_graphs(Scale::Ci, 7);
        let west = &specs[0];
        let schedulers = [
            SchedulerSpec::classic_mq(2),
            mq_variants(Some(16))[3].1,
            SchedulerSpec::Reld { c: 2 },
            SchedulerSpec::smq_default(SmqQueue::Heap, None),
            SchedulerSpec::smq_default(SmqQueue::SkipList, Some(16)),
            SchedulerSpec::Obim {
                adaptive: false,
                delta_shift: 4,
                chunk_size: 16,
            },
            SchedulerSpec::Obim {
                adaptive: true,
                delta_shift: 4,
                chunk_size: 16,
            },
            SchedulerSpec::SprayList,
        ];
        let dijkstra = sequential_reference(Workload::Sssp, west);
        for sched in schedulers {
            // `run_once` compares the distances with Dijkstra's.
            let result = run_once(&point(sched, Workload::Sssp, west), &dijkstra);
            assert!(
                result.work_increase(dijkstra.tasks) < 50.0,
                "{sched:?} wasted an implausible amount of work"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must divide --threads")]
    fn numa_specs_do_not_fall_back_to_one_node() {
        let specs = standard_graphs(Scale::Ci, 7);
        let sched = SchedulerSpec::smq_default(SmqQueue::Heap, Some(16));
        let three_threads = Point {
            threads: 3,
            ..point(sched, Workload::Sssp, &specs[0])
        };
        let _ = run_once(
            &three_threads,
            &sequential_reference(Workload::Sssp, &specs[0]),
        );
    }

    #[test]
    fn incremental_sssp_runs_through_the_engine_dispatch() {
        let specs = standard_graphs(Scale::Ci, 7);
        let west = &specs[0];
        assert!(Workload::IncrementalSssp.suits(west));
        let sched = SchedulerSpec::smq_default(SmqQueue::Heap, None);
        let repair = sequential_reference(Workload::IncrementalSssp, west);
        let repair_tasks = repair.tasks;
        let result = run_once(&point(sched, Workload::IncrementalSssp, west), &repair);
        // Repair work exists (the decreases improve some region).
        assert!(result.useful_tasks > 0, "repair did no useful work");
        // The cost claim is made on the deterministic sequential references
        // (a relaxed parallel run's wasted-task count varies with thread
        // interleaving): exact heap repair settles fewer vertices than a
        // full Dijkstra of the same graph.
        let full_tasks = sequential_reference(Workload::Sssp, west).tasks;
        assert!(
            repair_tasks < full_tasks,
            "repair ({repair_tasks}) should cost less than recompute ({full_tasks})"
        );
        // The parallel run may waste work under relaxation, but not an
        // implausible multiple of the sequential repair.
        assert!(
            result.work_increase(repair_tasks.max(1)) < 50.0,
            "repair wasted an implausible amount of work ({} tasks for {repair_tasks} settles)",
            result.total_tasks()
        );
    }

    #[test]
    fn workload_parse_round_trips() {
        assert_eq!(Workload::parse("sssp"), Some(Workload::Sssp));
        assert_eq!(Workload::parse("BFS"), Some(Workload::Bfs));
        assert_eq!(Workload::parse("a*"), Some(Workload::Astar));
        assert_eq!(Workload::parse("pagerank"), Some(Workload::PagerankDelta));
        assert_eq!(Workload::parse("k-core"), Some(Workload::KCore));
        assert_eq!(Workload::parse("cc"), Some(Workload::Cc));
        assert_eq!(Workload::parse("WCC"), Some(Workload::Cc));
        assert_eq!(Workload::parse("inc-sssp"), Some(Workload::IncrementalSssp));
        assert_eq!(
            Workload::parse("incremental"),
            Some(Workload::IncrementalSssp)
        );
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::ALL.len(), 8);
        assert_eq!(Workload::IncrementalSssp.name(), "inc-SSSP");
    }

    #[test]
    fn new_workloads_run_through_the_engine_dispatch() {
        let ci = standard_graphs(Scale::Ci, 7);
        let (road, social) = (&ci[0], &ci[1]);
        let smq = SchedulerSpec::smq_default(SmqQueue::Heap, None);
        for workload in [Workload::PagerankDelta, Workload::KCore] {
            assert!(
                workload.suits(social),
                "social graphs suit {}",
                workload.name()
            );
            assert!(!workload.suits(road), "road graphs do not");
            let reference = sequential_reference(workload, social);
            let result = run_once(&point(smq, workload, social), &reference);
            assert!(
                result.useful_tasks > 0,
                "{} did no useful work",
                workload.name()
            );
        }
        // CC runs on every graph class (cheapest workload, overhead canary).
        assert!(Workload::Cc.suits(road));
        assert!(Workload::Cc.suits(social));
        let components = sequential_reference(Workload::Cc, social);
        let rank_errors = |sched| {
            let run = run_once(&point(sched, Workload::Cc, social), &components);
            run.metrics.telemetry.expect("probes are on").rank_errors
        };
        assert!(
            rank_errors(smq).count() > 0,
            "SMQ exposes a min-key hint, so probes must record samples"
        );
        // OBIM keeps the default (absent) hint: probes record nothing.
        assert!(rank_errors(SchedulerSpec::Obim {
            adaptive: false,
            delta_shift: 4,
            chunk_size: 16,
        })
        .is_empty());
    }
}
