//! Minimal command-line handling shared by the figure binaries.

use smq_runtime::Topology;

use crate::schedulers::Workload;

/// Sweep size selected with `--scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test size for CI: seconds, not minutes, on two cores.
    Ci,
    /// The default laptop-class size.
    Small,
    /// Closer to the paper's configuration (needs a big machine).
    Full,
}

impl Scale {
    /// The one place a sweep size is chosen: the value for this scale.
    pub fn pick<T>(self, ci: T, small: T, full: T) -> T {
        match self {
            Scale::Ci => ci,
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Common knobs accepted by every figure binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Worker thread count for parallel runs.
    pub threads: usize,
    /// The selected sweep size (`--scale ci|small|full`).
    pub scale: Scale,
    /// Repetitions per configuration (results are averaged).
    pub repetitions: usize,
    /// Base PRNG seed.
    pub seed: u64,
    /// Workload filter from `--workloads` (comma-separated names); `None`
    /// means the binary's default set.
    pub workloads: Option<Vec<Workload>>,
    /// Hot-path batch size from `--batch N`; `None` means the binary's
    /// default sweep (typically `[1, 8, 32]`).
    pub batch: Option<usize>,
    /// Simulated NUMA node count from `--numa-nodes N` for the schedulers
    /// that carry a NUMA weight (the NUMA tables, Fig. 2's tuned SMQ and
    /// optimized Multi-Queue); `None` means 2, and every other scheduler
    /// runs topology-blind.  `--numa-nodes 1` forces the single-node
    /// (topology-blind) layout explicitly.
    pub numa_nodes: Option<usize>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            threads: 4,
            scale: Scale::Small,
            repetitions: 3,
            seed: 0xBE7C,
            workloads: None,
            batch: None,
            numa_nodes: None,
        }
    }
}

impl BenchArgs {
    /// Parses `--threads N`, `--scale ci|small|full`, `--reps N`, `--seed N`,
    /// `--workloads a,b,...`, `--batch N` and `--numa-nodes N` from an
    /// iterator of arguments.  Unknown flags are returned; every figure
    /// passes them through [`own_flags`], which rejects what the figure
    /// does not know.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> (Self, Vec<String>) {
        /// The value after a flag, parsed, or a panic saying `what` it needs.
        fn value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, what: &str) -> T {
            let parsed = iter.next().and_then(|v| v.parse().ok());
            parsed.unwrap_or_else(|| panic!("{what}"))
        }
        let mut out = Self::default();
        let mut rest = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--threads" => out.threads = value(&mut iter, "--threads needs a positive integer"),
                "--reps" => out.repetitions = value(&mut iter, "--reps needs a positive integer"),
                "--seed" => out.seed = value(&mut iter, "--seed needs an integer"),
                "--batch" => {
                    let batch = value(&mut iter, "--batch needs a positive integer");
                    assert!(batch >= 1, "--batch needs a positive integer");
                    out.batch = Some(batch);
                }
                "--numa-nodes" => {
                    let nodes = value(&mut iter, "--numa-nodes needs a positive integer");
                    assert!(nodes >= 1, "--numa-nodes needs a positive integer");
                    out.numa_nodes = Some(nodes);
                }
                "--scale" => {
                    let scale: String = value(&mut iter, "--scale needs ci|small|full");
                    out.scale = match scale.as_str() {
                        "full" => Scale::Full,
                        "small" => Scale::Small,
                        "ci" => Scale::Ci,
                        other => panic!("unknown scale '{other}', expected ci|small|full"),
                    };
                }
                "--workloads" => {
                    let list: String = value(&mut iter, "--workloads needs a comma-separated list");
                    let parse = |name| {
                        Workload::parse(name)
                            .unwrap_or_else(|| panic!("unknown workload '{name}' in --workloads"))
                    };
                    out.workloads = Some(list.split(',').map(parse).collect());
                }
                _ => rest.push(arg),
            }
        }
        assert!(out.threads >= 1, "need at least one thread");
        assert!(out.repetitions >= 1, "need at least one repetition");
        (out, rest)
    }

    /// The workloads a sweep should run: the `--workloads` selection, or
    /// every one in [`Workload::ALL`] when the flag was absent.
    pub fn selected_workloads(&self) -> Vec<Workload> {
        self.workloads
            .clone()
            .unwrap_or_else(|| Workload::ALL.to_vec())
    }

    /// The hot-path batch sizes a sweep should run: `[1, N]` for an
    /// explicit `--batch N` (batch 1 stays in as the one-task baseline so
    /// amortization is always reported against it), or the default
    /// `[1, 8, 32]` sweep (`[1, 8]` at CI scale) when the flag was absent.
    pub fn batch_sweep(&self) -> Vec<usize> {
        match self.batch {
            Some(1) => vec![1],
            Some(n) => vec![1, n],
            None => self.scale.pick(vec![1, 8], vec![1, 8, 32], vec![1, 8, 32]),
        }
    }

    /// The simulated topology a NUMA sweep runs under: `--numa-nodes`
    /// nodes (or `default_nodes` when the flag was absent) over `threads`
    /// threads, by the one rule [`numa_topology`].
    pub fn numa_topology(&self, default_nodes: usize) -> Topology {
        numa_topology(self.threads, self.numa_nodes.unwrap_or(default_nodes))
    }
}

/// The one NUMA-topology rule: a node count of 1 yields the topology-blind
/// single-node layout; larger counts must divide the thread count so every
/// node hosts the same number of workers.
pub fn numa_topology(threads: usize, nodes: usize) -> Topology {
    if nodes <= 1 {
        Topology::single_node(threads)
    } else {
        assert!(
            threads.is_multiple_of(nodes),
            "--numa-nodes ({nodes}) must divide --threads ({threads})"
        );
        Topology::split(threads, nodes)
    }
}

/// Takes a figure's own `--flag value` options out of what
/// [`BenchArgs::parse`] left over, in the order of `known`.  Anything else
/// is a mistyped flag, and running the default sweep in its place would
/// report numbers for the wrong configuration, so it panics naming the
/// flag.
pub fn own_flags<const N: usize>(rest: Vec<String>, known: [&str; N]) -> [Option<String>; N] {
    let mut out = std::array::from_fn(|_| None);
    let mut iter = rest.into_iter();
    while let Some(flag) = iter.next() {
        let slot = known
            .iter()
            .position(|k| *k == flag)
            .unwrap_or_else(|| panic!("unknown flag '{flag}'"));
        out[slot] = Some(
            iter.next()
                .unwrap_or_else(|| panic!("{flag} needs a value")),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> (BenchArgs, Vec<String>) {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_args() {
        let (args, rest) = parse(&[]);
        assert_eq!(args.threads, 4);
        assert_eq!(args.scale, Scale::Small);
        assert!(rest.is_empty());
        assert_eq!(args.selected_workloads(), Workload::ALL.to_vec());
    }

    #[test]
    fn workload_filter_is_parsed() {
        let (args, rest) = parse(&["--workloads", "sssp,kcore,pagerank"]);
        assert!(rest.is_empty());
        assert_eq!(
            args.selected_workloads(),
            vec![Workload::Sssp, Workload::KCore, Workload::PagerankDelta]
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn bad_workload_name_panics() {
        let _ = parse(&["--workloads", "sssp,frobnicate"]);
    }

    #[test]
    fn parses_known_flags_and_passes_through_unknown() {
        let (args, rest) = parse(&[
            "--threads",
            "8",
            "--scale",
            "full",
            "--queue",
            "heap",
            "--reps",
            "5",
        ]);
        assert_eq!(args.threads, 8);
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.repetitions, 5);
        assert_eq!(rest, vec!["--queue".to_string(), "heap".to_string()]);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn bad_scale_value_panics() {
        let _ = parse(&["--scale", "medium"]);
    }

    #[test]
    fn batch_flag_and_sweep() {
        let (args, rest) = parse(&[]);
        assert!(rest.is_empty());
        assert_eq!(args.batch, None);
        assert_eq!(args.batch_sweep(), vec![1, 8, 32]);
        let (args, _) = parse(&["--batch", "8"]);
        assert_eq!(args.batch, Some(8));
        assert_eq!(args.batch_sweep(), vec![1, 8], "baseline stays in");
        let (args, _) = parse(&["--batch", "1"]);
        assert_eq!(args.batch_sweep(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "--batch needs a positive integer")]
    fn zero_batch_panics() {
        let _ = parse(&["--batch", "0"]);
    }

    #[test]
    fn numa_nodes_flag_and_topology() {
        let (args, rest) = parse(&["--threads", "8", "--numa-nodes", "2"]);
        assert!(rest.is_empty());
        assert_eq!(args.numa_nodes, Some(2));
        let topo = args.numa_topology(1);
        assert_eq!(topo.num_nodes(), 2);
        assert_eq!(topo.threads_per_node(), 4);
        // Flag absent: the caller's default node count applies.
        let (args, _) = parse(&["--threads", "8"]);
        assert_eq!(args.numa_nodes, None);
        assert_eq!(args.numa_topology(2).num_nodes(), 2);
        assert_eq!(args.numa_topology(1).num_nodes(), 1);
        // Explicit single node forces the topology-blind layout.
        let (args, _) = parse(&["--threads", "8", "--numa-nodes", "1"]);
        assert_eq!(args.numa_topology(2).num_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "must divide --threads")]
    fn numa_nodes_must_divide_threads() {
        let (args, _) = parse(&["--threads", "3", "--numa-nodes", "2"]);
        let _ = args.numa_topology(2);
    }

    #[test]
    #[should_panic(expected = "unknown flag '--thread'")]
    fn strict_parse_rejects_a_mistyped_flag() {
        let (_, rest) = parse(&["--thread", "8"]);
        let [_queue] = own_flags(rest, ["--queue"]);
    }

    #[test]
    fn own_flags_come_back_in_the_order_asked() {
        let (_, rest) = parse(&["--delete", "batch", "--reps", "2", "--insert", "tl"]);
        let [insert, delete, queue] = own_flags(rest, ["--insert", "--delete", "--queue"]);
        assert_eq!(insert.as_deref(), Some("tl"));
        assert_eq!(delete.as_deref(), Some("batch"));
        assert_eq!(queue, None);
    }

    #[test]
    fn ci_scale_is_parsed() {
        let (args, rest) = parse(&["--scale", "ci"]);
        assert!(rest.is_empty());
        assert_eq!(args.scale, Scale::Ci);
        assert_eq!(args.scale.pick(1, 2, 3), 1);
        assert_eq!(args.batch_sweep(), vec![1, 8]);
        let (args, _) = parse(&["--scale", "full"]);
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.scale.pick(1, 2, 3), 3);
    }
}
