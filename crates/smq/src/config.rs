//! Configuration of the Stealing Multi-Queue.

use smq_core::Probability;
use smq_dheap::ARITY;
use smq_runtime::Topology;

/// NUMA-aware victim sampling (Section 4): when a thread decides to steal,
/// queues on its own node are chosen with weight 1 and remote queues with
/// weight `1/K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmqNumaConfig {
    /// The (simulated) machine topology; must cover exactly the scheduler's
    /// thread count.
    pub topology: Topology,
    /// Out-of-node weight divisor `K >= 1`.
    pub k: u32,
}

/// Parameters of the Stealing Multi-Queue.
#[derive(Debug, Clone)]
pub struct SmqConfig {
    /// Number of worker threads (= number of thread-local queues).
    pub threads: usize,
    /// Batch size `STEAL_SIZE`: how many tasks the owner publishes into its
    /// stealing buffer and how many a successful steal transfers.
    pub steal_size: usize,
    /// Probability of *attempting* a steal on each delete (`p_steal`).
    pub p_steal: Probability,
    /// Arity of the local *d*-ary heaps: always [`smq_dheap::ARITY`], which
    /// [`SmqConfig::validate`] enforces.  Nothing in the scheduler reads it;
    /// it stays for `benchmark/src/hold.rs` until ROADMAP item 1(i).
    pub heap_arity: usize,
    /// Optional NUMA-aware victim sampling.
    pub numa: Option<SmqNumaConfig>,
    /// PRNG seed for the per-thread generators.
    pub seed: u64,
}

impl SmqConfig {
    /// The paper's default parameters (`STEAL_SIZE = 4`, `p_steal = 1/8`),
    /// used by the "SMQ (Default)" series of Figure 2.
    pub fn default_for_threads(threads: usize) -> Self {
        Self {
            threads,
            steal_size: 4,
            p_steal: Probability::new(8),
            heap_arity: ARITY,
            numa: None,
            seed: 0x5311_AF00,
        }
    }

    /// Sets the steal batch size.
    pub fn with_steal_size(mut self, steal_size: usize) -> Self {
        self.steal_size = steal_size;
        self
    }

    /// Sets the stealing probability.
    pub fn with_p_steal(mut self, p_steal: Probability) -> Self {
        self.p_steal = p_steal;
        self
    }

    /// Enables NUMA-aware victim sampling.
    pub fn with_numa(mut self, topology: Topology, k: u32) -> Self {
        self.numa = Some(SmqNumaConfig { topology, k });
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration, panicking on inconsistent values.
    pub fn validate(&self) {
        assert!(self.threads >= 1, "need at least one thread");
        assert!(self.steal_size >= 1, "steal size must be >= 1");
        assert_eq!(
            self.heap_arity, ARITY,
            "the d-ary heap is {ARITY}-ary by construction (`heap_arity` is a benchmark shim, ROADMAP item 1(i))"
        );
        if let Some(numa) = &self.numa {
            assert_eq!(
                numa.topology.num_threads(),
                self.threads,
                "topology thread count must match the scheduler's"
            );
            assert!(numa.k >= 1, "NUMA weight K must be >= 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = SmqConfig::default_for_threads(8);
        cfg.validate();
        assert_eq!(cfg.steal_size, 4);
        assert_eq!(cfg.p_steal, Probability::new(8));
        assert_eq!(cfg.heap_arity, 4);
        assert!(cfg.numa.is_none());
    }

    #[test]
    fn builder_chain() {
        let cfg = SmqConfig::default_for_threads(4)
            .with_steal_size(64)
            .with_p_steal(Probability::new(2))
            .with_numa(Topology::split(4, 2), 32)
            .with_seed(1);
        cfg.validate();
        assert_eq!(cfg.steal_size, 64);
        let numa = cfg.numa.unwrap();
        assert_eq!(numa.k, 32);
    }

    #[test]
    #[should_panic(expected = "steal size")]
    fn zero_steal_size_rejected() {
        SmqConfig::default_for_threads(2)
            .with_steal_size(0)
            .validate();
    }

    #[test]
    fn arity_shims_accept_only_the_fixed_arity() {
        let message = |shim: fn()| {
            let payload = std::panic::catch_unwind(shim).expect_err("another arity accepted");
            payload.downcast::<String>().map(|s| *s).unwrap_or_default()
        };
        let fixed = format!("{ARITY}-ary");
        let heap = message(|| drop(smq_dheap::DAryHeap::<u64>::with_capacity(8, 16)));
        assert!(heap.contains(&fixed), "{heap}");
        let config = message(|| {
            SmqConfig {
                heap_arity: 2,
                ..SmqConfig::default_for_threads(2)
            }
            .validate()
        });
        assert!(config.contains(&fixed), "{config}");
    }

    #[test]
    #[should_panic(expected = "topology thread count")]
    fn numa_mismatch_rejected() {
        SmqConfig::default_for_threads(2)
            .with_numa(Topology::split(4, 2), 8)
            .validate();
    }
}
