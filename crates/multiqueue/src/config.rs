//! Configuration for the Multi-Queue family.

use smq_core::Probability;
use smq_runtime::{NumaConfig, Topology};

/// How `insert` chooses a target queue (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPolicy {
    /// The classic behaviour: every insert picks a fresh uniformly random
    /// queue (Listing 1).
    Direct,
    /// Temporal locality: before each insert, change the "current" queue
    /// with the given probability, otherwise keep inserting into the queue
    /// used by the previous operation.
    TemporalLocality(Probability),
    /// Task batching: buffer up to `batch` tasks thread-locally and flush
    /// the whole buffer into a single random queue once full.
    Batching(usize),
}

/// How `delete` chooses a source queue (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeletePolicy {
    /// The classic two-choice behaviour: sample two distinct queues and pop
    /// from the one with the higher-priority top (Listing 1).
    TwoChoice,
    /// Temporal locality: change the "current" queue with the given
    /// probability, otherwise keep popping from the previous queue.  A
    /// change, and a current queue that looks empty or runs dry, costs one
    /// [`DeletePolicy::TwoChoice`] delete, whose queue becomes the current
    /// one.  So a stale snapshot falls back exactly as the classic delete
    /// does: both sampled queues are locked and the better top is taken.
    TemporalLocality(Probability),
    /// Task batching: pick a queue by two-choice sampling and extract up to
    /// `batch` tasks at once into a thread-local buffer.
    Batching(usize),
}

/// Full configuration of a [`crate::MultiQueue`].
#[derive(Debug, Clone)]
pub struct MultiQueueConfig {
    /// Worker thread count `T`.
    pub threads: usize,
    /// Queue multiplicity `C`: the scheduler owns `C·T` queues (the paper
    /// sweeps `C` in `[2, 8]`, default 4).
    pub c_factor: usize,
    /// Insert-side policy.
    pub insert: InsertPolicy,
    /// Delete-side policy.
    pub delete: DeletePolicy,
    /// Optional NUMA-aware sampling.
    pub numa: Option<NumaConfig>,
    /// Seed for the per-thread PRNGs (runs are reproducible for a fixed seed
    /// and thread interleaving).
    pub seed: u64,
}

impl MultiQueueConfig {
    /// The classic Multi-Queue of Listing 1 with `C = 4`.
    pub fn classic(threads: usize) -> Self {
        Self {
            threads,
            c_factor: 4,
            insert: InsertPolicy::Direct,
            delete: DeletePolicy::TwoChoice,
            numa: None,
            seed: 0xC1A5_51C0,
        }
    }

    /// Sets the queue multiplicity `C`.
    pub fn with_c_factor(mut self, c: usize) -> Self {
        self.c_factor = c;
        self
    }

    /// Sets the insert policy.
    pub fn with_insert(mut self, policy: InsertPolicy) -> Self {
        self.insert = policy;
        self
    }

    /// Sets the delete policy.
    pub fn with_delete(mut self, policy: DeletePolicy) -> Self {
        self.delete = policy;
        self
    }

    /// Enables NUMA-aware sampling over `topology` with weight `K`.
    pub fn with_numa(mut self, topology: Topology, k: u32) -> Self {
        self.numa = Some(NumaConfig { topology, k });
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of queues (`C·T`).
    pub fn num_queues(&self) -> usize {
        self.c_factor * self.threads
    }

    /// Validates parameter consistency, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(self.threads >= 1, "need at least one thread");
        assert!(self.c_factor >= 1, "need at least one queue per thread");
        assert!(
            self.num_queues() >= 2,
            "two-choice sampling needs at least two queues"
        );
        if let InsertPolicy::Batching(b) = self.insert {
            assert!(b >= 1, "insert batch size must be >= 1");
        }
        if let DeletePolicy::Batching(b) = self.delete {
            assert!(b >= 1, "delete batch size must be >= 1");
        }
        if let Some(numa) = &self.numa {
            numa.validate(self.threads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_defaults() {
        let cfg = MultiQueueConfig::classic(8);
        cfg.validate();
        assert_eq!(cfg.num_queues(), 32);
        assert_eq!(cfg.insert, InsertPolicy::Direct);
        assert_eq!(cfg.delete, DeletePolicy::TwoChoice);
        assert!(cfg.numa.is_none());
    }

    #[test]
    fn builder_chain() {
        let cfg = MultiQueueConfig::classic(4)
            .with_c_factor(2)
            .with_insert(InsertPolicy::Batching(16))
            .with_delete(DeletePolicy::TemporalLocality(Probability::new(8)))
            .with_numa(Topology::split(4, 2), 64)
            .with_seed(7);
        cfg.validate();
        assert_eq!(cfg.num_queues(), 8);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.numa.as_ref().unwrap().k, 64);
    }

    #[test]
    #[should_panic(expected = "at least two queues")]
    fn single_queue_rejected() {
        MultiQueueConfig::classic(1).with_c_factor(1).validate();
    }

    #[test]
    #[should_panic(expected = "topology thread count")]
    fn numa_topology_mismatch_rejected() {
        MultiQueueConfig::classic(4)
            .with_numa(Topology::split(8, 2), 4)
            .validate();
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        MultiQueueConfig::classic(2)
            .with_insert(InsertPolicy::Batching(0))
            .validate();
    }
}
