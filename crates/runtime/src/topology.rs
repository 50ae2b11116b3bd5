//! Simulated NUMA topology and the weighted queue sampler of Section 4.
//!
//! The paper's NUMA optimisation assigns every queue to the node of its
//! owning thread and samples queues with weight 1 (same node) or `1/K`
//! (remote node), with `K` growing linearly in the thread count so that the
//! expected fraction of in-node accesses stays constant.  [`Topology`]
//! provides the thread→node and queue→node mappings; [`WeightedQueueSampler`]
//! implements the weighted choice and exposes the probability of an in-node
//! access so experiments can report the paper's `E_int` metric;
//! [`NumaConfig`] is how a scheduler configuration asks for it.

use smq_core::rng::Pcg32;

/// A (simulated) machine topology: `num_nodes` NUMA nodes with an equal
/// number of worker threads per node.
///
/// Threads are assigned to nodes in contiguous blocks
/// (`node = thread_id / threads_per_node`), matching how the paper's
/// machines enumerate hardware threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    num_nodes: usize,
    threads_per_node: usize,
}

impl Topology {
    /// A single node containing all threads (NUMA-awareness disabled).
    pub fn single_node(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "need at least one thread");
        Self {
            num_nodes: 1,
            threads_per_node: num_threads,
        }
    }

    /// `num_nodes` nodes with `threads_per_node` threads each.
    pub fn uniform(num_nodes: usize, threads_per_node: usize) -> Self {
        assert!(num_nodes >= 1, "need at least one node");
        assert!(threads_per_node >= 1, "need at least one thread per node");
        Self {
            num_nodes,
            threads_per_node,
        }
    }

    /// Splits `num_threads` threads as evenly as possible over `num_nodes`
    /// nodes (requires divisibility, mirroring the paper's setup where every
    /// node hosts `T/N` threads).
    pub fn split(num_threads: usize, num_nodes: usize) -> Self {
        assert!(num_nodes >= 1 && num_threads >= num_nodes);
        assert_eq!(
            num_threads % num_nodes,
            0,
            "thread count must be divisible by node count"
        );
        Self::uniform(num_nodes, num_threads / num_nodes)
    }

    /// Total number of worker threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_nodes * self.threads_per_node
    }

    /// Number of NUMA nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Threads hosted on each node.
    #[inline]
    pub fn threads_per_node(&self) -> usize {
        self.threads_per_node
    }

    /// The node hosting `thread_id`.
    #[inline]
    pub fn node_of_thread(&self, thread_id: usize) -> usize {
        debug_assert!(thread_id < self.num_threads());
        thread_id / self.threads_per_node
    }

    /// Sub-queues a node owns when every thread owns `queues_per_thread`
    /// queues: the size of one node-blocked region.
    #[inline]
    pub fn queues_per_node(&self, queues_per_thread: usize) -> usize {
        debug_assert!(queues_per_thread >= 1);
        self.threads_per_node * queues_per_thread
    }

    /// The node owning queue `queue_id` when there are
    /// `queues_per_thread * num_threads()` queues in total.
    ///
    /// Queues are assigned to nodes in contiguous *blocks* — node `n` owns
    /// indices `[n * R, (n + 1) * R)` with `R = queues_per_node` — so each
    /// node's sub-queues (and their cache-padded top-key words) occupy one
    /// contiguous region of the scheduler's queue array, the layout a real
    /// first-touch NUMA allocator would place on that node's memory.
    #[inline]
    pub fn node_of_queue(&self, queue_id: usize, queues_per_thread: usize) -> usize {
        debug_assert!(queue_id < queues_per_thread * self.num_threads());
        queue_id / self.queues_per_node(queues_per_thread)
    }

    /// The contiguous block of queue indices owned by `node` (see
    /// [`node_of_queue`](Self::node_of_queue)).
    #[inline]
    pub fn queues_of_node(&self, node: usize, queues_per_thread: usize) -> core::ops::Range<usize> {
        debug_assert!(node < self.num_nodes);
        let region = self.queues_per_node(queues_per_thread);
        node * region..(node + 1) * region
    }
}

/// NUMA-aware queue sampling (Section 4) for a scheduler configuration:
/// same-node queues get weight 1, remote queues weight `1/K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaConfig {
    /// The (simulated) machine topology; must cover exactly the scheduler's
    /// thread count.
    pub topology: Topology,
    /// Out-of-node weight divisor `K >= 1`; `K = 1` disables the
    /// optimisation.
    pub k: u32,
}

impl NumaConfig {
    /// Panics unless the topology covers exactly `threads` threads and
    /// `K >= 1`.
    pub fn validate(&self, threads: usize) {
        assert_eq!(
            self.topology.num_threads(),
            threads,
            "topology thread count must match the scheduler's"
        );
        assert!(self.k >= 1, "NUMA weight K must be >= 1");
    }
}

/// Weighted queue sampling for NUMA-aware schedulers (Section 4).
///
/// For a calling thread on node `i`, queues on node `i` have weight 1 and
/// every other queue has weight `1/K`.  Sampling therefore proceeds in two
/// steps: first decide *local vs. remote* with probability
/// `W_local / (W_local + W_remote)`, then pick uniformly inside the chosen
/// group.
#[derive(Debug, Clone)]
pub struct WeightedQueueSampler {
    topology: Topology,
    queues_per_thread: usize,
    /// The weight divisor `K >= 1`; `K == 1` degenerates to uniform sampling.
    k: u32,
    /// Precomputed probability of choosing a local queue, per node (all
    /// nodes are symmetric under the uniform topology, but keeping the field
    /// per-call-site-free makes the hot path a single comparison).
    p_local: f64,
}

impl WeightedQueueSampler {
    /// Creates a sampler for the given topology, queue multiplicity `C`
    /// (queues per thread) and NUMA weight `K`.
    pub fn new(topology: Topology, queues_per_thread: usize, k: u32) -> Self {
        assert!(queues_per_thread >= 1, "need at least one queue per thread");
        assert!(k >= 1, "NUMA weight K must be >= 1");
        let local_queues = (topology.threads_per_node() * queues_per_thread) as f64;
        let remote_queues =
            ((topology.num_nodes() - 1) * topology.threads_per_node() * queues_per_thread) as f64;
        let w_local = local_queues;
        let w_remote = remote_queues / f64::from(k);
        let p_local = if w_local + w_remote == 0.0 {
            1.0
        } else {
            w_local / (w_local + w_remote)
        };
        Self {
            topology,
            queues_per_thread,
            k,
            p_local,
        }
    }

    /// A sampler with `K = 1`: every queue has equal weight (the non-NUMA
    /// baseline).
    pub fn uniform(topology: Topology, queues_per_thread: usize) -> Self {
        Self::new(topology, queues_per_thread, 1)
    }

    /// Total number of queues.
    #[inline]
    pub fn num_queues(&self) -> usize {
        self.queues_per_thread * self.topology.num_threads()
    }

    /// Probability that a sample stays on the caller's node (the paper's
    /// per-thread "internal choice" probability `T_i·C / W_i`).
    #[inline]
    pub fn local_probability(&self) -> f64 {
        if self.topology.num_nodes() == 1 {
            1.0
        } else {
            self.p_local
        }
    }

    /// Samples a queue index for a thread running on `thread_id`.
    /// Returns `(queue_index, was_local_node)`.
    #[inline]
    pub fn sample(&self, thread_id: usize, rng: &mut Pcg32) -> (usize, bool) {
        let nodes = self.topology.num_nodes();
        if nodes == 1 {
            // The non-NUMA default: one draw, and nothing to classify.
            return (rng.next_bounded(self.num_queues()), true);
        }
        if self.k == 1 {
            // Uniform over all queues; classify locality anyway so the
            // statistics stay meaningful for K = 1.
            let q = rng.next_bounded(self.num_queues());
            let local = self.topology.node_of_queue(q, self.queues_per_thread)
                == self.topology.node_of_thread(thread_id);
            return (q, local);
        }
        if rng.next_f64() < self.p_local {
            // Uniform inside this node's contiguous queue block.
            let region = self.topology.queues_per_node(self.queues_per_thread);
            let my_node = self.topology.node_of_thread(thread_id);
            (my_node * region + rng.next_bounded(region), true)
        } else {
            (self.sample_remote(thread_id, rng), false)
        }
    }

    /// Samples a queue uniformly among those *not* on `thread_id`'s node
    /// (one bounded draw): a slot in the concatenation of every other
    /// node's block, then skip past the local node.  Needs at least two
    /// nodes.
    #[inline]
    pub fn sample_remote(&self, thread_id: usize, rng: &mut Pcg32) -> usize {
        let region = self.topology.queues_per_node(self.queues_per_thread);
        let my_node = self.topology.node_of_thread(thread_id);
        let pick = rng.next_bounded((self.topology.num_nodes() - 1) * region);
        let remote_node_rank = pick / region;
        let node = if remote_node_rank >= my_node {
            remote_node_rank + 1
        } else {
            remote_node_rank
        };
        node * region + pick % region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_maps_everything_to_node_zero() {
        let topo = Topology::single_node(8);
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.num_threads(), 8);
        for t in 0..8 {
            assert_eq!(topo.node_of_thread(t), 0);
        }
        for q in 0..32 {
            assert_eq!(topo.node_of_queue(q, 4), 0);
        }
    }

    #[test]
    fn uniform_topology_blocks_threads() {
        let topo = Topology::uniform(4, 2);
        assert_eq!(topo.num_threads(), 8);
        assert_eq!(topo.node_of_thread(0), 0);
        assert_eq!(topo.node_of_thread(1), 0);
        assert_eq!(topo.node_of_thread(2), 1);
        assert_eq!(topo.node_of_thread(7), 3);
    }

    #[test]
    fn split_requires_divisibility() {
        let topo = Topology::split(12, 3);
        assert_eq!(topo.threads_per_node(), 4);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn split_rejects_uneven() {
        let _ = Topology::split(10, 3);
    }

    #[test]
    fn queue_blocks_are_contiguous_per_node() {
        let topo = Topology::uniform(2, 2); // threads 0,1 on node 0; 2,3 on node 1
        let c = 3;
        let region = topo.queues_per_node(c);
        assert_eq!(region, 6);
        for q in 0..(c * 4) {
            assert_eq!(topo.node_of_queue(q, c), q / region);
        }
        assert_eq!(topo.queues_of_node(0, c), 0..6);
        assert_eq!(topo.queues_of_node(1, c), 6..12);
    }

    #[test]
    fn queue_blocks_partition_the_queue_space() {
        for (nodes, tpn, c) in [(1, 4, 1), (2, 2, 3), (4, 4, 4), (3, 2, 2)] {
            let topo = Topology::uniform(nodes, tpn);
            let total = c * topo.num_threads();
            let mut owner_count = vec![0usize; total];
            for node in 0..nodes {
                for q in topo.queues_of_node(node, c) {
                    assert_eq!(topo.node_of_queue(q, c), node);
                    owner_count[q] += 1;
                }
            }
            assert!(
                owner_count.iter().all(|&n| n == 1),
                "every queue must belong to exactly one node"
            );
        }
    }

    #[test]
    fn sampler_uniform_when_single_node() {
        let topo = Topology::single_node(4);
        let sampler = WeightedQueueSampler::new(topo, 2, 64);
        assert_eq!(sampler.local_probability(), 1.0);
        let mut rng = Pcg32::new(1);
        let mut seen = vec![false; sampler.num_queues()];
        for _ in 0..10_000 {
            let (q, local) = sampler.sample(0, &mut rng);
            assert!(local);
            seen[q] = true;
        }
        assert!(seen.iter().all(|&b| b), "all queues should be sampled");
    }

    /// What `sample` did on its uniform path before the single-node
    /// shortcut: one bounded draw, locality looked up in the topology.
    fn sample_by_lookup(
        sampler: &WeightedQueueSampler,
        thread_id: usize,
        rng: &mut Pcg32,
    ) -> (usize, bool) {
        let topology = &sampler.topology;
        let q = rng.next_bounded(sampler.num_queues());
        let local = topology.node_of_queue(q, sampler.queues_per_thread)
            == topology.node_of_thread(thread_id);
        (q, local)
    }

    #[test]
    fn uniform_paths_draw_and_classify_as_a_topology_lookup_would() {
        let samplers = [
            WeightedQueueSampler::uniform(Topology::single_node(1), 1),
            WeightedQueueSampler::uniform(Topology::single_node(4), 1),
            WeightedQueueSampler::new(Topology::single_node(6), 4, 64),
            WeightedQueueSampler::uniform(Topology::uniform(2, 3), 2),
        ];
        for sampler in samplers {
            for thread_id in 0..sampler.topology.num_threads() {
                let (mut rng, mut reference_rng) = (Pcg32::new(11), Pcg32::new(11));
                for _ in 0..4_000 {
                    // The same queue, and the same flag for the schedulers
                    // to count as `local_samples` or `remote_samples`.
                    assert_eq!(
                        sampler.sample(thread_id, &mut rng),
                        sample_by_lookup(&sampler, thread_id, &mut reference_rng)
                    );
                }
                // The same number of draws: the streams are still in step.
                assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }

    #[test]
    fn sampler_k1_is_uniform_across_nodes() {
        let topo = Topology::uniform(2, 2);
        let sampler = WeightedQueueSampler::uniform(topo, 2);
        let mut rng = Pcg32::new(2);
        let trials = 40_000;
        let local = (0..trials)
            .filter(|_| sampler.sample(0, &mut rng).1)
            .count();
        let rate = local as f64 / trials as f64;
        // With 2 symmetric nodes, half of all queues are local.
        assert!((rate - 0.5).abs() < 0.02, "local rate {rate}");
    }

    #[test]
    fn sampler_large_k_prefers_local_node() {
        let topo = Topology::uniform(4, 4);
        let sampler = WeightedQueueSampler::new(topo.clone(), 4, 64);
        // Analytical local probability: W_local = 16, W_remote = 48/64.
        let expected = 16.0 / (16.0 + 48.0 / 64.0);
        assert!((sampler.local_probability() - expected).abs() < 1e-12);

        let mut rng = Pcg32::new(3);
        let trials = 60_000;
        let mut local_hits = 0usize;
        for _ in 0..trials {
            let (q, local) = sampler.sample(5, &mut rng);
            assert!(q < sampler.num_queues());
            // Cross-check the sampler's locality flag against the topology.
            let is_local = topo.node_of_queue(q, 4) == topo.node_of_thread(5);
            assert_eq!(local, is_local);
            if local {
                local_hits += 1;
            }
        }
        let rate = local_hits as f64 / trials as f64;
        assert!(
            (rate - expected).abs() < 0.02,
            "empirical {rate} vs expected {expected}"
        );
    }

    #[test]
    fn sample_remote_reaches_every_other_node_and_never_the_callers() {
        let topo = Topology::uniform(3, 2);
        let sampler = WeightedQueueSampler::new(topo.clone(), 2, 8);
        let mut rng = Pcg32::new(5);
        let mut nodes_seen = [false; 3];
        for _ in 0..10_000 {
            // Thread 2 lives on node 1.
            nodes_seen[topo.node_of_queue(sampler.sample_remote(2, &mut rng), 2)] = true;
        }
        assert_eq!(nodes_seen, [true, false, true]);
    }

    #[test]
    fn sampler_reaches_remote_queues_of_every_node() {
        let topo = Topology::uniform(4, 2);
        let sampler = WeightedQueueSampler::new(topo.clone(), 2, 4);
        let mut rng = Pcg32::new(9);
        let mut nodes_seen = [false; 4];
        for _ in 0..50_000 {
            let (q, _) = sampler.sample(0, &mut rng);
            nodes_seen[topo.node_of_queue(q, 2)] = true;
        }
        assert!(
            nodes_seen.iter().all(|&b| b),
            "every node should be reachable"
        );
    }
}
