//! Simulator of the paper's analytical model (Section 3, Theorem 1).
//!
//! The theorem bounds the *rank* of removed elements for a simplified SMQ
//! process: `n` thread-local queues pre-filled with tasks in increasing rank
//! order (inserted into queues at random), a stochastic thread scheduler
//! with per-thread probabilities `π_i` whose imbalance is bounded by `γ`
//! (`1 − γ ≤ 1/(π_i·n) ≤ 1 + γ`), a stealing probability `p_steal`, and
//! batched removals of size `B`.  The claim: the expected *average* rank of
//! the elements sitting on top of the queues is
//! `O(nB(1+γ)/p_steal · log((1+γ)/p_steal))` and the expected *maximum* rank
//! gains an extra `log n` term — independent of how long the process runs.
//!
//! [`simulate`] runs that exact discrete process and reports empirical
//! average/maximum rank costs, which the `theorem1_rank_bounds` bench binary
//! sweeps against `n`, `p_steal`, `B`, and `γ` to reproduce the theorem's
//! scaling behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use smq_core::rng::Pcg32;
use smq_core::Probability;

/// Parameters of the analytical-model simulation.
#[derive(Debug, Clone, Copy)]
pub struct RankSimConfig {
    /// Number of queues / threads `n`.
    pub queues: usize,
    /// Number of tasks inserted before the removal phase (`T` in the paper).
    /// Must be at least `batch · steps`, since each delete removes at most
    /// `batch` tasks; keep a margin above that, because single queues run
    /// dry before the whole set does, and a run that drains its queues
    /// measures the drain, not the process.
    pub initial_tasks: usize,
    /// Batch size `B` removed per delete.
    pub batch: usize,
    /// Stealing probability `p_steal`.
    pub p_steal: Probability,
    /// Scheduling imbalance `γ ∈ [0, 1)`: thread `i` is scheduled with
    /// probability proportional to `1 + γ·s_i`, where `s_i` alternates sign
    /// across threads, which realises `1 − γ ≤ 1/(π_i n) ≤ 1 + γ` up to
    /// normalisation.
    pub gamma: f64,
    /// Number of delete steps to simulate.
    pub steps: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RankSimConfig {
    fn default() -> Self {
        Self {
            queues: 16,
            initial_tasks: 200_000,
            batch: 1,
            p_steal: Probability::new(2),
            gamma: 0.0,
            steps: 20_000,
            seed: 0x2a1c,
        }
    }
}

impl RankSimConfig {
    /// Validates parameter consistency.
    pub fn validate(&self) {
        assert!(self.queues >= 2, "need at least two queues");
        assert!(self.batch >= 1, "batch must be >= 1");
        assert!((0.0..1.0).contains(&self.gamma), "gamma must be in [0, 1)");
        assert!(self.steps >= 1, "need at least one step");
        assert!(
            self.steps * self.batch <= self.initial_tasks,
            "too few initial tasks: {} steps of batch {} can remove more than {}",
            self.steps,
            self.batch,
            self.initial_tasks
        );
    }
}

/// Empirical rank statistics produced by [`simulate`].
#[derive(Debug, Clone)]
pub struct RankSimResult {
    /// Average, over all delete steps, of the rank of the removed element
    /// among all elements still present (rank 0 = global minimum).
    pub mean_removed_rank: f64,
    /// Average, over sampled time steps, of the mean rank of the elements on
    /// top of the queues (the quantity bounded by Theorem 1).
    pub mean_top_rank: f64,
    /// Average, over sampled time steps, of the maximum rank on top of any
    /// queue.
    pub mean_max_top_rank: f64,
    /// Largest top rank ever observed.
    pub worst_max_top_rank: u64,
    /// Number of delete steps actually simulated.
    pub steps: usize,
}

/// Runs the Section 3 process and measures rank costs.
///
/// Tasks are identified by their rank (0 = highest priority).  The insertion
/// phase places ranks `0..initial_tasks` into queues chosen according to the
/// scheduling distribution, in increasing order, so each queue holds an
/// increasing sequence and only queue *tops* ever need comparing — exactly
/// the structure the paper's coupling argument uses.
pub fn simulate(config: &RankSimConfig) -> RankSimResult {
    config.validate();
    let mut rng = Pcg32::new(config.seed);
    let n = config.queues;

    // Scheduling distribution π with imbalance γ: alternate π_i ∝ (1 ± γ).
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                1.0 + config.gamma
            } else {
                1.0 - config.gamma
            }
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let pick_thread = |rng: &mut Pcg32| -> usize {
        let x = rng.next_f64() * total_weight;
        cumulative.iter().position(|&c| x < c).unwrap_or(n - 1)
    };

    // Insertion phase: ranks in increasing order, queue chosen ~ π.
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
    for rank in 0..config.initial_tasks as u64 {
        queues[pick_thread(&mut rng)].push_back(rank);
    }

    // `removed[rank]` marks ranks already deleted, so the rank *cost* of a
    // removal (its position among surviving elements) can be computed with a
    // Fenwick tree of removed counts.
    let mut removed_tree = FenwickTree::new(config.initial_tasks);
    let mut sum_removed_rank = 0.0f64;
    let mut removed_samples = 0u64;
    let mut sum_top_rank = 0.0f64;
    let mut sum_max_top_rank = 0.0f64;
    let mut worst_max_top_rank = 0u64;
    let mut top_samples = 0u64;

    for _ in 0..config.steps {
        // Measure the ranks of the queue tops (the theorem's quantity).
        let mut top_sum = 0.0;
        let mut top_max = 0u64;
        let mut live_queues = 0u64;
        for q in &queues {
            if let Some(&top) = q.front() {
                let cost = top - removed_tree.prefix_sum(top as usize) as u64;
                top_sum += cost as f64;
                top_max = top_max.max(cost);
                live_queues += 1;
            }
        }
        if live_queues > 0 {
            sum_top_rank += top_sum / live_queues as f64;
            sum_max_top_rank += top_max as f64;
            worst_max_top_rank = worst_max_top_rank.max(top_max);
            top_samples += 1;
        }

        // One delete step of the simplified SMQ process.
        let local = pick_thread(&mut rng);
        let source = if config.p_steal.sample(&mut rng) {
            // Steal: compare the local top with a uniformly random queue's
            // top and take from the better one.
            let other = rng.next_bounded(n);
            match (queues[local].front(), queues[other].front()) {
                (Some(&a), Some(&b)) => {
                    if b < a {
                        other
                    } else {
                        local
                    }
                }
                (None, Some(_)) => other,
                _ => local,
            }
        } else {
            local
        };
        for _ in 0..config.batch {
            let Some(rank) = queues[source].pop_front() else {
                break;
            };
            let cost = rank - removed_tree.prefix_sum(rank as usize) as u64;
            sum_removed_rank += cost as f64;
            removed_samples += 1;
            removed_tree.add(rank as usize, 1);
        }
    }

    RankSimResult {
        mean_removed_rank: if removed_samples == 0 {
            0.0
        } else {
            sum_removed_rank / removed_samples as f64
        },
        mean_top_rank: if top_samples == 0 {
            0.0
        } else {
            sum_top_rank / top_samples as f64
        },
        mean_max_top_rank: if top_samples == 0 {
            0.0
        } else {
            sum_max_top_rank / top_samples as f64
        },
        worst_max_top_rank,
        steps: config.steps,
    }
}

/// A Fenwick (binary indexed) tree counting removed ranks, so "how many
/// removed elements precede rank r" is an `O(log n)` query.
struct FenwickTree {
    tree: Vec<u32>,
}

impl FenwickTree {
    fn new(size: usize) -> Self {
        Self {
            tree: vec![0; size + 1],
        }
    }

    /// Adds `delta` at position `idx`.
    fn add(&mut self, idx: usize, delta: u32) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of values at positions `0..idx` (exclusive of `idx`).
    fn prefix_sum(&self, idx: usize) -> u32 {
        let mut sum = 0;
        let mut i = idx;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_tree_prefix_sums() {
        let mut t = FenwickTree::new(10);
        t.add(3, 1);
        t.add(5, 2);
        t.add(9, 1);
        assert_eq!(t.prefix_sum(0), 0);
        assert_eq!(t.prefix_sum(3), 0);
        assert_eq!(t.prefix_sum(4), 1);
        assert_eq!(t.prefix_sum(6), 3);
        assert_eq!(t.prefix_sum(10), 4);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let c = RankSimConfig {
            queues: 1,
            ..RankSimConfig::default()
        };
        assert!(std::panic::catch_unwind(|| c.validate()).is_err());
        let c = RankSimConfig {
            gamma: 1.5,
            ..RankSimConfig::default()
        };
        assert!(std::panic::catch_unwind(|| c.validate()).is_err());
        // 20 000 deletes of 32 could remove 640 000 of 200 000 tasks.
        let c = RankSimConfig {
            batch: 32,
            ..RankSimConfig::default()
        };
        assert!(std::panic::catch_unwind(|| c.validate()).is_err());
        RankSimConfig {
            batch: 10,
            ..RankSimConfig::default()
        }
        .validate();
    }

    #[test]
    fn always_steal_single_batch_has_low_rank_cost() {
        // With p_steal = 1 the process is the classic two-choice Multi-Queue,
        // whose expected removed rank is O(n).  Check it stays well below a
        // generous multiple of n.
        let config = RankSimConfig {
            queues: 8,
            initial_tasks: 100_000,
            batch: 1,
            p_steal: Probability::ALWAYS,
            gamma: 0.0,
            steps: 10_000,
            seed: 1,
        };
        let result = simulate(&config);
        assert!(result.mean_removed_rank < 8.0 * 8.0, "{result:?}");
    }

    #[test]
    fn lower_steal_probability_increases_rank_cost() {
        let base = RankSimConfig {
            queues: 16,
            initial_tasks: 200_000,
            batch: 1,
            gamma: 0.0,
            steps: 20_000,
            seed: 2,
            p_steal: Probability::ALWAYS,
        };
        let frequent = simulate(&RankSimConfig {
            p_steal: Probability::new(2),
            ..base
        });
        let rare = simulate(&RankSimConfig {
            p_steal: Probability::new(64),
            ..base
        });
        assert!(
            rare.mean_top_rank > frequent.mean_top_rank,
            "rare steals should degrade rank: {rare:?} vs {frequent:?}"
        );
    }

    #[test]
    fn larger_batches_increase_rank_cost() {
        let base = RankSimConfig {
            queues: 8,
            initial_tasks: 300_000,
            steps: 10_000,
            seed: 3,
            ..RankSimConfig::default()
        };
        let small = simulate(&RankSimConfig { batch: 1, ..base });
        let large = simulate(&RankSimConfig { batch: 16, ..base });
        assert!(
            large.mean_removed_rank > small.mean_removed_rank,
            "batching should increase rank cost: {large:?} vs {small:?}"
        );
    }

    #[test]
    fn rank_cost_scales_roughly_linearly_in_queue_count() {
        let make = |queues: usize| RankSimConfig {
            queues,
            initial_tasks: 400_000,
            batch: 1,
            p_steal: Probability::new(2),
            gamma: 0.0,
            steps: 20_000,
            seed: 4,
        };
        let small = simulate(&make(4));
        let big = simulate(&make(32));
        // Theorem 1 predicts O(n): going from 4 to 32 queues should grow the
        // rank cost noticeably (at least 2x) but not quadratically (not 64x).
        let ratio = big.mean_top_rank / small.mean_top_rank.max(1e-9);
        assert!(ratio > 2.0, "expected growth with n, ratio {ratio}");
        assert!(
            ratio < 64.0,
            "growth should be roughly linear, ratio {ratio}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let config = RankSimConfig::default();
        let a = simulate(&config);
        let b = simulate(&config);
        assert_eq!(a.mean_removed_rank, b.mean_removed_rank);
        assert_eq!(a.worst_max_top_rank, b.worst_max_top_rank);
    }

    #[test]
    fn imbalanced_scheduling_does_not_collapse_the_process() {
        let config = RankSimConfig {
            gamma: 0.4,
            p_steal: Probability::new(2),
            ..RankSimConfig::default()
        };
        let result = simulate(&config);
        // The bound degrades with gamma but stays finite and modest compared
        // with the number of initial tasks.
        assert!(result.mean_top_rank < config.initial_tasks as f64 / 10.0);
    }
}
