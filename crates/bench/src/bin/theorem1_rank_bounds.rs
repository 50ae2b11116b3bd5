//! Theorem 1 (Section 3): empirical rank bounds of the SMQ process.
//!
//! Sweeps the number of queues `n`, the stealing probability `p_steal`, the
//! batch size `B` and the scheduling imbalance `γ`, and reports the measured
//! average and maximum rank of the queue tops.  The theorem predicts the
//! average scales like `n·B·(1+γ)/p_steal` (up to logarithmic factors); the
//! printed "normalized" column divides the measurement by that quantity and
//! should therefore stay roughly flat across the sweep.

use smq_bench::{report::f2, BenchArgs, Table};
use smq_core::Probability;
use smq_rank::{simulate, RankSimConfig};

fn main() {
    let args = BenchArgs::from_env_strict();
    let queue_counts: Vec<usize> = if args.full_scale() {
        vec![4, 8, 16, 32, 64, 128]
    } else {
        vec![4, 8, 16, 32]
    };
    let p_steals: Vec<u32> = if args.full_scale() {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 4, 16]
    };
    let batches: Vec<usize> = vec![1, 4, 16];
    let gammas: Vec<f64> = vec![0.0, 0.25];

    let mut table = Table::new(
        "Theorem 1 — empirical rank of queue tops for the SMQ process",
        &[
            "n",
            "p_steal",
            "B",
            "gamma",
            "avg top rank",
            "max top rank",
            "avg / (nB/p)",
        ],
    );
    let mut results = Vec::new();
    for &n in &queue_counts {
        for &p in &p_steals {
            for &b in &batches {
                for &gamma in &gammas {
                    let config = RankSimConfig {
                        queues: n,
                        initial_tasks: (n * b * 4_000).max(100_000),
                        batch: b,
                        p_steal: Probability::new(p),
                        gamma,
                        steps: if args.full_scale() { 40_000 } else { 8_000 },
                        seed: args.seed,
                    };
                    let r = simulate(&config);
                    let predicted = n as f64 * b as f64 * (1.0 + gamma) * p as f64;
                    let normalized = r.mean_top_rank / predicted;
                    table.add_row(vec![
                        n.to_string(),
                        format!("1/{p}"),
                        b.to_string(),
                        format!("{gamma:.2}"),
                        f2(r.mean_top_rank),
                        f2(r.mean_max_top_rank),
                        f2(normalized),
                    ]);
                    results.push((n, p, b, gamma, r.mean_top_rank, r.mean_max_top_rank));
                }
            }
        }
    }
    table.print();
    smq_bench::report::print_json("theorem1_rank_bounds", &results);
}
