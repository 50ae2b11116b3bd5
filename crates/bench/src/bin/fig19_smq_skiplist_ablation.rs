//! See [`smq_bench::figures::fig19_smq_skiplist_ablation`].

fn main() {
    smq_bench::figures::main("fig19_smq_skiplist_ablation");
}
