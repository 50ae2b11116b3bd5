//! See [`smq_bench::figures::fig1_smq_heap_ablation`].

fn main() {
    smq_bench::figures::main("fig1_smq_heap_ablation");
}
