//! See [`smq_bench::figures::fig15_16_mq_best_variants`].

fn main() {
    smq_bench::figures::main("fig15_16_mq_best_variants");
}
