//! See [`smq_bench::figures::fig7_14_mq_optimizations`].

fn main() {
    smq_bench::figures::main("fig7_14_mq_optimizations");
}
