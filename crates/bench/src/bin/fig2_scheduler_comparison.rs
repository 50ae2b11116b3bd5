//! See [`smq_bench::figures::fig2_scheduler_comparison`].

fn main() {
    smq_bench::figures::main("fig2_scheduler_comparison");
}
