//! See [`smq_bench::figures::table16_23_mq_numa`].

fn main() {
    smq_bench::figures::main("table16_23_mq_numa");
}
