//! See [`smq_bench::figures::table2_3_classic_mq_c`].

fn main() {
    smq_bench::figures::main("table2_3_classic_mq_c");
}
