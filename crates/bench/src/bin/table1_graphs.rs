//! See [`smq_bench::figures::table1_graphs`].

fn main() {
    smq_bench::figures::main("table1_graphs");
}
