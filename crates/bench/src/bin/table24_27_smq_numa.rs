//! See [`smq_bench::figures::table24_27_smq_numa`].

fn main() {
    smq_bench::figures::main("table24_27_smq_numa");
}
