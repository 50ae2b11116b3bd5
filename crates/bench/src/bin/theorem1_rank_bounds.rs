//! See [`smq_bench::figures::theorem1_rank_bounds`].

fn main() {
    smq_bench::figures::main("theorem1_rank_bounds");
}
