//! See [`smq_bench::figures::fig3_6_obim_pmod_tuning`].

fn main() {
    smq_bench::figures::main("fig3_6_obim_pmod_tuning");
}
