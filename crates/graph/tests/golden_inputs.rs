//! Pins the generated inputs: FNV-1a checksums over every edge (in
//! `edges()` order) and every coordinate of the three generators, at two
//! seeds each.  The constants were computed on the commit *before*
//! `CsrGraph` moved to the interleaved layout and the generators to
//! replaying their loop twice, so a pass here proves the repo benchmark runs
//! on bit-identical graphs on both sides of that change.

use smq_graph::generators::{
    power_law, road_network, uniform_random, PowerLawParams, RoadNetworkParams,
};
use smq_graph::CsrGraph;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn checksum(graph: &CsrGraph) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    fnv1a(&mut hash, graph.num_nodes() as u64);
    for e in graph.edges() {
        fnv1a(&mut hash, u64::from(e.from) << 32 | u64::from(e.to));
        fnv1a(&mut hash, u64::from(e.weight));
    }
    for v in 0..graph.num_nodes() as u32 {
        if let Some((x, y)) = graph.coordinates(v) {
            fnv1a(&mut hash, x.to_bits());
            fnv1a(&mut hash, y.to_bits());
        }
    }
    hash
}

fn social(nodes: u32, avg_degree: u32, seed: u64) -> CsrGraph {
    power_law(PowerLawParams {
        nodes,
        avg_degree,
        exponent: 2.1,
        seed,
        ..PowerLawParams::default()
    })
}

fn road(side: u32, seed: u64) -> CsrGraph {
    road_network(RoadNetworkParams {
        width: side,
        height: side,
        removal_percent: 10,
        seed,
    })
}

/// Compares as hex strings so a failure prints constants that can be read
/// against (or pasted into) the tables below.
fn assert_pinned(got: [u64; 6], pinned: [u64; 6]) {
    let hex = |hashes: [u64; 6]| hashes.map(|h| format!("{h:#018X}"));
    assert_eq!(hex(got), hex(pinned));
}

#[test]
fn generators_emit_the_pinned_graphs() {
    let got = [
        checksum(&social(20_000, 8, 1)),
        checksum(&social(20_000, 8, 2)),
        checksum(&road(96, 1)),
        checksum(&road(96, 2)),
        checksum(&uniform_random(5_000, 40_000, 100, 1)),
        checksum(&uniform_random(5_000, 40_000, 100, 2)),
    ];
    let pinned = [
        0x0056_DB75_8BCE_5FC1u64,
        0xE92A_8E4B_DB8B_3986,
        0x75A1_04D7_AC9C_62E4,
        0x70BE_1423_8176_DAB9,
        0xA007_D09B_C9D3_A225,
        0x413B_7022_BAF0_88A1,
    ];
    assert_pinned(got, pinned);
}

/// The repo benchmark's own sizes (`benchmark/src/{sssp,route}.rs`:
/// `sssp_social` 400 000 × 16, `sssp_road` 768², the route grid 128²).
/// Ignored because it is slow unoptimised; run it with
/// `cargo test --release -p smq-graph --test golden_inputs -- --ignored`.
#[test]
#[ignore = "benchmark-sized graphs: run with --release"]
fn benchmark_sized_generators_emit_the_pinned_graphs() {
    let got = [
        checksum(&social(400_000, 16, 1)),
        checksum(&social(400_000, 16, 2)),
        checksum(&road(768, 1)),
        checksum(&road(768, 2)),
        checksum(&road(128, 1)),
        checksum(&road(128, 2)),
    ];
    let pinned = [
        0x46EA_8317_DBCF_CE7Eu64,
        0xDCEF_7484_0236_FEB1,
        0x984D_9181_FE12_9EE8,
        0x97D3_F70C_0CB4_1DA5,
        0xCFE7_EFFE_453A_FE0C,
        0x431B_7750_6833_D254,
    ];
    assert_pinned(got, pinned);
}
