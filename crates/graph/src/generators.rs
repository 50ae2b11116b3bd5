//! Synthetic graph generators standing in for the paper's input graphs.
//!
//! * [`road_network`] — a planar grid with diagonals, random missing edges,
//!   Euclidean-derived weights and per-vertex coordinates: the same
//!   structural regime (low degree, huge diameter, spatial embedding) as the
//!   USA / USA-West DIMACS road graphs, at a configurable scale.
//! * [`power_law`] — a Chung-Lu style generator with a heavy-tailed degree
//!   sequence and uniform weights in `[0, 255]`: the regime of the Twitter
//!   and `.sk` web graphs, where the paper observes "flat" priorities and
//!   throughput-dominated behaviour.
//! * [`uniform_random`] — an Erdős–Rényi-style control used by unit tests
//!   and micro-benchmarks.
//!
//! Each generator hands [`CsrGraph::from_replay`] its edge loop as a closure
//! that starts from the same RNG state every time it is called, so the
//! graph is built without an edge list ever existing beside it.

use smq_core::rng::Pcg32;

use crate::csr::{CsrGraph, EdgeSink};

/// Parameters for [`road_network`].
#[derive(Debug, Clone, Copy)]
pub struct RoadNetworkParams {
    /// Grid width in vertices.
    pub width: u32,
    /// Grid height in vertices.
    pub height: u32,
    /// Probability (in percent) that any given grid edge is *removed*,
    /// creating detours as in real road networks.
    pub removal_percent: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for RoadNetworkParams {
    fn default() -> Self {
        Self {
            width: 64,
            height: 64,
            removal_percent: 10,
            seed: 0x0AD5,
        }
    }
}

/// Generates a road-network-like graph: a `width × height` grid with
/// diagonal shortcuts, a fraction of edges removed, Euclidean weights, and
/// planar coordinates attached (so A* can use its distance heuristic).
/// All edges are undirected (added in both directions).
pub fn road_network(params: RoadNetworkParams) -> CsrGraph {
    let RoadNetworkParams {
        width,
        height,
        removal_percent,
        seed,
    } = params;
    assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
    assert!(
        removal_percent < 50,
        "removing half the edges disconnects the grid"
    );
    let n = width * height;
    let mut rng = Pcg32::new(seed);

    let vertex = |x: u32, y: u32| y * width + x;
    // Slightly jittered coordinates so the heuristic is informative but not
    // exact.
    let mut coords = Vec::with_capacity(n as usize);
    for y in 0..height {
        for x in 0..width {
            let jx = (rng.next_f64() - 0.5) * 0.2;
            let jy = (rng.next_f64() - 0.5) * 0.2;
            coords.push((f64::from(x) + jx, f64::from(y) + jy));
        }
    }
    // Every replay of the edge loop starts from the state the coordinates
    // left the generator in.
    let rng_after_coords = rng;

    // Integer weights comparable to DIMACS road lengths.
    let length = |a: u32, b: u32| {
        let (ax, ay) = coords[a as usize];
        let (bx, by) = coords[b as usize];
        let euclid = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        (euclid * 100.0) as u32 + 1
    };
    let undirected = |sink: &mut EdgeSink, a: u32, b: u32, weight: u32| {
        sink.edge(a, b, weight);
        sink.edge(b, a, weight);
    };
    let maybe_add = |sink: &mut EdgeSink, rng: &mut Pcg32, a: u32, b: u32| {
        if rng.next_bounded(100) >= removal_percent as usize {
            // A small random detour factor on top of the Euclidean length.
            let weight = length(a, b) + rng.next_bounded(20) as u32;
            undirected(sink, a, b, weight);
        }
    };

    let emit = |sink: &mut EdgeSink| {
        let mut rng = rng_after_coords.clone();
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    maybe_add(sink, &mut rng, vertex(x, y), vertex(x + 1, y));
                }
                if y + 1 < height {
                    maybe_add(sink, &mut rng, vertex(x, y), vertex(x, y + 1));
                }
                // Sparse diagonals emulate highways/shortcuts.
                if x + 1 < width && y + 1 < height && rng.next_bounded(8) == 0 {
                    maybe_add(sink, &mut rng, vertex(x, y), vertex(x + 1, y + 1));
                }
            }
        }
        // Guarantee connectivity of the backbone row/column so SSSP from
        // vertex 0 reaches a large fraction of the graph even after
        // removals.  Backbone weights use the same Euclidean formula as every
        // other edge so the A* heuristic stays admissible.
        for x in 1..width {
            let (a, b) = (vertex(x - 1, 0), vertex(x, 0));
            undirected(sink, a, b, length(a, b));
        }
        for y in 1..height {
            let (a, b) = (vertex(0, y - 1), vertex(0, y));
            undirected(sink, a, b, length(a, b));
        }
    };
    CsrGraph::from_replay(n, emit).with_coordinates(coords)
}

/// Parameters for [`power_law`].
#[derive(Debug, Clone, Copy)]
pub struct PowerLawParams {
    /// Number of vertices.
    pub nodes: u32,
    /// Target average out-degree.
    pub avg_degree: u32,
    /// Power-law exponent of the expected degree sequence (2.0–3.0 is the
    /// social-network range).
    pub exponent: f64,
    /// Maximum edge weight (weights are uniform in `[0, max_weight]`,
    /// the paper uses 255).
    pub max_weight: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for PowerLawParams {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            avg_degree: 16,
            exponent: 2.2,
            max_weight: 255,
            seed: 0x50C1A1,
        }
    }
}

/// Generates a directed heavy-tailed graph with a Chung-Lu style attachment:
/// targets are drawn proportionally to a Zipf-like weight `i^(-1/(β-1))`, so
/// a few vertices collect most in-edges (hubs), mirroring social/web graphs.
pub fn power_law(params: PowerLawParams) -> CsrGraph {
    let PowerLawParams {
        nodes,
        avg_degree,
        exponent,
        max_weight,
        seed,
    } = params;
    assert!(nodes >= 2, "need at least two vertices");
    assert!(exponent > 1.0, "power-law exponent must exceed 1");
    let targets = TargetTable::new(nodes, 1.0 / (exponent - 1.0));
    let edges = u64::from(nodes) * u64::from(avg_degree);
    CsrGraph::from_replay(nodes, |sink| {
        let mut rng = Pcg32::new(seed);
        for _ in 0..edges {
            let from = rng.next_bounded(nodes as usize) as u32;
            let mut to = targets.pick(rng.next_f64());
            if to == from {
                to = (to + 1) % nodes;
            }
            let weight = rng.next_bounded(max_weight as usize + 1) as u32;
            sink.edge(from, to, weight);
        }
        // A ring backbone keeps the graph connected so traversals reach most
        // of the graph from any source.
        for v in 0..nodes {
            let weight = rng.next_bounded(max_weight as usize + 1) as u32;
            sink.edge(v, (v + 1) % nodes, weight);
        }
    })
}

/// Cumulative Zipf-like distribution over target vertices (vertex `i` has
/// weight `(i + 1)^-alpha`), with a guide table over it: the binary search
/// for a draw is most of what generating a power-law graph costs, and the
/// generator runs twice.
struct TargetTable {
    cumulative: Vec<f64>,
    /// `guide[b]` is the first index whose cumulative weight reaches the
    /// lower edge of bucket `b`, for `GUIDE_BUCKETS` equal-width buckets
    /// over `[0, total)` and one closing entry.
    guide: Vec<u32>,
}

const GUIDE_BUCKETS: usize = 1 << 16;

impl TargetTable {
    fn new(nodes: u32, alpha: f64) -> TargetTable {
        let mut cumulative = Vec::with_capacity(nodes as usize);
        let mut acc = 0.0f64;
        for i in 0..nodes {
            acc += (f64::from(i) + 1.0).powf(-alpha);
            cumulative.push(acc);
        }
        let width = acc / GUIDE_BUCKETS as f64;
        let mut guide = Vec::with_capacity(GUIDE_BUCKETS + 1);
        let mut i = 0usize;
        for b in 0..=GUIDE_BUCKETS {
            while i < cumulative.len() && cumulative[i] < b as f64 * width {
                i += 1;
            }
            guide.push(i as u32);
        }
        TargetTable { cumulative, guide }
    }

    /// The vertex a uniform draw `unit` in `[0, 1)` lands on: exactly the
    /// index a binary search of the whole table for `unit * total` yields.
    fn pick(&self, unit: f64) -> u32 {
        let table = &self.cumulative[..];
        let last = table.len() - 1;
        let x = unit * table[last];
        // Search only between the guide marks around `x`'s bucket.  The
        // result counts only if its neighbours confirm it is the partition
        // point and it is not an exact hit (which of several equal entries
        // the full search reports is its own business); otherwise ask it.
        let bucket = (unit * GUIDE_BUCKETS as f64) as usize;
        let (lo, hi) = (self.guide[bucket] as usize, self.guide[bucket + 1] as usize);
        let i = lo + table[lo..hi].partition_point(|&c| c < x);
        let confirmed = (i == 0 || table[i - 1] < x) && table.get(i).is_some_and(|&c| c > x);
        let i = if confirmed {
            i
        } else {
            match table.binary_search_by(|probe| probe.partial_cmp(&x).expect("finite")) {
                Ok(i) | Err(i) => i,
            }
        };
        i.min(last) as u32
    }
}

/// Generates a uniform random directed graph with `nodes` vertices and
/// `edges` edges, weights uniform in `[1, max_weight]`.
pub fn uniform_random(nodes: u32, edges: u64, max_weight: u32, seed: u64) -> CsrGraph {
    assert!(nodes >= 2);
    assert!(max_weight >= 1);
    CsrGraph::from_replay(nodes, |sink| {
        let mut rng = Pcg32::new(seed);
        for _ in 0..edges {
            let from = rng.next_bounded(nodes as usize) as u32;
            let mut to = rng.next_bounded(nodes as usize) as u32;
            if to == from {
                to = (to + 1) % nodes;
            }
            sink.edge(from, to, 1 + rng.next_bounded(max_weight as usize) as u32);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn road_network_has_expected_shape() {
        let g = road_network(RoadNetworkParams {
            width: 16,
            height: 16,
            removal_percent: 10,
            seed: 1,
        });
        assert_eq!(g.num_nodes(), 256);
        assert!(g.has_coordinates());
        // Road networks are sparse and low degree.
        assert!(g.avg_degree() < 8.0, "avg degree {}", g.avg_degree());
        assert!(g.max_degree() <= 10);
        assert!(
            g.num_edges() > 256,
            "grid should have more edges than nodes"
        );
    }

    #[test]
    fn road_network_is_deterministic_per_seed() {
        let p = RoadNetworkParams {
            width: 8,
            height: 8,
            removal_percent: 20,
            seed: 42,
        };
        let a = road_network(p);
        let b = road_network(p);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.total_weight(), b.total_weight());
    }

    #[test]
    fn power_law_has_hubs() {
        let g = power_law(PowerLawParams {
            nodes: 2_000,
            avg_degree: 8,
            exponent: 2.1,
            max_weight: 255,
            seed: 7,
        });
        assert_eq!(g.num_nodes(), 2_000);
        // In-degree skew: compute in-degrees and check the top vertex gets a
        // disproportionate share.
        let mut indeg = vec![0u32; g.num_nodes()];
        for e in g.edges() {
            indeg[e.to as usize] += 1;
        }
        let max_in = *indeg.iter().max().unwrap() as f64;
        let avg_in = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_in > 10.0 * avg_in,
            "expected hub vertices (max {max_in}, avg {avg_in})"
        );
    }

    #[test]
    fn power_law_weights_in_range() {
        let g = power_law(PowerLawParams {
            nodes: 500,
            avg_degree: 4,
            max_weight: 255,
            exponent: 2.5,
            seed: 9,
        });
        assert!(g.edges().all(|e| e.weight <= 255));
        assert!(g.edges().all(|e| e.from != e.to), "no self loops");
    }

    #[test]
    fn guided_pick_is_the_full_binary_search() {
        for (nodes, alpha) in [(2u32, 0.9), (7, 0.5), (1_000, 0.91), (300_000, 0.91)] {
            let table = TargetTable::new(nodes, alpha);
            let total = *table.cumulative.last().unwrap();
            let full = |unit: f64| {
                let x = unit * total;
                let found = table
                    .cumulative
                    .binary_search_by(|probe| probe.partial_cmp(&x).unwrap());
                match found {
                    Ok(i) | Err(i) => (i as u32).min(nodes - 1),
                }
            };
            let mut rng = Pcg32::new(u64::from(nodes));
            // Random draws, then the draws that land on or beside a table
            // entry, where a rounded bucket or an exact hit could differ.
            let exact = table.cumulative.iter().step_by(97).map(|c| c / total);
            let units: Vec<f64> = (0..20_000)
                .map(|_| rng.next_f64())
                .chain(exact.flat_map(|u| [u, u - f64::EPSILON, u + f64::EPSILON]))
                .chain([0.0, 1.0 - f64::EPSILON / 2.0])
                .filter(|u| (0.0..1.0).contains(u))
                .collect();
            for unit in units {
                assert_eq!(table.pick(unit), full(unit), "nodes {nodes} unit {unit}");
            }
        }
    }

    #[test]
    fn uniform_random_respects_edge_count() {
        let g = uniform_random(100, 1_000, 10, 3);
        assert_eq!(g.num_edges(), 1_000);
        assert!(g.edges().all(|e| (1..=10).contains(&e.weight)));
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_grid_rejected() {
        let _ = road_network(RoadNetworkParams {
            width: 1,
            height: 5,
            removal_percent: 0,
            seed: 0,
        });
    }
}
