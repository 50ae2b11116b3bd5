//! The benchmark input graphs (synthetic stand-ins for Table 1).

use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
use smq_graph::CsrGraph;

use crate::args::Scale;

/// One benchmark input: a named graph plus the vertices used as SSSP source
/// and A* target.
pub struct GraphSpec {
    /// Short name matching the paper's table ("USA", "WEST", "TWITTER",
    /// "WEB"), suffixed with `-like` because these are synthetic stand-ins.
    pub name: &'static str,
    /// One-line description mirroring Table 1.
    pub description: &'static str,
    /// The graph itself.
    pub graph: CsrGraph,
    /// Source vertex for SSSP/BFS/A*.
    pub source: u32,
    /// Target vertex for A* (ignored by the other algorithms).
    pub target: u32,
    /// The seed the set was generated from; `inc-SSSP`'s update batch is
    /// derived from it, so the mutation is part of the input and every
    /// repetition, scheduler and sequential reference repairs the same one.
    pub seed: u64,
}

/// Builds the standard benchmark graphs: two road grids and two power-law
/// graphs at the small and full scales, one small graph of each kind at CI
/// scale, so every workload has a graph that suits it.
///
/// `Scale::Full` grows them by roughly an order of magnitude; even then
/// they remain far smaller than the paper's real datasets (which do not fit
/// a laptop), but the structural regimes — and therefore the scheduler
/// behaviour the paper measures — are preserved.
pub fn standard_graphs(scale: Scale, seed: u64) -> Vec<GraphSpec> {
    // Side of USA, side of WEST, vertices of TWITTER, vertices of WEB.
    let [usa, west, twitter, web] = scale.pick(
        [None, Some(36), Some(1_000), None],
        [Some(56), Some(36), Some(12_000), Some(16_000)],
        [Some(220), Some(140), Some(120_000), Some(150_000)],
    );
    let road = |side: u32, removal_percent: u32, seed: u64| {
        road_network(RoadNetworkParams {
            width: side,
            height: side,
            removal_percent,
            seed,
        })
    };
    let social = |nodes: u32, avg_degree: u32, exponent: f64, seed: u64| {
        power_law(PowerLawParams {
            nodes,
            avg_degree,
            exponent,
            max_weight: 255,
            seed,
        })
    };
    let spec = |name, description, graph: CsrGraph| GraphSpec {
        name,
        description,
        source: 0,
        target: (graph.num_nodes() - 1) as u32,
        graph,
        seed,
    };
    [
        usa.map(|side| {
            spec(
                "USA-like",
                "synthetic road grid standing in for the full USA road network",
                road(side, 10, seed),
            )
        }),
        west.map(|side| {
            spec(
                "WEST-like",
                "smaller synthetic road grid standing in for the western-USA roads",
                road(side, 12, seed ^ 0x11),
            )
        }),
        twitter.map(|nodes| {
            spec(
                "TWITTER-like",
                "power-law follower-style graph, uniform weights in [0,255]",
                social(nodes, 24, 2.1, seed ^ 0x22),
            )
        }),
        web.map(|nodes| {
            spec(
                "WEB-like",
                "power-law web-crawl-style graph, uniform weights in [0,255]",
                social(nodes, 28, 2.3, seed ^ 0x33),
            )
        }),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_has_four_graphs_with_expected_character() {
        let specs = standard_graphs(Scale::Small, 1);
        assert_eq!(specs.len(), 4);
        let usa = &specs[0];
        let twitter = &specs[2];
        assert!(usa.graph.has_coordinates(), "road graphs carry coordinates");
        assert!(usa.graph.avg_degree() < 8.0);
        assert!(twitter.graph.avg_degree() > 10.0);
        // Hubs in a Chung-Lu graph show up as heavy *in*-degrees.
        let mut indeg = vec![0u64; twitter.graph.num_nodes()];
        for e in twitter.graph.edges() {
            indeg[e.to as usize] += 1;
        }
        let max_in = *indeg.iter().max().unwrap() as f64;
        assert!(
            max_in > 10.0 * twitter.graph.avg_degree(),
            "social graph needs hubs (max in-degree {max_in})"
        );
        for spec in &specs {
            assert!((spec.source as usize) < spec.graph.num_nodes());
            assert!((spec.target as usize) < spec.graph.num_nodes());
        }
        // The CI set is one small graph of each kind.
        let ci = standard_graphs(Scale::Ci, 1);
        assert_eq!(ci.len(), 2);
        assert!(ci[0].graph.has_coordinates() && ci[0].graph.avg_degree() <= 10.0);
        assert!(!ci[1].graph.has_coordinates() && ci[1].graph.avg_degree() > 10.0);
    }
}
