//! The benchmark input graphs (synthetic stand-ins for Table 1).

use smq_graph::generators::{power_law, road_network, PowerLawParams, RoadNetworkParams};
use smq_graph::CsrGraph;

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
}

/// Builds the four standard benchmark graphs.
///
/// `full_scale` grows them by roughly an order of magnitude; even then they
/// remain far smaller than the paper's real datasets (which do not fit a
/// laptop), but the structural regimes — and therefore the scheduler
/// behaviour the paper measures — are preserved.  See DESIGN.md.
pub fn standard_graphs(full_scale: bool, seed: u64) -> Vec<GraphSpec> {
    let (road_big, road_small, social_nodes, web_nodes) = if full_scale {
        (220u32, 140u32, 120_000u32, 150_000u32)
    } else {
        (56u32, 36u32, 12_000u32, 16_000u32)
    };

    let usa = road_network(RoadNetworkParams {
        width: road_big,
        height: road_big,
        removal_percent: 10,
        seed,
    });
    let west = road_network(RoadNetworkParams {
        width: road_small,
        height: road_small,
        removal_percent: 12,
        seed: seed ^ 0x11,
    });
    let twitter = power_law(PowerLawParams {
        nodes: social_nodes,
        avg_degree: 24,
        exponent: 2.1,
        max_weight: 255,
        seed: seed ^ 0x22,
    });
    let web = power_law(PowerLawParams {
        nodes: web_nodes,
        avg_degree: 28,
        exponent: 2.3,
        max_weight: 255,
        seed: seed ^ 0x33,
    });

    let corner = |g: &CsrGraph| (g.num_nodes() - 1) as u32;
    vec![
        GraphSpec {
            name: "USA-like",
            description: "synthetic road grid standing in for the full USA road network",
            source: 0,
            target: corner(&usa),
            graph: usa,
        },
        GraphSpec {
            name: "WEST-like",
            description: "smaller synthetic road grid standing in for the western-USA roads",
            source: 0,
            target: corner(&west),
            graph: west,
        },
        GraphSpec {
            name: "TWITTER-like",
            description: "power-law follower-style graph, uniform weights in [0,255]",
            source: 0,
            target: corner(&twitter),
            graph: twitter,
        },
        GraphSpec {
            name: "WEB-like",
            description: "power-law web-crawl-style graph, uniform weights in [0,255]",
            source: 0,
            target: corner(&web),
            graph: web,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_has_four_graphs_with_expected_character() {
        let specs = standard_graphs(false, 1);
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
    }
}
