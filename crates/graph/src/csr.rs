//! Compressed sparse row (CSR) graph representation.
//!
//! All algorithms in `smq-algos` operate on this immutable, cache-friendly
//! layout: one `u32` offset per vertex into one flat array of interleaved
//! `(target, weight)` pairs, so an adjacency scan reads a single stream.
//! Vertex ids, weights and offsets are `u32`, which covers the paper's
//! graphs (≤ 50 M vertices, weights in `[0, 255]` or road lengths, < 2^32
//! edges) while keeping an edge at 8 bytes and a vertex at 4.
//!
//! There is one construction kernel, [`CsrGraph::from_replay`]: it runs a
//! *replayable* edge source twice — once to count degrees, once to place
//! every edge at its source's cursor — so no edge list exists beside the
//! arrays.  [`GraphBuilder`] is the staged front-end for callers that
//! cannot re-run their source (a file reader, a test).

use smq_core::prefetch_read;

use crate::view::GraphView;

/// A directed edge used while building a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub from: u32,
    /// Target vertex.
    pub to: u32,
    /// Non-negative edge weight.
    pub weight: u32,
}

/// Incrementally collects edges and produces a [`CsrGraph`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<Edge>,
    coordinates: Option<Vec<(f64, f64)>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` vertices
    /// (ids `0..num_nodes`).
    pub fn new(num_nodes: u32) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
            coordinates: None,
        }
    }

    /// Adds a directed edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: u32, to: u32, weight: u32) -> &mut Self {
        assert!(
            from < self.num_nodes && to < self.num_nodes,
            "vertex out of range"
        );
        self.edges.push(Edge { from, to, weight });
        self
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected_edge(&mut self, a: u32, b: u32, weight: u32) -> &mut Self {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight)
    }

    /// Attaches planar coordinates (used by A*'s distance heuristic).
    ///
    /// # Panics
    /// Panics if the coordinate count does not match the vertex count.
    pub fn with_coordinates(&mut self, coords: Vec<(f64, f64)>) -> &mut Self {
        assert_eq!(
            coords.len(),
            self.num_nodes as usize,
            "one coordinate per vertex"
        );
        self.coordinates = Some(coords);
        self
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the CSR representation by replaying the staged edges (grouped
    /// by source; stable within a source so insertion order of parallel
    /// edges is preserved).
    pub fn build(self) -> CsrGraph {
        let graph = CsrGraph::from_replay(self.num_nodes, |sink| {
            for e in &self.edges {
                sink.edge(e.from, e.to, e.weight);
            }
        });
        match self.coordinates {
            Some(coords) => graph.with_coordinates(coords),
            None => graph,
        }
    }
}

/// Where a replayed edge source emits its edges (see
/// [`CsrGraph::from_replay`]): the first replay counts each source's
/// degree, the second places each edge at its source's cursor.
#[derive(Debug)]
pub struct EdgeSink {
    /// Per vertex: edges counted so far (first replay), then the next free
    /// slot of its adjacency (second replay).
    cursor: Vec<u32>,
    /// The adjacency array; empty during the first replay.
    adj: Vec<(u32, u32)>,
    emitted: u64,
    /// The largest weight placed so far (second replay only).
    max_weight: u32,
}

impl EdgeSink {
    /// Emits the directed edge `from -> to`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn edge(&mut self, from: u32, to: u32, weight: u32) {
        assert!(
            (from as usize) < self.cursor.len() && (to as usize) < self.cursor.len(),
            "vertex out of range"
        );
        self.emitted += 1;
        let cursor = &mut self.cursor[from as usize];
        if let Some(slot) = self.adj.get_mut(*cursor as usize) {
            *slot = (to, weight);
            self.max_weight = self.max_weight.max(weight);
        }
        *cursor += 1;
    }
}

/// The edge count as an offset.
///
/// # Panics
/// Panics if `edges` does not fit the `u32` offsets.
fn offset_of(edges: u64) -> u32 {
    u32::try_from(edges)
        .unwrap_or_else(|_| panic!("{edges} edges do not fit the CSR's u32 offsets"))
}

/// An immutable directed graph in CSR form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `adj[offsets[v]..offsets[v + 1]]` is the adjacency of vertex `v`.
    offsets: Vec<u32>,
    /// `(target, weight)` of every edge, grouped by source.
    adj: Vec<(u32, u32)>,
    /// Optional planar coordinates per vertex.
    coordinates: Option<Vec<(f64, f64)>>,
    /// The largest edge weight, 0 without edges.
    max_weight: u32,
}

impl CsrGraph {
    /// Builds the graph from a *replayable* edge source: `replay` is called
    /// twice and must emit the same edges in the same order both times (a
    /// generator re-runs its loop from a re-seeded RNG, a container walks
    /// itself again).  Edges are grouped by source and keep their emission
    /// order within a source.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, if the edge count does not
    /// fit the `u32` offsets, or if the second replay differs from the
    /// first in any vertex's degree.
    pub fn from_replay(num_nodes: u32, mut replay: impl FnMut(&mut EdgeSink)) -> CsrGraph {
        let n = num_nodes as usize;
        let mut sink = EdgeSink {
            cursor: vec![0; n],
            adj: Vec::new(),
            emitted: 0,
            max_weight: 0,
        };
        replay(&mut sink);
        let num_edges = offset_of(sink.emitted) as usize;

        // Degrees -> offsets; each cursor moves to the start of its range.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for c in &mut sink.cursor {
            offsets.push(acc);
            acc += std::mem::replace(c, acc);
        }
        offsets.push(acc);

        sink.adj = vec![(0, 0); num_edges];
        replay(&mut sink);
        // Every cursor on the next vertex's offset: each vertex got the
        // edges the first replay counted for it, no more and no fewer.
        assert!(
            sink.cursor[..] == offsets[1..],
            "edge source emitted different edges on its second replay"
        );
        CsrGraph {
            offsets,
            adj: sink.adj,
            coordinates: None,
            max_weight: sink.max_weight,
        }
    }

    /// Attaches planar coordinates (used by A*'s distance heuristic).
    ///
    /// # Panics
    /// Panics if the coordinate count does not match the vertex count.
    pub fn with_coordinates(mut self, coords: Vec<(f64, f64)>) -> CsrGraph {
        assert_eq!(coords.len(), self.num_nodes(), "one coordinate per vertex");
        self.coordinates = Some(coords);
        self
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.adjacency(v).len()
    }

    /// The `(target, weight)` pairs of `v`'s outgoing edges, as stored.
    #[inline]
    pub(crate) fn adjacency(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Iterates over the `(target, weight)` pairs of `v`'s outgoing edges.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adjacency(v).iter().copied()
    }

    /// Hints that [`neighbors(v)`](Self::neighbors) is about to be
    /// scanned: asks for the first cache line of `v`'s adjacency (8 edges —
    /// the whole adjacency of most road vertices).
    /// Accepts any `v`; see `GraphView::prefetch_vertex` for the contract.
    #[inline]
    pub fn prefetch_vertex(&self, v: u32) {
        if let Some(&start) = self.offsets.get(v as usize) {
            prefetch_read(&self.adj, start as usize);
        }
    }

    /// Bytes of heap this graph holds: offsets, adjacency and coordinates.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.adj[..])
            + self.all_coordinates().map_or(0, std::mem::size_of_val)
    }

    /// Planar coordinates of `v`, if the graph carries them.
    #[inline]
    pub fn coordinates(&self, v: u32) -> Option<(f64, f64)> {
        self.coordinates.as_ref().map(|c| c[v as usize])
    }

    /// `true` if the graph carries coordinates for every vertex.
    pub fn has_coordinates(&self) -> bool {
        self.coordinates.is_some()
    }

    /// The full coordinate table, if the graph carries one (used by the
    /// live-graph compactor).
    pub fn all_coordinates(&self) -> Option<&[(f64, f64)]> {
        self.coordinates.as_deref()
    }

    /// The largest edge weight, recorded while the edges were placed; 0
    /// for a graph without edges.
    #[inline]
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Sum of all edge weights (useful for sanity checks in tests).
    pub fn total_weight(&self) -> u64 {
        self.adj.iter().map(|&(_, w)| u64::from(w)).sum()
    }

    /// Returns every edge as an [`Edge`] (used by MST and by tests).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        GraphView::edges(self)
    }

    /// The maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        GraphView::max_degree(self)
    }

    /// The average out-degree.
    pub fn avg_degree(&self) -> f64 {
        GraphView::avg_degree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 3 (2), 2 -> 3 (1)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1)
            .add_edge(0, 2, 4)
            .add_edge(1, 3, 2)
            .add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn builds_expected_csr() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        let n0: Vec<(u32, u32)> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 1), (2, 4)]);
        assert_eq!(g.total_weight(), 8);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_edges_appear_twice() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0).next(), Some((1, 7)));
        assert_eq!(g.neighbors(1).next(), Some((0, 7)));
    }

    #[test]
    fn coordinates_round_trip() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        b.with_coordinates(vec![(0.0, 0.0), (3.0, 4.0)]);
        let g = b.build();
        assert!(g.has_coordinates());
        assert_eq!(g.coordinates(1), Some((3.0, 4.0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        GraphBuilder::new(2).add_edge(0, 2, 1);
    }

    #[test]
    #[should_panic(expected = "one coordinate per vertex")]
    fn wrong_coordinate_count_rejected() {
        GraphBuilder::new(3).with_coordinates(vec![(0.0, 0.0)]);
    }

    #[test]
    fn replay_groups_by_source_in_emission_order() {
        let g = CsrGraph::from_replay(3, |sink| {
            sink.edge(2, 0, 5);
            sink.edge(0, 1, 7);
            sink.edge(2, 1, 6);
            sink.edge(0, 1, 8);
        });
        let edges: Vec<(u32, u32, u32)> = g.edges().map(|e| (e.from, e.to, e.weight)).collect();
        assert_eq!(edges, vec![(0, 1, 7), (0, 1, 8), (2, 0, 5), (2, 1, 6)]);
        assert_eq!(g.degree(1), 0);
    }

    /// A source that is not replayable: call `k` (from 0) emits `calls[k]`.
    fn unstable_source(calls: [&[(u32, u32)]; 2]) -> CsrGraph {
        let mut call = 0;
        CsrGraph::from_replay(3, |sink| {
            for &(from, to) in calls[call] {
                sink.edge(from, to, 1);
            }
            call += 1;
        })
    }

    #[test]
    #[should_panic(expected = "different edges on its second replay")]
    fn second_replay_moving_an_edge_is_rejected() {
        unstable_source([&[(0, 1), (1, 2)], &[(0, 1), (0, 2)]]);
    }

    #[test]
    #[should_panic(expected = "different edges on its second replay")]
    fn second_replay_emitting_fewer_edges_is_rejected() {
        unstable_source([&[(0, 1), (1, 2)], &[(0, 1)]]);
    }

    #[test]
    #[should_panic(expected = "different edges on its second replay")]
    fn second_replay_emitting_past_the_array_is_rejected() {
        unstable_source([&[(0, 1)], &[(0, 1), (2, 0)]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replayed_edge_out_of_range_is_rejected() {
        CsrGraph::from_replay(2, |sink| sink.edge(0, 2, 1));
    }

    #[test]
    fn edge_count_must_fit_the_offsets() {
        assert_eq!(offset_of(u64::from(u32::MAX)), u32::MAX);
        let over = std::panic::catch_unwind(|| offset_of(u64::from(u32::MAX) + 1));
        let message = *over.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(message, "4294967296 edges do not fit the CSR's u32 offsets");
    }

    #[test]
    fn heap_bytes_counts_offsets_adjacency_and_coordinates() {
        let g = diamond();
        assert_eq!(g.heap_bytes(), 5 * 4 + 4 * 8);
        let g = g.with_coordinates(vec![(0.0, 0.0); 4]);
        assert_eq!(g.heap_bytes(), 5 * 4 + 4 * 8 + 4 * 16);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_weight(), 0);
    }

    #[test]
    fn edgeless_graph_reports_max_weight_zero() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.max_weight(), 0);
        assert_eq!(GraphView::max_weight(&g), 0);
    }

    #[test]
    fn edges_iterator_matches_neighbors() {
        let g = diamond();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&Edge {
            from: 2,
            to: 3,
            weight: 1
        }));
    }

    proptest! {
        #[test]
        fn csr_preserves_every_edge(edges in proptest::collection::vec((0u32..50, 0u32..50, 1u32..100), 0..300)) {
            let mut b = GraphBuilder::new(50);
            for &(from, to, w) in &edges {
                b.add_edge(from, to, w);
            }
            let g = b.build();
            prop_assert_eq!(g.num_edges(), edges.len());
            // Per-source multiset of (to, weight) must match.
            for v in 0..50u32 {
                let mut expected: Vec<(u32, u32)> = edges
                    .iter()
                    .filter(|(from, _, _)| *from == v)
                    .map(|&(_, to, w)| (to, w))
                    .collect();
                let mut got: Vec<(u32, u32)> = g.neighbors(v).collect();
                expected.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }

        #[test]
        fn max_weight_is_the_maximum_over_the_edges(
            edges in proptest::collection::vec((0u32..20, 0u32..20, any::<u32>()), 0..80),
        ) {
            let mut b = GraphBuilder::new(20);
            for &(from, to, w) in &edges {
                b.add_edge(from, to, w);
            }
            let g = b.build();
            let expected = g.edges().map(|e| e.weight).max().unwrap_or(0);
            prop_assert_eq!(g.max_weight(), expected);
            prop_assert_eq!(GraphView::max_weight(&&g), expected);
        }
    }
}
