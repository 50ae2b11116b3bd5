//! Compressed sparse row (CSR) graph representation.
//!
//! All algorithms in `smq-algos` operate on this immutable, cache-friendly
//! layout: one offset array indexed by vertex, one flat array of
//! `(target, weight)` pairs.  Vertex ids and weights are `u32`, which covers
//! the paper's graphs (≤ 50 M vertices, weights in `[0, 255]` or road
//! lengths) while keeping an edge at 8 bytes.

use smq_core::prefetch_read;

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

    /// Builds the CSR representation (sorts edges by source; stable within a
    /// source so insertion order of parallel edges is preserved).
    pub fn build(self) -> CsrGraph {
        let n = self.num_nodes as usize;
        let mut degree = vec![0u32; n];
        for e in &self.edges {
            degree[e.from as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0u64);
        for d in &degree {
            acc += u64::from(*d);
            offsets.push(acc);
        }
        let mut targets = vec![0u32; self.edges.len()];
        let mut weights = vec![0u32; self.edges.len()];
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for e in &self.edges {
            let idx = cursor[e.from as usize] as usize;
            targets[idx] = e.to;
            weights[idx] = e.weight;
            cursor[e.from as usize] += 1;
        }
        CsrGraph {
            offsets,
            targets,
            weights,
            coordinates: self.coordinates,
        }
    }
}

/// An immutable directed graph in CSR form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<u64>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    /// Optional planar coordinates per vertex.
    coordinates: Option<Vec<(f64, f64)>>,
}

impl CsrGraph {
    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterates over the `(target, weight)` pairs of `v`'s outgoing edges.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        self.targets[start..end]
            .iter()
            .copied()
            .zip(self.weights[start..end].iter().copied())
    }

    /// Hints that [`neighbors(v)`](Self::neighbors) is about to be
    /// scanned: asks for the first cache line of `v`'s targets and of its
    /// weights (16 edges each — the whole adjacency of most vertices).
    /// Accepts any `v`; see `GraphView::prefetch_vertex` for the contract.
    #[inline]
    pub fn prefetch_vertex(&self, v: u32) {
        if let Some(&start) = self.offsets.get(v as usize) {
            prefetch_read(&self.targets, start as usize);
            prefetch_read(&self.weights, start as usize);
        }
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
    /// live-graph compactor and the DIMACS `.co` writer).
    pub fn all_coordinates(&self) -> Option<&[(f64, f64)]> {
        self.coordinates.as_deref()
    }

    /// Sum of all edge weights (useful for sanity checks in tests).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| u64::from(w)).sum()
    }

    /// Returns every edge as an [`Edge`] (used by MST and by tests).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |v| {
            self.neighbors(v).map(move |(to, weight)| Edge {
                from: v,
                to,
                weight,
            })
        })
    }

    /// The maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
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
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
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
    }
}
