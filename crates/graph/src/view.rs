//! Read-only graph abstraction shared by every algorithm.
//!
//! [`GraphView`] is the trait the workloads in `smq-algos` are generic
//! over.  [`CsrGraph`] implements it by delegating to its
//! inherent methods, so the static path monomorphizes to exactly the code
//! that existed before the trait (the single-thread replay property tests
//! in `tests/engine_properties.rs` pin this bit-for-bit).  The versioned
//! [`LiveGraph`](crate::LiveGraph) produces pinned
//! [`GraphSnapshot`](crate::GraphSnapshot)s that implement the same trait,
//! so a workload compiled against `GraphView` runs unchanged over a frozen
//! CSR or over a snapshot of a graph receiving concurrent updates.
//!
//! [`GraphSource`] is the companion *pinning* trait used by long-lived
//! services (the route-query engine): `pin()` yields a `GraphView` that is
//! immutable for as long as the caller holds it.  For `CsrGraph` pinning
//! is the identity (`&CsrGraph`, zero cost); for `LiveGraph` it grabs the
//! latest published version.

use crate::csr::{CsrGraph, Edge};

/// An immutable view of a directed graph with `u32` vertex ids and
/// weights.
///
/// The required methods mirror [`CsrGraph`]'s inherent API one-for-one.
/// Implementations must be cheap to query concurrently (`Sync` is a
/// supertrait) and must present a *frozen* graph: two calls observing
/// different topology would break every algorithm built on top.
pub trait GraphView: Sync {
    /// Number of vertices (ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: u32) -> usize;

    /// Iterates over the `(target, weight)` pairs of `v`'s outgoing edges.
    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_;

    /// Planar coordinates of `v`, if the graph carries them.
    fn coordinates(&self, v: u32) -> Option<(f64, f64)>;

    /// `true` if the graph carries coordinates for every vertex.
    fn has_coordinates(&self) -> bool;

    /// An upper bound on every edge weight, which lets a workload size its
    /// per-vertex labels: a shortest path has at most `num_nodes − 1`
    /// edges, so no distance exceeds `max_weight × (num_nodes − 1)`, and no
    /// relaxation (a distance plus one edge) proposes more than
    /// `max_weight × num_nodes`.
    /// [`CsrGraph`] reports its exact maximum (0 without edges).  The
    /// default, `u32::MAX`, means "no bound known"; a
    /// [`LiveGraph`](crate::LiveGraph) snapshot reports it, because its
    /// overlay may carry any weight.
    fn max_weight(&self) -> u32 {
        u32::MAX
    }

    /// The version this view was pinned at.  Static graphs are always
    /// version 0; [`LiveGraph`](crate::LiveGraph) snapshots report the
    /// published version they froze.
    fn version(&self) -> u64 {
        0
    }

    /// Hints that `v`'s adjacency is about to be scanned, so an
    /// implementation may start pulling it into cache.  The worker loop
    /// issues this for every task of a popped batch before processing the
    /// first.  A hint only: it must not write shared state or panic (any
    /// `v` is accepted), and nothing may depend on it being called.  The
    /// default does nothing.
    #[inline]
    fn prefetch_vertex(&self, v: u32) {
        let _ = v;
    }

    /// Returns every edge as an [`Edge`], grouped by source vertex in
    /// `neighbors` order.
    fn edges(&self) -> impl Iterator<Item = Edge> + '_
    where
        Self: Sized,
    {
        (0..self.num_nodes() as u32).flat_map(move |v| {
            self.neighbors(v).map(move |(to, weight)| Edge {
                from: v,
                to,
                weight,
            })
        })
    }

    /// Sum of all edge weights.
    fn total_weight(&self) -> u64
    where
        Self: Sized,
    {
        self.edges().map(|e| u64::from(e.weight)).sum()
    }

    /// The maximum out-degree over all vertices.
    fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The average out-degree.
    fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        CsrGraph::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        CsrGraph::neighbors(self, v)
    }

    #[inline]
    fn coordinates(&self, v: u32) -> Option<(f64, f64)> {
        CsrGraph::coordinates(self, v)
    }

    #[inline]
    fn has_coordinates(&self) -> bool {
        CsrGraph::has_coordinates(self)
    }

    fn total_weight(&self) -> u64 {
        CsrGraph::total_weight(self)
    }

    #[inline]
    fn max_weight(&self) -> u32 {
        CsrGraph::max_weight(self)
    }

    #[inline]
    fn prefetch_vertex(&self, v: u32) {
        CsrGraph::prefetch_vertex(self, v)
    }
}

/// Every shared pointer to a view (`&G`, `Arc<G>`, `Box<G>`) is the view.
impl<P> GraphView for P
where
    P: std::ops::Deref + Sync,
    P::Target: GraphView,
{
    #[inline]
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        (**self).neighbors(v)
    }

    #[inline]
    fn coordinates(&self, v: u32) -> Option<(f64, f64)> {
        (**self).coordinates(v)
    }

    #[inline]
    fn has_coordinates(&self) -> bool {
        (**self).has_coordinates()
    }

    #[inline]
    fn max_weight(&self) -> u32 {
        (**self).max_weight()
    }

    #[inline]
    fn version(&self) -> u64 {
        (**self).version()
    }

    #[inline]
    fn prefetch_vertex(&self, v: u32) {
        (**self).prefetch_vertex(v)
    }
}

/// A graph a service can repeatedly *pin* for consistent reads.
///
/// `pin()` returns an immutable [`GraphView`] frozen at the moment of the
/// call; concurrent updates to the source never show through an
/// already-pinned view.  For [`CsrGraph`] pinning is the identity
/// reference (no overhead on the static path); for
/// [`LiveGraph`](crate::LiveGraph) it acquires the latest published
/// [`GraphSnapshot`](crate::GraphSnapshot).
pub trait GraphSource: Sync {
    /// The view type `pin` produces.
    type View<'a>: GraphView
    where
        Self: 'a;

    /// Pins the current version of the graph.
    fn pin(&self) -> Self::View<'_>;

    /// Number of vertices — stable across versions (updates may add
    /// edges, never vertices).
    fn source_num_nodes(&self) -> usize;
}

impl GraphSource for CsrGraph {
    type View<'a> = &'a CsrGraph;

    #[inline]
    fn pin(&self) -> &CsrGraph {
        self
    }

    #[inline]
    fn source_num_nodes(&self) -> usize {
        self.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1)
            .add_edge(0, 2, 4)
            .add_edge(1, 3, 2)
            .add_edge(2, 3, 1);
        b.build()
    }

    fn summarize<G: GraphView>(g: &G) -> (usize, usize, u64, usize, Vec<(u32, u32)>) {
        (
            g.num_nodes(),
            g.num_edges(),
            g.total_weight(),
            g.max_degree(),
            g.neighbors(0).collect(),
        )
    }

    #[test]
    fn trait_view_matches_inherent_api() {
        let g = diamond();
        let (n, m, w, d, n0) = summarize(&g);
        assert_eq!(n, 4);
        assert_eq!(m, 4);
        assert_eq!(w, 8);
        assert_eq!(d, 2);
        assert_eq!(n0, vec![(1, 1), (2, 4)]);
        assert_eq!(GraphView::version(&g), 0);
        let edges: Vec<Edge> = GraphView::edges(&g).collect();
        let inherent: Vec<Edge> = CsrGraph::edges(&g).collect();
        assert_eq!(edges, inherent);
    }

    #[test]
    fn reference_and_arc_views_delegate() {
        let g = std::sync::Arc::new(diamond());
        assert_eq!(summarize(&g), summarize(&&*g));
        assert_eq!(summarize(&g), summarize(&*g));
    }

    #[test]
    fn csr_pins_as_identity() {
        let g = diamond();
        let view = g.pin();
        assert_eq!(view.num_edges(), 4);
        assert_eq!(g.source_num_nodes(), 4);
    }
}
