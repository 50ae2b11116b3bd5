//! Graph substrate for the evaluation: CSR graphs, DIMACS IO, and synthetic
//! generators standing in for the paper's input graphs (Table 1).
//!
//! The paper benchmarks on four real graphs — the USA and Western-USA road
//! networks (DIMACS shortest-path challenge) and the Twitter / `.sk` web
//! crawls.  Those datasets are multi-gigabyte downloads, so this crate ships
//! (a) a [`dimacs`] reader able to load the real files when available, and
//! (b) [`generators`] that synthesize graphs with the same structural
//! character: spatially embedded, low-degree, high-diameter *road networks*
//! and heavy-tailed, low-diameter *social/web graphs*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod dimacs;
pub mod generators;
pub mod live;
pub mod view;

pub use csr::{CsrGraph, Edge, EdgeSink, GraphBuilder};
pub use live::{GraphSnapshot, GraphUpdate, LiveGraph};
pub use view::{GraphSource, GraphView};

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;
