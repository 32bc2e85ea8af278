//! # bc-platform — the heterogeneous platform model
//!
//! The tree platform model of the paper (§2.1): nodes are compute
//! resources with per-task compute times `w_i`, edges carry per-task
//! communication times `c_i`. This crate provides:
//!
//! * [`tree::Tree`] — the arena-based platform tree with validation and
//!   runtime mutation (for the adaptability experiment of §4.2.3), built
//!   from outside input by [`Tree::from_rows`] and pruned by
//!   [`Tree::without_subtrees`];
//! * [`generator::RandomTreeConfig`] — the exact §4.1 random-tree
//!   generator `(m, n, b, d, x)`;
//! * [`examples`] — the concrete trees of Figures 1 and 2;
//! * [`overlay`] — tree-overlay construction over general platform graphs
//!   (the paper's §6 future work);
//! * [`io`] — JSON and Graphviz DOT import/export.
//!
//! ```
//! use bc_platform::{RandomTreeConfig, Tree, NodeId};
//!
//! // A hand-built fork...
//! let mut tree = Tree::new(10);
//! let fast = tree.add_child(NodeId::ROOT, 1, 5);
//! tree.add_child(fast, 2, 7);
//! assert_eq!(tree.len(), 3);
//!
//! // ...and a paper-parameterized random tree.
//! let random = RandomTreeConfig::default().generate(42);
//! assert!(random.len() >= 10 && random.len() <= 500);
//! ```

pub mod examples;
pub mod generator;
pub mod io;
pub mod overlay;
pub mod tree;

pub use generator::RandomTreeConfig;
pub use overlay::PlatformGraph;
pub use tree::{Node, NodeId, Tree, TreeError, UsedStats};
