//! The tree platform model `T = (V, E, w, c)` of §2.1.
//!
//! Nodes are compute resources; the edge to a node's parent is its network
//! connection. `compute_time` (the paper's `w_i`) is the time to execute
//! one task on the node; `comm_time` (the paper's `c_i`) is the time to
//! move one task's data (input and returned output combined) across the
//! edge from the parent. Both are integer timesteps, matching the paper's
//! simulation parameters.

use serde::{object, DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Index of a node in a [`Tree`] arena. The root is always `NodeId(0)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

// Wire format: a `NodeId` is a bare JSON number (as the real serde derive
// produces for a newtype struct).
impl Serialize for NodeId {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for NodeId {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u32::from_value(v).map(NodeId)
    }
}

impl NodeId {
    /// The root node's id.
    pub const ROOT: NodeId = NodeId(0);

    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One compute resource in the platform tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Parent in the overlay; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children, in id order (the protocol layer re-sorts by priority).
    pub children: Vec<NodeId>,
    /// `w_i`: timesteps to compute one task. Always ≥ 1.
    pub compute_time: u64,
    /// `c_i`: timesteps to transfer one task over the edge from the parent.
    /// Always ≥ 1 for non-root nodes; 0 for the root (no parent edge).
    pub comm_time: u64,
}

impl Serialize for Node {
    fn to_value(&self) -> Value {
        object(vec![
            ("parent", self.parent.to_value()),
            ("children", self.children.to_value()),
            ("compute_time", self.compute_time.to_value()),
            ("comm_time", self.comm_time.to_value()),
        ])
    }
}

impl Deserialize for Node {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Node {
            parent: serde::field(v, "parent")?,
            children: serde::field(v, "children")?,
            compute_time: serde::field(v, "compute_time")?,
            comm_time: serde::field(v, "comm_time")?,
        })
    }
}

/// A node-weighted, edge-weighted platform tree.
///
/// Invariants (checked by [`Tree::validate`], and preserved by every
/// mutator): node 0 is the root, each non-root node's parent has a smaller
/// arena position only by construction of the builders (not required),
/// parent/child links are mutually consistent, `compute_time ≥ 1`
/// everywhere, `comm_time ≥ 1` on non-root nodes.
#[derive(Clone, Debug)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        object(vec![("nodes", self.nodes.to_value())])
    }
}

impl Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Tree {
            nodes: serde::field(v, "nodes")?,
        })
    }
}

/// Errors surfaced by [`Tree::validate`] (after deserializing untrusted
/// data, for instance) and by [`Tree::from_rows`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    Empty,
    ParentNotBefore { node: NodeId, parent: usize },
    RootHasParent,
    MultipleRoots { second: NodeId },
    BadParentLink { node: NodeId },
    BadChildLink { node: NodeId, child: NodeId },
    ZeroComputeTime { node: NodeId },
    ZeroCommTime { node: NodeId },
    Cycle { node: NodeId },
    DanglingId { node: NodeId },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree has no nodes"),
            TreeError::RootHasParent => write!(f, "node 0 has a parent"),
            TreeError::ParentNotBefore { node, parent } => {
                write!(f, "{node} names parent {parent}, which does not precede it")
            }
            TreeError::MultipleRoots { second } => {
                write!(f, "{second} has no parent but is not node 0")
            }
            TreeError::BadParentLink { node } => {
                write!(f, "{node} is not listed among its parent's children")
            }
            TreeError::BadChildLink { node, child } => {
                write!(f, "{child} is a child of {node} but points elsewhere")
            }
            TreeError::ZeroComputeTime { node } => {
                write!(f, "{node} has compute_time 0")
            }
            TreeError::ZeroCommTime { node } => write!(f, "{node} has comm_time 0"),
            TreeError::Cycle { node } => write!(f, "{node} is part of a parent cycle"),
            TreeError::DanglingId { node } => write!(f, "{node} refers outside the arena"),
        }
    }
}

impl std::error::Error for TreeError {}

impl Tree {
    /// Creates a tree containing only a root with the given compute time.
    ///
    /// The root is the data repository: it both computes tasks and feeds
    /// its subtrees. Panics on a zero weight, so it is for callers whose
    /// weights are already known good; weights from outside the program
    /// go through [`Tree::from_rows`].
    pub fn new(root_compute_time: u64) -> Self {
        assert!(root_compute_time >= 1, "compute_time must be >= 1");
        Tree {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                compute_time: root_compute_time,
                comm_time: 0,
            }],
        }
    }

    /// Adds a child under `parent` with edge weight `comm_time` and node
    /// weight `compute_time`; returns its id. Panics on an unknown parent
    /// or a zero weight, like [`Tree::new`].
    pub fn add_child(&mut self, parent: NodeId, comm_time: u64, compute_time: u64) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "unknown parent {parent}");
        assert!(comm_time >= 1, "comm_time must be >= 1");
        assert!(compute_time >= 1, "compute_time must be >= 1");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            compute_time,
            comm_time,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Builds a tree from explicit rows: the root's compute time, then
    /// row `k` as node `k + 1`'s `(parent, comm_time, compute_time)`.
    /// Every parent precedes its child and every weight is ≥ 1, or the
    /// first offending node is named in the error. This is the one
    /// builder for trees from outside the program (requests, reproducer
    /// specs, snapshot bytes); it accepts exactly the trees
    /// [`Tree::new`] and [`Tree::add_child`] build.
    pub fn from_rows(
        root_compute_time: u64,
        rows: &[(usize, u64, u64)],
    ) -> Result<Tree, TreeError> {
        if root_compute_time == 0 {
            return Err(TreeError::ZeroComputeTime { node: NodeId::ROOT });
        }
        let mut tree = Tree::new(root_compute_time);
        tree.nodes.reserve(rows.len());
        for (k, &(parent, comm_time, compute_time)) in rows.iter().enumerate() {
            let node = NodeId(k as u32 + 1);
            if parent > k {
                return Err(TreeError::ParentNotBefore { node, parent });
            }
            if comm_time == 0 {
                return Err(TreeError::ZeroCommTime { node });
            }
            if compute_time == 0 {
                return Err(TreeError::ZeroComputeTime { node });
            }
            tree.add_child(NodeId(parent as u32), comm_time, compute_time);
        }
        Ok(tree)
    }

    /// The tree without the subtrees rooted at `removed` (several roots,
    /// possibly nested): the platform left when those nodes leave and
    /// take their descendants with them (§3). The remaining nodes are
    /// renumbered in preorder, each child list keeping its order.
    /// Panics if `removed` holds the root (removing the repository
    /// removes the application).
    pub fn without_subtrees(&self, removed: &[NodeId]) -> Tree {
        assert!(
            !removed.contains(&NodeId::ROOT),
            "cannot remove the repository"
        );
        let mut out = Tree::new(self.root().compute_time);
        // (old id, new id of its parent), popped in preorder.
        let mut stack = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((id, new_parent)) = stack.pop() {
            let new_id = match id {
                NodeId::ROOT => NodeId::ROOT,
                _ if removed.contains(&id) => continue,
                _ => out.add_child(new_parent, self.comm_time(id), self.compute_time(id)),
            };
            stack.extend(self.children(id).iter().rev().map(|&c| (c, new_id)));
        }
        out
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The root's compute time; `w_0`.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Iterates ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Children of `id`.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// True if `id` has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    /// `w_id`.
    pub fn compute_time(&self, id: NodeId) -> u64 {
        self.nodes[id.index()].compute_time
    }

    /// `c_id` (0 for the root).
    pub fn comm_time(&self, id: NodeId) -> u64 {
        self.nodes[id.index()].comm_time
    }

    /// Updates `w_id` (models processor contention changes, §4.2.3).
    pub fn set_compute_time(&mut self, id: NodeId, w: u64) {
        assert!(w >= 1, "compute_time must be >= 1");
        self.nodes[id.index()].compute_time = w;
    }

    /// Updates `c_id` (models communication contention changes, §4.2.3).
    /// Panics on the root, which has no parent edge.
    pub fn set_comm_time(&mut self, id: NodeId, c: u64) {
        assert!(id != NodeId::ROOT, "root has no parent edge");
        assert!(c >= 1, "comm_time must be >= 1");
        self.nodes[id.index()].comm_time = c;
    }

    /// Depth of a node (root = 0).
    pub fn node_depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur.index()].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum node depth in the tree (a path tree of n nodes has depth
    /// n−1; the paper's "depth" of a tree, Fig 6(b)).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        // Arena order is not guaranteed topological; walk via parents with
        // memoization instead.
        for id in self.ids() {
            let mut chain = Vec::new();
            let mut cur = id;
            while depth[cur.index()] == 0 && self.nodes[cur.index()].parent.is_some() {
                chain.push(cur);
                cur = self.nodes[cur.index()].parent.unwrap();
            }
            let mut d = depth[cur.index()];
            for &n in chain.iter().rev() {
                d += 1;
                depth[n.index()] = d;
            }
            max = max.max(depth[id.index()]);
        }
        max
    }

    /// Ids in post-order (every child before its parent). The root is last.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with an explicit visit marker.
        let mut stack: Vec<(NodeId, bool)> = vec![(NodeId::ROOT, false)];
        while let Some((id, visited)) = stack.pop() {
            if visited {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in self.children(id).iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Ids in pre-order (parent before children), root first.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            order.push(id);
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Checks every structural invariant; intended after deserialization.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        let n = self.nodes.len();
        let in_range = |id: NodeId| id.index() < n;
        if self.nodes[0].parent.is_some() {
            return Err(TreeError::RootHasParent);
        }
        for (id, node) in self.iter() {
            if node.compute_time == 0 {
                return Err(TreeError::ZeroComputeTime { node: id });
            }
            match node.parent {
                None => {
                    if id != NodeId::ROOT {
                        return Err(TreeError::MultipleRoots { second: id });
                    }
                }
                Some(p) => {
                    if !in_range(p) {
                        return Err(TreeError::DanglingId { node: id });
                    }
                    if node.comm_time == 0 {
                        return Err(TreeError::ZeroCommTime { node: id });
                    }
                    if !self.nodes[p.index()].children.contains(&id) {
                        return Err(TreeError::BadParentLink { node: id });
                    }
                }
            }
            for &c in &node.children {
                if !in_range(c) {
                    return Err(TreeError::DanglingId { node: id });
                }
                if self.nodes[c.index()].parent != Some(id) {
                    return Err(TreeError::BadChildLink { node: id, child: c });
                }
            }
        }
        // Reachability from the root doubles as the acyclicity check: with
        // consistent parent/child links, n reachable nodes ⇒ no cycle.
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::ROOT];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            count += 1;
            stack.extend(self.children(id).iter().copied());
        }
        if count != n {
            let node = (0..n).find(|&i| !seen[i]).map(|i| NodeId(i as u32));
            return Err(TreeError::Cycle {
                node: node.expect("count < n implies an unseen node"),
            });
        }
        Ok(())
    }

    /// Size and depth restricted to a subset of "used" nodes (Fig 6): the
    /// subtree induced by keeping every used node and its ancestors.
    pub fn used_subtree_stats(&self, used: &[bool]) -> UsedStats {
        assert_eq!(used.len(), self.nodes.len());
        let mut kept = vec![false; self.nodes.len()];
        for id in self.ids() {
            if used[id.index()] {
                let mut cur = Some(id);
                while let Some(c) = cur {
                    if kept[c.index()] {
                        break;
                    }
                    kept[c.index()] = true;
                    cur = self.parent(c);
                }
            }
        }
        let size = kept.iter().filter(|&&k| k).count();
        let depth = self
            .ids()
            .filter(|id| kept[id.index()])
            .map(|id| self.node_depth(id))
            .max()
            .unwrap_or(0);
        UsedStats { size, depth }
    }
}

/// Size/depth of the ancestor-closed hull of the used nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UsedStats {
    /// Number of nodes kept (used nodes plus the ancestors that relay to
    /// them).
    pub size: usize,
    /// Maximum depth among kept nodes.
    pub depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Tree {
        let mut t = Tree::new(10);
        let mut cur = NodeId::ROOT;
        for _ in 1..n {
            cur = t.add_child(cur, 2, 10);
        }
        t
    }

    #[test]
    fn build_and_query() {
        let mut t = Tree::new(7);
        let a = t.add_child(NodeId::ROOT, 1, 3);
        let b = t.add_child(NodeId::ROOT, 5, 2);
        let c = t.add_child(a, 2, 9);
        assert_eq!(t.len(), 4);
        assert_eq!(t.children(NodeId::ROOT), &[a, b]);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.parent(NodeId::ROOT), None);
        assert_eq!(t.compute_time(NodeId::ROOT), 7);
        assert_eq!(t.comm_time(b), 5);
        assert!(t.is_leaf(c));
        assert!(!t.is_leaf(a));
        assert_eq!(t.node_depth(c), 2);
        assert_eq!(t.depth(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::new(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.postorder(), vec![NodeId::ROOT]);
        t.validate().unwrap();
    }

    #[test]
    fn chain_depth() {
        let t = chain(50);
        assert_eq!(t.depth(), 49);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn postorder_children_first() {
        let mut t = Tree::new(1);
        let a = t.add_child(NodeId::ROOT, 1, 1);
        let b = t.add_child(NodeId::ROOT, 1, 1);
        let c = t.add_child(a, 1, 1);
        let order = t.postorder();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(c) < pos(a));
        assert!(pos(a) < pos(NodeId::ROOT));
        assert!(pos(b) < pos(NodeId::ROOT));
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), NodeId::ROOT);
    }

    #[test]
    fn preorder_parent_first() {
        let mut t = Tree::new(1);
        let a = t.add_child(NodeId::ROOT, 1, 1);
        let c = t.add_child(a, 1, 1);
        let order = t.preorder();
        assert_eq!(order[0], NodeId::ROOT);
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(c));
    }

    #[test]
    fn mutation_for_adaptability() {
        let mut t = Tree::new(5);
        let a = t.add_child(NodeId::ROOT, 1, 3);
        t.set_comm_time(a, 3);
        t.set_compute_time(a, 1);
        assert_eq!(t.comm_time(a), 3);
        assert_eq!(t.compute_time(a), 1);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "root has no parent edge")]
    fn cannot_set_root_comm_time() {
        let mut t = Tree::new(5);
        t.set_comm_time(NodeId::ROOT, 3);
    }

    #[test]
    #[should_panic(expected = "comm_time must be >= 1")]
    fn zero_comm_time_rejected() {
        let mut t = Tree::new(5);
        t.add_child(NodeId::ROOT, 0, 3);
    }

    #[test]
    fn validate_catches_broken_links() {
        // Round-trip through JSON then corrupt the parent pointer.
        let mut t = Tree::new(5);
        let a = t.add_child(NodeId::ROOT, 1, 3);
        let _b = t.add_child(a, 1, 3);
        let json = serde_json::to_string(&t).unwrap();
        let corrupted = json.replace("\"parent\":0", "\"parent\":2");
        assert_ne!(json, corrupted, "fixture must actually change");
        let bad: Tree = serde_json::from_str(&corrupted).unwrap();
        assert!(bad.validate().is_err());
    }

    /// The rows that rebuild `t`: each non-root node's parent and weights
    /// in id order.
    fn rows(t: &Tree) -> Vec<(usize, u64, u64)> {
        t.ids()
            .skip(1)
            .map(|id| {
                let parent = t.parent(id).unwrap().index();
                (parent, t.comm_time(id), t.compute_time(id))
            })
            .collect()
    }

    #[test]
    fn from_rows_rejects_each_malformed_row() {
        let err = |root, rows: &[(usize, u64, u64)]| Tree::from_rows(root, rows).unwrap_err();
        assert_eq!(
            err(0, &[]),
            TreeError::ZeroComputeTime { node: NodeId::ROOT }
        );
        assert_eq!(
            err(5, &[(0, 1, 1), (1, 0, 1)]),
            TreeError::ZeroCommTime { node: NodeId(2) }
        );
        assert_eq!(
            err(5, &[(0, 1, 0)]),
            TreeError::ZeroComputeTime { node: NodeId(1) }
        );
        // Row 1 is node 2: its parent must be node 0 or 1.
        let late = err(5, &[(0, 1, 1), (2, 1, 1)]);
        assert_eq!(
            late,
            TreeError::ParentNotBefore {
                node: NodeId(2),
                parent: 2
            }
        );
        assert!(late.to_string().contains("does not precede"), "{late}");
        assert_eq!(
            err(5, &[(usize::MAX, 1, 1)]),
            TreeError::ParentNotBefore {
                node: NodeId(1),
                parent: usize::MAX
            }
        );
    }

    #[test]
    fn from_rows_accepts_exactly_the_trees_add_child_builds() {
        let mut built = vec![Tree::new(1), chain(6), crate::examples::fig1_tree()];
        built.extend((0..8).map(|seed| crate::RandomTreeConfig::default().generate(seed)));
        for t in built {
            let back = Tree::from_rows(t.compute_time(NodeId::ROOT), &rows(&t)).unwrap();
            back.validate().unwrap();
            assert_eq!(format!("{back:?}"), format!("{t:?}"));
        }
    }

    #[test]
    fn without_subtrees_renumbers_in_preorder() {
        // Arena order differs from preorder: root's children P1..P3 come
        // first, grandchildren after.
        let mut t = Tree::new(10);
        let a = t.add_child(NodeId::ROOT, 2, 5);
        let d = t.add_child(NodeId::ROOT, 4, 9);
        let g = t.add_child(NodeId::ROOT, 5, 3);
        let b = t.add_child(a, 3, 7);
        let _e = t.add_child(a, 6, 8);
        let c = t.add_child(b, 1, 4);
        let _f = t.add_child(d, 2, 2);
        let _h = t.add_child(g, 7, 6);
        // Several roots, one nested inside another's subtree.
        let cut = t.without_subtrees(&[b, c, g]);
        cut.validate().unwrap();
        // Left: root, a, e, d, f, numbered in that (pre)order.
        let expected = Tree::from_rows(10, &[(0, 2, 5), (1, 6, 8), (0, 4, 9), (3, 2, 2)]).unwrap();
        assert_eq!(format!("{cut:?}"), format!("{expected:?}"));
        // Removing nothing renumbers in preorder too.
        let all = t.without_subtrees(&[]);
        let expected = Tree::from_rows(
            10,
            &[
                (0, 2, 5),
                (1, 3, 7),
                (2, 1, 4),
                (1, 6, 8),
                (0, 4, 9),
                (5, 2, 2),
                (0, 5, 3),
                (7, 7, 6),
            ],
        )
        .unwrap();
        assert_eq!(format!("{all:?}"), format!("{expected:?}"));
    }

    #[test]
    fn without_subtrees_preserves_validity_and_counts() {
        let t = crate::examples::fig1_tree();
        // Remove P1 (and its two leaves): 8 → 5 nodes.
        let cut = t.without_subtrees(&[NodeId(1)]);
        cut.validate().unwrap();
        assert_eq!(cut.len(), 5);
        // Remove a leaf: 8 → 7.
        let leaf = t.ids().find(|&id| t.is_leaf(id)).unwrap();
        assert_eq!(t.without_subtrees(&[leaf]).len(), 7);
    }

    #[test]
    fn without_subtrees_drops_a_crashed_subtree() {
        let mut tree = Tree::new(10);
        let a = tree.add_child(NodeId::ROOT, 2, 5);
        let b = tree.add_child(a, 3, 7);
        let _c = tree.add_child(b, 1, 4);
        let _d = tree.add_child(NodeId::ROOT, 4, 9);
        let surv = tree.without_subtrees(&[b]);
        assert_eq!(surv.len(), 3); // root, a, d — b's subtree gone
        assert_eq!(surv.comm_time(NodeId(1)), 2);
        assert_eq!(surv.comm_time(NodeId(2)), 4);
    }

    #[test]
    #[should_panic(expected = "cannot remove the repository")]
    fn without_subtrees_cannot_remove_root() {
        let _ = crate::examples::fig1_tree().without_subtrees(&[NodeId(2), NodeId::ROOT]);
    }

    #[test]
    fn used_subtree_includes_relay_ancestors() {
        // root - a - b, plus root - c. Only b used ⇒ hull {root, a, b}.
        let mut t = Tree::new(1);
        let a = t.add_child(NodeId::ROOT, 1, 1);
        let b = t.add_child(a, 1, 1);
        let _c = t.add_child(NodeId::ROOT, 1, 1);
        let mut used = vec![false; t.len()];
        used[b.index()] = true;
        let stats = t.used_subtree_stats(&used);
        assert_eq!(stats.size, 3);
        assert_eq!(stats.depth, 2);
    }

    #[test]
    fn used_subtree_none_used() {
        let t = chain(5);
        let stats = t.used_subtree_stats(&[false; 5]);
        assert_eq!(stats.size, 0);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = Tree::new(7);
        let a = t.add_child(NodeId::ROOT, 1, 3);
        t.add_child(a, 4, 9);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.comm_time(a), 1);
    }
}
