//! The broker graph: an acyclic overlay of routers.
//!
//! Content-based routing networks in the Siena tradition run over a
//! **spanning tree** of brokers: acyclicity makes reverse-path forwarding
//! loop-free without per-message duplicate suppression, and the covering
//! relation then prunes subscription propagation per link. [`Topology`]
//! models that tree as an undirected adjacency structure, validated at
//! construction (connected, exactly `n − 1` edges, no self-loops or
//! duplicates).
//!
//! Routers are identified by dense indices `0..n`; the fabric maps them to
//! attested broker instances.

use crate::error::OverlayError;

/// An undirected, connected, acyclic broker graph (a tree).
#[derive(Debug, Clone)]
pub struct Topology {
    adj: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds and validates a tree over routers `0..n` from an edge list.
    ///
    /// # Errors
    ///
    /// [`OverlayError::Topology`] when `n == 0`, an endpoint is out of
    /// range, an edge is a self-loop or duplicate, the edge count is not
    /// `n − 1`, or the graph is disconnected.
    pub fn tree(n: usize, edges: &[(usize, usize)]) -> Result<Self, OverlayError> {
        if n == 0 {
            return Err(OverlayError::Topology { reason: "no routers" });
        }
        if edges.len() != n - 1 {
            return Err(OverlayError::Topology { reason: "a tree has exactly n-1 edges" });
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n {
                return Err(OverlayError::Topology { reason: "edge endpoint out of range" });
            }
            if a == b {
                return Err(OverlayError::Topology { reason: "self-loop" });
            }
            if adj[a].contains(&b) {
                return Err(OverlayError::Topology { reason: "duplicate edge" });
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        for neighbors in &mut adj {
            neighbors.sort_unstable();
        }
        let topology = Topology { adj };
        // n-1 edges + connected ⇒ acyclic.
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for &next in topology.neighbors(r) {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(OverlayError::Topology { reason: "disconnected graph" });
        }
        Ok(topology)
    }

    /// A chain `0 — 1 — … — n-1` (the deepest tree: `n − 1` hops
    /// end-to-end).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::tree(n, &edges).expect("a line is a tree")
    }

    /// A star with router 0 at the centre (the shallowest tree).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    // lint: allow(SL08, tests/failover.rs and tests/overlay_e2e.rs build star topologies with it)
    pub fn star(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Topology::tree(n, &edges).expect("a star is a tree")
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.adj.len()
    }

    /// The neighbours of router `r`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn neighbors(&self, r: usize) -> &[usize] {
        &self.adj[r]
    }

    /// Hop count of the longest shortest path (the tree diameter).
    pub fn diameter(&self) -> usize {
        // Two BFS sweeps: farthest from 0, then farthest from there.
        let far = |start: usize| -> (usize, usize) {
            let mut dist = vec![usize::MAX; self.routers()];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            let mut best = (start, 0);
            while let Some(r) = queue.pop_front() {
                if dist[r] > best.1 {
                    best = (r, dist[r]);
                }
                for &next in self.neighbors(r) {
                    if dist[next] == usize::MAX {
                        dist[next] = dist[r] + 1;
                        queue.push_back(next);
                    }
                }
            }
            best
        };
        let (end, _) = far(0);
        far(end).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_star_shapes() {
        let line = Topology::line(4);
        assert_eq!(line.routers(), 4);
        assert_eq!(line.neighbors(0), &[1]);
        assert_eq!(line.neighbors(1), &[0, 2]);
        assert_eq!(line.neighbors(3), &[2]);
        assert_eq!(line.diameter(), 3);

        let star = Topology::star(5);
        assert_eq!(star.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(star.neighbors(3), &[0]);
        assert_eq!(star.diameter(), 2);
    }

    #[test]
    fn single_router_is_a_tree() {
        let t = Topology::tree(1, &[]).unwrap();
        assert_eq!(t.routers(), 1);
        assert!(t.neighbors(0).is_empty());
        assert_eq!(t.diameter(), 0);
    }

    #[test]
    fn invalid_graphs_rejected() {
        assert!(Topology::tree(0, &[]).is_err());
        // Wrong edge count.
        assert!(Topology::tree(3, &[(0, 1)]).is_err());
        // Self-loop.
        assert!(Topology::tree(2, &[(1, 1)]).is_err());
        // Out of range.
        assert!(Topology::tree(2, &[(0, 2)]).is_err());
        // Duplicate edge (cycle of multiplicity 2).
        assert!(Topology::tree(3, &[(0, 1), (1, 0)]).is_err());
        // Cycle + disconnected node.
        assert!(Topology::tree(4, &[(0, 1), (1, 2), (2, 0)]).is_err());
    }

    #[test]
    fn a_branched_tree_measures_its_longest_path() {
        // 0-1-3-4 and 2-1-3-4 are the longest paths.
        let t = Topology::tree(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        assert_eq!(t.diameter(), 3);
    }
}
