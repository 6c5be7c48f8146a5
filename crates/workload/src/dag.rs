//! Job precedence constraints.
//!
//! The paper's future-work item (b): *"evaluating scenarios where jobs
//! have data dependencies and precedence constraints among them and use
//! the framework to measure the scalability based on the RP overhead
//! H(k)"*. This module provides the precedence structure; the simulator
//! releases a job only when all of its parents have completed and charges
//! the data-movement cost of each dependency edge to `H`.

use crate::job::JobId;
use gridscale_desim::SimRng;

/// A DAG over the jobs of one trace, encoded as parent → child edges.
///
/// Acyclicity is guaranteed structurally: every edge must point from a
/// lower job id to a higher one (trace ids are assigned in arrival order,
/// so parents always precede children in time as well).
#[derive(Debug, Clone, PartialEq)]
pub struct DependencyGraph {
    n: usize,
    edges: Vec<(JobId, JobId)>,
    /// children[j] = jobs that depend on j.
    children: Vec<Vec<u32>>,
    /// parent_count[j] = number of jobs j waits for.
    parent_count: Vec<u32>,
}

impl DependencyGraph {
    /// Builds a graph over `n` jobs from explicit edges.
    ///
    /// Returns an error string if any edge is out of range, self-referent,
    /// or points backward (which would allow cycles).
    pub fn new(n: usize, mut edges: Vec<(JobId, JobId)>) -> Result<Self, String> {
        edges.sort_unstable();
        edges.dedup();
        let mut children = vec![Vec::new(); n];
        let mut parent_count = vec![0u32; n];
        for &(p, c) in &edges {
            if p >= c {
                return Err(format!("edge {p} -> {c} is not forward (cycle risk)"));
            }
            if c as usize >= n {
                return Err(format!("edge {p} -> {c} exceeds job count {n}"));
            }
            children[p as usize].push(c as u32);
            parent_count[c as usize] += 1;
        }
        Ok(DependencyGraph {
            n,
            edges,
            children,
            parent_count,
        })
    }

    /// Random layered workflow structure: each job independently becomes a
    /// child of up to `max_parents` uniformly chosen earlier jobs with
    /// probability `edge_prob` per slot. Produces the fork/join-ish shapes
    /// of scientific workflows without long synthetic critical paths.
    pub fn random(n: usize, edge_prob: f64, max_parents: u32, rng: &mut SimRng) -> Self {
        assert!((0.0..=1.0).contains(&edge_prob));
        let mut edges = Vec::new();
        for c in 1..n {
            for _ in 0..max_parents {
                if rng.chance(edge_prob) {
                    // Prefer recent parents: dependencies in workflows are
                    // temporally local (outputs feed the next stage).
                    let window = (c).min(64);
                    let p = c - 1 - rng.index(window);
                    edges.push((p as JobId, c as JobId));
                }
            }
        }
        DependencyGraph::new(n, edges).expect("generated edges are forward by construction")
    }

    /// All edges, sorted and deduplicated.
    pub fn edges(&self) -> &[(JobId, JobId)] {
        &self.edges
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The jobs that depend on `j`.
    pub fn children(&self, j: JobId) -> &[u32] {
        &self.children[j as usize]
    }

    /// How many parents `j` waits for.
    pub fn parent_count(&self, j: JobId) -> u32 {
        self.parent_count[j as usize]
    }

    /// A copy of the parent-count vector (the simulator's countdown state).
    pub fn parent_counts(&self) -> Vec<u32> {
        self.parent_count.clone()
    }

    /// Jobs with no parents — runnable immediately.
    pub fn roots(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.n as JobId).filter(|&j| self.parent_count[j as usize] == 0)
    }

    /// Topological sanity: a valid schedule order exists (trivially true by
    /// construction, checked in debug builds and tests via Kahn's
    /// algorithm).
    pub fn is_acyclic(&self) -> bool {
        let mut indeg = self.parent_count.clone();
        let mut queue: Vec<u32> = (0..self.n as u32)
            .filter(|&j| indeg[j as usize] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(j) = queue.pop() {
            seen += 1;
            for &c in &self.children[j as usize] {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    queue.push(c);
                }
            }
        }
        seen == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_graph_bookkeeping() {
        let g = DependencyGraph::new(4, vec![(0, 2), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.parent_count(2), 2);
        assert_eq!(g.parent_count(0), 0);
        assert_eq!(g.children(2), &[3]);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![0, 1]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn rejects_backward_and_out_of_range_edges() {
        assert!(DependencyGraph::new(3, vec![(2, 1)]).is_err());
        assert!(DependencyGraph::new(3, vec![(1, 1)]).is_err());
        assert!(DependencyGraph::new(3, vec![(0, 5)]).is_err());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = DependencyGraph::new(3, vec![(0, 1), (0, 1), (0, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.parent_count(1), 1);
    }

    #[test]
    fn random_graph_is_valid_and_scaled_by_probability() {
        let mut rng = SimRng::new(42);
        let sparse = DependencyGraph::random(500, 0.1, 2, &mut rng);
        let dense = DependencyGraph::random(500, 0.8, 2, &mut rng);
        assert!(sparse.is_acyclic() && dense.is_acyclic());
        assert!(dense.edge_count() > 3 * sparse.edge_count());
        // Every job id in range.
        for &(p, c) in dense.edges() {
            assert!(p < c && (c as usize) < 500);
        }
    }

    #[test]
    fn zero_probability_means_no_edges() {
        let mut rng = SimRng::new(1);
        let g = DependencyGraph::random(100, 0.0, 3, &mut rng);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.roots().count(), 100);
    }
}
