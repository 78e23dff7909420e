//! Network simplex for the transportation form of winner determination.
//!
//! This is the crate's scalable "LP" solver: the simplex method specialised
//! to the assignment polytope. The winner-determination LP is modelled as a
//! balanced transportation problem:
//!
//! * sources: the `n` advertisers (supply 1 each) plus a *dummy advertiser*
//!   with supply `k` (it "fills" slots that are better left empty);
//! * sinks: the `k` slots (demand 1 each) plus a *dummy slot* with demand
//!   `n` (it absorbs advertisers that win nothing);
//! * arc costs: `-w(i, j)` for real pairs (we minimise), `0` on every dummy
//!   arc, and a large penalty on [`EXCLUDED`] pairs (never used at the
//!   optimum because the dummies provide zero-cost alternatives).
//!
//! The implementation keeps a spanning-tree basis with node potentials,
//! prices entering arcs with a full-arc Dantzig scan (`O(nk)` per pivot —
//! the "straightforward simplex" cost profile the paper's GLPK baseline
//! exhibits), pivots along the unique tree cycle, and falls back to Bland's
//! rule after long degenerate stretches to guarantee termination on the
//! (maximally degenerate) assignment problem.
//!
//! [`NetworkSimplexSolver`] implements
//! [`WdSolver`] with persistent scratch: the basis,
//! tree arrays, and per-pivot adjacency/cycle buffers are reused across
//! solves, which removes the per-pivot allocation that otherwise dominates
//! repeated runs.

use ssa_matching::solver::WdSolver;
use ssa_matching::{Assignment, RevenueMatrix, EXCLUDED};

/// Cost stand-in for excluded arcs. Large enough to never be chosen while
/// staying far from `f64` precision limits when summed with potentials.
const BIG: f64 = 1e12;
/// Reduced-cost tolerance.
const TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const BLAND_TRIGGER: usize = 64;

/// Counters describing a network-simplex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkSimplexStats {
    /// Total pivots performed.
    pub pivots: usize,
    /// Pivots with zero flow change (degenerate).
    pub degenerate_pivots: usize,
    /// Pivots performed under Bland's rule.
    pub bland_pivots: usize,
}

#[derive(Debug, Clone, Copy)]
struct BasicArc {
    source: usize, // 0..=n (n = dummy advertiser)
    sink: usize,   // 0..=k (k = dummy slot)
    flow: i64,
}

/// Method **LP** as a reusable [`WdSolver`]: network simplex with a
/// spanning-tree basis whose bookkeeping buffers persist across solves.
#[derive(Debug, Default, Clone)]
pub struct NetworkSimplexSolver {
    // Problem dimensions of the solve in progress.
    n: usize,
    k: usize,
    basis: Vec<BasicArc>,
    // Tree bookkeeping, rebuilt after each pivot. Node ids: sources are
    // 0..=n, sinks are n+1 ..= n+1+k.
    parent: Vec<usize>,
    parent_arc: Vec<usize>,
    depth: Vec<usize>,
    potential: Vec<f64>,
    // Per-rebuild / per-pivot scratch.
    adjacency: Vec<Vec<(usize, usize)>>,
    dfs_stack: Vec<usize>,
    cycle_from_sink: Vec<(usize, bool)>,
    cycle_from_source: Vec<(usize, bool)>,
}

impl NetworkSimplexSolver {
    /// Creates a solver with empty scratch buffers (they grow on first use).
    pub fn new() -> Self {
        NetworkSimplexSolver::default()
    }

    /// Solves winner determination for `matrix` into `out`, returning run
    /// statistics.
    pub fn solve_with_stats(
        &mut self,
        matrix: &RevenueMatrix,
        out: &mut Assignment,
    ) -> NetworkSimplexStats {
        let n = matrix.num_advertisers();
        let k = matrix.num_slots();
        self.n = n;
        self.k = k;
        let mut stats = NetworkSimplexStats::default();
        out.reset(k);
        if n == 0 {
            return stats;
        }

        self.basis.clear();
        self.northwest_corner();
        self.rebuild_tree(matrix);

        let mut degenerate_streak = 0usize;
        // Generous safety cap; the solver has always terminated far below
        // it.
        let max_pivots = 1000 + 64 * (n + k);
        while stats.pivots < max_pivots {
            let bland = degenerate_streak >= BLAND_TRIGGER;
            let Some((s, t)) = self.entering_arc(matrix, bland) else {
                break; // optimal
            };
            stats.pivots += 1;
            if bland {
                stats.bland_pivots += 1;
            }
            if self.pivot(matrix, s, t) {
                degenerate_streak = 0;
            } else {
                stats.degenerate_pivots += 1;
                degenerate_streak += 1;
            }
        }
        assert!(
            stats.pivots < max_pivots,
            "network simplex exceeded the pivot cap — anti-cycling failure"
        );

        for arc in &self.basis {
            if arc.flow > 0 && arc.source < n && arc.sink < k {
                let w = matrix.get(arc.source, arc.sink);
                debug_assert!(w != EXCLUDED, "flow on an excluded arc");
                // A zero-revenue match and an empty slot are LP-equivalent;
                // keep only strictly profitable matches for a canonical
                // assignment.
                if w > 0.0 {
                    out.slot_to_adv[arc.sink] = Some(arc.source);
                }
            }
        }
        // Sum the objective in slot order rather than basis-arc order: the
        // basis ordering depends on the pivot history, and float addition
        // is not associative — slot-order summation makes `total_weight` a
        // deterministic function of the assignment alone, so identical
        // assignments (e.g. full vs top-k-pruned solves) report
        // bit-identical totals.
        for (j, adv) in out.slot_to_adv.iter().enumerate() {
            if let Some(i) = adv {
                out.total_weight += matrix.get(*i, j);
            }
        }
        stats
    }

    fn sink_node(&self, t: usize) -> usize {
        self.n + 1 + t
    }

    fn cost(&self, matrix: &RevenueMatrix, s: usize, t: usize) -> f64 {
        if s < self.n && t < self.k {
            let w = matrix.get(s, t);
            if w == EXCLUDED {
                BIG
            } else {
                -w
            }
        } else {
            0.0
        }
    }

    /// Northwest-corner initial basic feasible solution: exactly
    /// `n + k + 1` basic arcs (degenerate zeros included).
    fn northwest_corner(&mut self) {
        let (n, k) = (self.n, self.k);
        let mut supply: Vec<i64> = vec![1; n];
        supply.push(k as i64); // dummy advertiser
        let mut demand: Vec<i64> = vec![1; k];
        demand.push(n as i64); // dummy slot
        let (mut s, mut t) = (0usize, 0usize);
        loop {
            let amount = supply[s].min(demand[t]);
            self.basis.push(BasicArc {
                source: s,
                sink: t,
                flow: amount,
            });
            supply[s] -= amount;
            demand[t] -= amount;
            if s == n && t == k {
                break;
            }
            if supply[s] == 0 && s < n {
                s += 1;
            } else {
                t += 1;
            }
        }
        debug_assert_eq!(self.basis.len(), n + k + 1);
    }

    /// Rebuilds parent/depth/potential arrays from the basis tree, reusing
    /// the adjacency and stack buffers.
    fn rebuild_tree(&mut self, matrix: &RevenueMatrix) {
        let m = self.n + self.k + 2;
        if self.adjacency.len() < m {
            self.adjacency.resize_with(m, Vec::new);
        }
        for adj in &mut self.adjacency[..m] {
            adj.clear();
        }
        for (idx, arc) in self.basis.iter().enumerate() {
            let a = arc.source;
            let b = self.n + 1 + arc.sink;
            self.adjacency[a].push((b, idx));
            self.adjacency[b].push((a, idx));
        }
        self.parent.clear();
        self.parent.resize(m, usize::MAX);
        self.parent_arc.clear();
        self.parent_arc.resize(m, usize::MAX);
        self.depth.clear();
        self.depth.resize(m, 0);
        self.potential.clear();
        self.potential.resize(m, 0.0);
        // Iterative DFS from root 0.
        let root = 0usize;
        self.parent[root] = root;
        self.dfs_stack.clear();
        self.dfs_stack.push(root);
        let mut visited = 1usize;
        while let Some(x) = self.dfs_stack.pop() {
            for idx in 0..self.adjacency[x].len() {
                let (y, arc_idx) = self.adjacency[x][idx];
                if self.parent[y] != usize::MAX {
                    continue;
                }
                self.parent[y] = x;
                self.parent_arc[y] = arc_idx;
                self.depth[y] = self.depth[x] + 1;
                let arc = self.basis[arc_idx];
                // Tree arcs have zero reduced cost:
                // cost = π[source] − π[sink].
                let c = self.cost(matrix, arc.source, arc.sink);
                if x == arc.source {
                    self.potential[y] = self.potential[x] - c;
                } else {
                    self.potential[y] = self.potential[x] + c;
                }
                visited += 1;
                self.dfs_stack.push(y);
            }
        }
        debug_assert_eq!(visited, m, "basis does not span all nodes");
    }

    fn reduced_cost(&self, matrix: &RevenueMatrix, s: usize, t: usize) -> f64 {
        self.cost(matrix, s, t) - self.potential[s] + self.potential[self.sink_node(t)]
    }

    /// Finds an entering arc; `bland` selects the first negative arc instead
    /// of the most negative.
    fn entering_arc(&self, matrix: &RevenueMatrix, bland: bool) -> Option<(usize, usize)> {
        let mut best: Option<((usize, usize), f64)> = None;
        for s in 0..=self.n {
            for t in 0..=self.k {
                let rc = self.reduced_cost(matrix, s, t);
                if rc < -TOL {
                    if bland {
                        return Some((s, t));
                    }
                    if best.map(|(_, b)| rc < b).unwrap_or(true) {
                        best = Some(((s, t), rc));
                    }
                }
            }
        }
        best.map(|(arc, _)| arc)
    }

    /// Pivots on the entering arc; returns `true` if the pivot moved flow.
    fn pivot(&mut self, matrix: &RevenueMatrix, s: usize, t: usize) -> bool {
        let source_node = s;
        let sink_node = self.sink_node(t);
        // Collect the tree path between the entering arc's endpoints by
        // climbing to the lowest common ancestor. `forward` = the cycle
        // (entering direction source→sink, then sink_node back to
        // source_node) traverses the arc in its own source→sink direction.
        self.cycle_from_sink.clear(); // climb sink_node → LCA
        self.cycle_from_source.clear(); // climb source_node → LCA
        let (mut x, mut y) = (sink_node, source_node);
        while self.depth[x] > self.depth[y] {
            let arc_idx = self.parent_arc[x];
            let forward = self.basis[arc_idx].source == x;
            self.cycle_from_sink.push((arc_idx, forward));
            x = self.parent[x];
        }
        while self.depth[y] > self.depth[x] {
            let arc_idx = self.parent_arc[y];
            // Cycle traverses these arcs parent→child, i.e. opposite of the
            // climb, so forward ⇔ the child is the arc's sink.
            let forward = self.sink_node_of_arc(arc_idx) == y;
            self.cycle_from_source.push((arc_idx, forward));
            y = self.parent[y];
        }
        while x != y {
            let ax = self.parent_arc[x];
            self.cycle_from_sink.push((ax, self.basis[ax].source == x));
            x = self.parent[x];
            let ay = self.parent_arc[y];
            self.cycle_from_source
                .push((ay, self.sink_node_of_arc(ay) == y));
            y = self.parent[y];
        }

        // θ = min flow over backward arcs.
        let mut theta = i64::MAX;
        let mut leaving: Option<usize> = None;
        for &(arc_idx, forward) in self.cycle_from_sink.iter().chain(&self.cycle_from_source) {
            if !forward {
                let f = self.basis[arc_idx].flow;
                if f < theta {
                    theta = f;
                    leaving = Some(arc_idx);
                }
            }
        }
        // Invariant: the entering arc is not in the tree, so the tree path
        // from `sink_node` back to `source_node` has an arc, and its first
        // one runs from a sink to a source: it is backward.
        #[allow(clippy::expect_used)]
        let leaving = leaving.expect("bipartite cycle must contain a backward arc");
        debug_assert!(theta >= 0);

        for &(arc_idx, forward) in self.cycle_from_sink.iter().chain(&self.cycle_from_source) {
            if forward {
                self.basis[arc_idx].flow += theta;
            } else {
                self.basis[arc_idx].flow -= theta;
            }
        }
        self.basis[leaving] = BasicArc {
            source: s,
            sink: t,
            flow: theta,
        };
        self.rebuild_tree(matrix);
        theta > 0
    }

    fn sink_node_of_arc(&self, arc_idx: usize) -> usize {
        self.sink_node(self.basis[arc_idx].sink)
    }
}

impl WdSolver for NetworkSimplexSolver {
    fn name(&self) -> &'static str {
        "network-simplex"
    }

    fn solve(&mut self, revenue: &RevenueMatrix, out: &mut Assignment) {
        self.solve_with_stats(revenue, out);
    }
}

/// Solves winner determination with the network simplex method. Returns the
/// optimal assignment (identical total weight to the Hungarian method) and
/// run statistics. One-shot convenience over [`NetworkSimplexSolver`].
pub fn network_simplex_assignment(matrix: &RevenueMatrix) -> (Assignment, NetworkSimplexStats) {
    let mut solver = NetworkSimplexSolver::new();
    let mut out = Assignment::empty(matrix.num_slots());
    let stats = solver.solve_with_stats(matrix, &mut out);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_matching::max_weight_assignment;

    /// Compile-time guard: the LP solver must stay `Send` so sharded
    /// serving layers can move it across threads with its engine.
    #[test]
    fn network_simplex_solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NetworkSimplexSolver>();
    }

    #[test]
    fn figure9_matrix() {
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0],
            vec![8.0, 7.0],
            vec![7.0, 6.0],
            vec![7.0, 4.0],
        ]);
        let (a, stats) = network_simplex_assignment(&m);
        assert!((a.total_weight - 16.0).abs() < 1e-9);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
        // The northwest-corner start happens to be optimal here, so the
        // solver may legitimately need zero pivots.
        let _ = stats;
    }

    #[test]
    fn excluded_and_negative_edges() {
        let m =
            RevenueMatrix::from_rows(&[vec![EXCLUDED, 5.0], vec![8.0, EXCLUDED], vec![-3.0, -4.0]]);
        let (a, _) = network_simplex_assignment(&m);
        assert!((a.total_weight - 13.0).abs() < 1e-9);
        assert_eq!(a.slot_to_adv, vec![Some(1), Some(0)]);
    }

    #[test]
    fn all_excluded_leaves_slots_empty() {
        let m = RevenueMatrix::from_rows(&[vec![EXCLUDED], vec![EXCLUDED]]);
        let (a, _) = network_simplex_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![None]);
        assert_eq!(a.total_weight, 0.0);
    }

    #[test]
    fn empty_market() {
        let m = RevenueMatrix::zeros(0, 3);
        let (a, stats) = network_simplex_assignment(&m);
        assert_eq!(a.num_assigned(), 0);
        assert_eq!(stats.pivots, 0);
    }

    #[test]
    fn more_slots_than_advertisers() {
        let m = RevenueMatrix::from_rows(&[vec![3.0, 7.0, 5.0]]);
        let (a, _) = network_simplex_assignment(&m);
        assert_eq!(a.slot_to_adv, vec![None, Some(0), None]);
        assert!((a.total_weight - 7.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_hungarian_on_pseudorandom_instances() {
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 5000) as f64 / 100.0
        };
        for n in [1usize, 2, 5, 12, 40] {
            for k in [1usize, 2, 5, 8] {
                let m = RevenueMatrix::from_fn(n, k, |_, _| next());
                let (lp, _) = network_simplex_assignment(&m);
                let hung = max_weight_assignment(&m);
                assert!(
                    (lp.total_weight - hung.total_weight).abs() < 1e-6,
                    "n={n} k={k}: network {} vs hungarian {}",
                    lp.total_weight,
                    hung.total_weight
                );
                assert!(lp.is_valid(n));
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_across_sizes() {
        // One persistent solver over a stream of differently-sized
        // instances must agree with a fresh solve, statistics included.
        let mut solver = NetworkSimplexSolver::new();
        let mut out = Assignment::empty(1);
        let mut state = 0xFACEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 4000) as f64 / 50.0
        };
        for (n, k) in [(6, 3), (1, 1), (12, 5), (0, 2), (6, 3)] {
            let m = RevenueMatrix::from_fn(n, k, |_, _| next());
            let stats = solver.solve_with_stats(&m, &mut out);
            let (fresh, fresh_stats) = network_simplex_assignment(&m);
            assert_eq!(out, fresh, "n={n} k={k}");
            assert_eq!(stats, fresh_stats, "n={n} k={k}");
        }
    }

    #[test]
    fn integral_flows_throughout() {
        // Identical weights → maximal degeneracy; exercises the Bland
        // fallback. Correctness: any perfect matching of min(n, k) pairs.
        let m = RevenueMatrix::from_fn(10, 4, |_, _| 5.0);
        let (a, _stats) = network_simplex_assignment(&m);
        assert!((a.total_weight - 20.0).abs() < 1e-9);
        assert_eq!(a.num_assigned(), 4);
    }
}
