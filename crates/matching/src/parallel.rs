//! Parallel top-k aggregation (Section III-E), simulated.
//!
//! The paper proposes `k` binary-tree networks of height `O(log n)`: leaf
//! `i` of tree `j` holds the expected revenue of advertiser `i` in slot `j`,
//! internal nodes merge the top-k lists of their children in `O(k)`, and the
//! roots feed the union into the Hungarian algorithm. Total parallel time
//! `O(k log n + k⁵)`.
//!
//! [`tree_top_k`] is a sequential *simulation* of the tree networks that
//! also reports the tree depth and number of combine steps, so tests can
//! check the `O(log n)` claim. It is not a serving path: the engine's `rh`
//! reads its candidates off [`crate::RetainedOrder`] without any scan.

use crate::matrix::RevenueMatrix;

/// Statistics from a simulated tree-network aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Height of the binary tree (number of merge levels).
    pub depth: usize,
    /// Total number of pairwise combine operations across all levels of one
    /// tree (the work one tree performs; each level runs in parallel).
    pub combine_steps: usize,
}

/// Merges two descending top-k lists into one, keeping the k best.
fn merge_top_k(a: &[(usize, f64)], b: &[(usize, f64)], k: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut ia, mut ib) = (0, 0);
    while out.len() < k && (ia < a.len() || ib < b.len()) {
        let take_a = match (a.get(ia), b.get(ib)) {
            (Some(&(aid, aw)), Some(&(bid, bw))) => {
                (aw, std::cmp::Reverse(aid)) >= (bw, std::cmp::Reverse(bid))
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_a {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out
}

/// Simulates the `j`-th binary-tree network for every slot `j`, returning
/// each slot's top-k list plus tree statistics.
///
/// Functionally identical to [`crate::topk::top_k_indices`]; the value of
/// this function is the faithful simulation of the paper's aggregation
/// topology (used by tests and the ablation benches).
pub fn tree_top_k(matrix: &RevenueMatrix, k: usize) -> (Vec<Vec<(usize, f64)>>, TreeStats) {
    let slots = matrix.num_slots();
    let n = matrix.num_advertisers();
    let mut results = Vec::with_capacity(slots);
    let mut stats = TreeStats {
        depth: 0,
        combine_steps: 0,
    };
    for slot in 0..slots {
        // Leaves: singleton lists, excluded edges become empty lists.
        let mut level: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let w = matrix.get(i, slot);
                if w == crate::matrix::EXCLUDED {
                    Vec::new()
                } else {
                    vec![(i, w)]
                }
            })
            .collect();
        let mut depth = 0;
        while level.len() > 1 {
            depth += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.chunks(2);
            for pair in &mut iter {
                match pair {
                    [a, b] => {
                        stats.combine_steps += 1;
                        next.push(merge_top_k(a, b, k));
                    }
                    [a] => next.push(a.clone()),
                    _ => unreachable!(),
                }
            }
            level = next;
        }
        stats.depth = stats.depth.max(depth);
        results.push(level.pop().unwrap_or_default());
    }
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_indices;

    fn pseudorandom_matrix(n: usize, k: usize, seed: u64) -> RevenueMatrix {
        let mut state = seed | 1;
        RevenueMatrix::from_fn(n, k, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 100.0
        })
    }

    #[test]
    fn merge_keeps_order_and_bound() {
        let a = vec![(0, 9.0), (2, 5.0)];
        let b = vec![(1, 7.0), (3, 5.0)];
        let m = merge_top_k(&a, &b, 3);
        assert_eq!(m, vec![(0, 9.0), (1, 7.0), (2, 5.0)]);
    }

    #[test]
    fn merge_tie_breaks_by_id() {
        let a = vec![(5, 4.0)];
        let b = vec![(1, 4.0)];
        assert_eq!(merge_top_k(&a, &b, 2), vec![(1, 4.0), (5, 4.0)]);
    }

    #[test]
    fn tree_matches_direct_top_k() {
        let m = pseudorandom_matrix(67, 4, 42);
        let (tree, stats) = tree_top_k(&m, 4);
        let direct = top_k_indices(&m, 4);
        assert_eq!(tree, direct);
        // Height of a 67-leaf binary tree: ceil(log2 67) = 7.
        assert_eq!(stats.depth, 7);
        // A binary reduction performs exactly n - 1... minus skipped odd
        // nodes; at minimum n/2 combines, at most n - 1, per slot.
        assert!(stats.combine_steps >= 33 * 4);
        assert!(stats.combine_steps <= 66 * 4);
    }

    #[test]
    fn single_advertiser_tree() {
        let m = pseudorandom_matrix(1, 2, 3);
        let (tree, stats) = tree_top_k(&m, 2);
        assert_eq!(tree[0].len(), 1);
        assert_eq!(stats.depth, 0);
    }

    #[test]
    fn empty_market_tree() {
        let m = RevenueMatrix::zeros(0, 2);
        let (tree, stats) = tree_top_k(&m, 2);
        assert_eq!(tree, vec![Vec::new(), Vec::new()]);
        assert_eq!(stats.depth, 0);
    }
}
