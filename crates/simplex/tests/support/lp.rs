//! The assignment LP formulation of winner determination.
//!
//! Variables `x_{ij} ∈ [0, 1]` for each usable advertiser–slot pair;
//! maximise `Σ w_{ij} x_{ij}` subject to `Σ_j x_{ij} ≤ 1` per advertiser and
//! `Σ_i x_{ij} ≤ 1` per slot. The paper invokes a theorem of Chvátal to show
//! the optimum is always integral (the constraint rows are the maximal
//! cliques of a perfect graph), so the LP relaxation *is* winner
//! determination. Tests in this module verify integrality empirically.

use super::tableau::{LinearProgram, LpError, LpSolution};
use ssa_matching::{Assignment, RevenueMatrix, EXCLUDED};

/// An assignment LP together with the variable bookkeeping needed to map a
/// solution vector back to an [`Assignment`].
#[derive(Debug, Clone)]
pub struct AssignmentLp {
    /// The LP in standard form.
    pub program: LinearProgram,
    /// `vars[v] = (advertiser, slot)` for structural variable `v`.
    pub vars: Vec<(usize, usize)>,
    num_advertisers: usize,
    num_slots: usize,
}

/// Builds the assignment LP for a revenue matrix. [`EXCLUDED`] pairs get no
/// variable; negative-weight pairs keep theirs (the LP simply leaves them at
/// zero).
pub fn assignment_lp(matrix: &RevenueMatrix) -> AssignmentLp {
    let n = matrix.num_advertisers();
    let k = matrix.num_slots();
    let mut vars = Vec::new();
    let mut objective = Vec::new();
    for i in 0..n {
        for j in 0..k {
            let w = matrix.get(i, j);
            if w != EXCLUDED {
                vars.push((i, j));
                objective.push(w);
            }
        }
    }
    let mut constraints = vec![vec![0.0; vars.len()]; n + k];
    for (v, &(i, j)) in vars.iter().enumerate() {
        constraints[i][v] = 1.0; // advertiser row
        constraints[n + j][v] = 1.0; // slot row
    }
    AssignmentLp {
        program: LinearProgram {
            objective,
            constraints,
            rhs: vec![1.0; n + k],
        },
        vars,
        num_advertisers: n,
        num_slots: k,
    }
}

impl AssignmentLp {
    /// Converts an LP solution vector into an [`Assignment`].
    ///
    /// # Panics
    ///
    /// Panics if the solution is not (numerically) integral — by the
    /// Chvátal argument this indicates a solver bug, not a modelling
    /// limitation.
    pub fn extract(&self, solution: &LpSolution) -> Assignment {
        let mut slot_to_adv = vec![None; self.num_slots];
        let mut total_weight = 0.0;
        for (v, &(i, j)) in self.vars.iter().enumerate() {
            let x = solution.x[v];
            assert!(
                x < 1e-6 || (x - 1.0).abs() < 1e-6,
                "fractional assignment variable x[{i}][{j}] = {x}"
            );
            if x > 0.5 {
                assert!(slot_to_adv[j].is_none(), "slot {j} doubly assigned");
                slot_to_adv[j] = Some(i);
                total_weight += self.program.objective[v];
            }
        }
        let _ = self.num_advertisers;
        Assignment {
            slot_to_adv,
            total_weight,
        }
    }
}

/// One-shot convenience: build the LP, solve with the tableau simplex, and
/// extract the integral assignment.
pub fn solve_assignment_lp(matrix: &RevenueMatrix) -> Result<Assignment, LpError> {
    let lp = assignment_lp(matrix);
    let solution = lp.program.solve()?;
    Ok(lp.extract(&solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_matching::max_weight_assignment;

    #[test]
    fn figure9_matrix_via_lp() {
        let m = RevenueMatrix::from_rows(&[
            vec![9.0, 5.0],
            vec![8.0, 7.0],
            vec![7.0, 6.0],
            vec![7.0, 4.0],
        ]);
        let a = solve_assignment_lp(&m).unwrap();
        assert!((a.total_weight - 16.0).abs() < 1e-9);
        assert_eq!(a.slot_to_adv, vec![Some(0), Some(1)]);
    }

    #[test]
    fn excluded_pairs_have_no_variable() {
        let mut m = RevenueMatrix::zeros(2, 2);
        m.set(0, 0, EXCLUDED);
        m.set(0, 1, 3.0);
        m.set(1, 0, 4.0);
        m.set(1, 1, 5.0);
        let lp = assignment_lp(&m);
        assert_eq!(lp.vars.len(), 3);
        let a = solve_assignment_lp(&m).unwrap();
        assert!((a.total_weight - 7.0).abs() < 1e-9);
    }

    #[test]
    fn negative_weights_left_unassigned() {
        let m = RevenueMatrix::from_rows(&[vec![-5.0]]);
        let a = solve_assignment_lp(&m).unwrap();
        assert_eq!(a.slot_to_adv, vec![None]);
        assert_eq!(a.total_weight, 0.0);
    }

    #[test]
    fn agrees_with_hungarian_pseudorandomly() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 32) % 1000) as f64 / 10.0
        };
        for n in [1usize, 2, 5, 8] {
            for k in [1usize, 3, 4] {
                let m = RevenueMatrix::from_fn(n, k, |_, _| next());
                let via_lp = solve_assignment_lp(&m).unwrap();
                let via_matching = max_weight_assignment(&m);
                assert!(
                    (via_lp.total_weight - via_matching.total_weight).abs() < 1e-6,
                    "n={n} k={k}: {} vs {}",
                    via_lp.total_weight,
                    via_matching.total_weight
                );
            }
        }
    }

    #[test]
    fn empty_market() {
        let m = RevenueMatrix::zeros(0, 2);
        let a = solve_assignment_lp(&m).unwrap();
        assert_eq!(a.slot_to_adv, vec![None, None]);
    }
}
