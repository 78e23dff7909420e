//! A dense tableau simplex solver with Bland's anti-cycling rule.
//!
//! Solves `max cᵀx  s.t.  Ax ≤ b, x ≥ 0` with `b ≥ 0` (so the all-slack
//! basis is feasible and no phase-1 is needed — the assignment LP always has
//! this shape). Deliberately the *straightforward* implementation: dense
//! tableau, full-row pivots. Correctness over speed; the scalable LP path is
//! `ssa_simplex::netsimplex`.

use std::fmt;

/// Tolerance below which a coefficient is treated as zero.
const EPS: f64 = 1e-9;

/// A linear program `max cᵀx  s.t.  Ax ≤ b, x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    /// Objective coefficients (length = number of structural variables).
    pub objective: Vec<f64>,
    /// Constraint rows, each of length `objective.len()`.
    pub constraints: Vec<Vec<f64>>,
    /// Right-hand sides, all non-negative.
    pub rhs: Vec<f64>,
}

/// Errors from the simplex solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The program is malformed (ragged rows, negative rhs, NaN).
    Malformed(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::Malformed(msg) => write!(f, "malformed LP: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution to a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// The optimal objective value.
    pub value: f64,
    /// Values of the structural variables.
    pub x: Vec<f64>,
    /// Number of simplex pivots performed.
    pub pivots: usize,
}

impl LinearProgram {
    fn validate(&self) -> Result<(), LpError> {
        let n = self.objective.len();
        if self.constraints.len() != self.rhs.len() {
            return Err(LpError::Malformed(
                "constraint/rhs count mismatch".to_string(),
            ));
        }
        for row in &self.constraints {
            if row.len() != n {
                return Err(LpError::Malformed("ragged constraint row".to_string()));
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(LpError::Malformed("non-finite coefficient".to_string()));
            }
        }
        if self.objective.iter().any(|v| !v.is_finite()) {
            return Err(LpError::Malformed("non-finite objective".to_string()));
        }
        if self.rhs.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(LpError::Malformed(
                "rhs must be finite and non-negative".to_string(),
            ));
        }
        Ok(())
    }

    /// Solves the program with the primal simplex method (Bland's rule).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.validate()?;
        let n = self.objective.len();
        let m = self.constraints.len();
        let cols = n + m + 1; // structural + slack + rhs

        // Tableau rows: row 0 is the objective (z-row), rows 1..=m the
        // constraints with slack identity.
        let mut t = vec![vec![0.0f64; cols]; m + 1];
        for (j, &c) in self.objective.iter().enumerate() {
            t[0][j] = -c;
        }
        for i in 0..m {
            for (j, &a) in self.constraints[i].iter().enumerate() {
                t[i + 1][j] = a;
            }
            t[i + 1][n + i] = 1.0;
            t[i + 1][cols - 1] = self.rhs[i];
        }
        // basis[i] = variable index basic in row i+1; starts as the slacks.
        let mut basis: Vec<usize> = (n..n + m).collect();

        let mut pivots = 0usize;
        #[allow(clippy::while_let_loop)] // symmetric break conditions read better
        loop {
            // Bland's rule: smallest-index column with negative z-row entry.
            let Some(enter) = (0..cols - 1).find(|&j| t[0][j] < -EPS) else {
                break;
            };
            // Ratio test; ties resolved towards the smallest basic variable
            // index (the second half of Bland's rule).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 1..=m {
                if t[i][enter] > EPS {
                    let ratio = t[i][cols - 1] / t[i][enter];
                    let better = match leave {
                        None => true,
                        Some(cur) => {
                            ratio < best_ratio - EPS
                                || (ratio < best_ratio + EPS && basis[i - 1] < basis[cur - 1])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(LpError::Unbounded);
            };
            // Pivot on (leave, enter).
            pivots += 1;
            let pivot = t[leave][enter];
            for v in t[leave].iter_mut() {
                *v /= pivot;
            }
            for i in 0..=m {
                if i != leave && t[i][enter].abs() > EPS {
                    let factor = t[i][enter];
                    // Split borrows: clone the pivot row once per update.
                    let pivot_row = t[leave].clone();
                    for (v, p) in t[i].iter_mut().zip(&pivot_row) {
                        *v -= factor * p;
                    }
                }
            }
            basis[leave - 1] = enter;
        }

        let mut x = vec![0.0f64; n];
        for (i, &var) in basis.iter().enumerate() {
            if var < n {
                x[var] = t[i + 1][cols - 1];
            }
        }
        Ok(LpSolution {
            value: t[0][cols - 1],
            x,
            pivots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(c: &[f64], a: &[&[f64]], b: &[f64]) -> LinearProgram {
        LinearProgram {
            objective: c.to_vec(),
            constraints: a.iter().map(|r| r.to_vec()).collect(),
            rhs: b.to_vec(),
        }
    }

    #[test]
    fn textbook_two_variable() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → z = 36 at (2, 6).
        let p = lp(
            &[3.0, 5.0],
            &[&[1.0, 0.0], &[0.0, 2.0], &[3.0, 2.0]],
            &[4.0, 12.0, 18.0],
        );
        let s = p.solve().unwrap();
        assert!((s.value - 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn trivial_optimum_at_origin() {
        // All-negative objective: do nothing.
        let p = lp(&[-1.0, -2.0], &[&[1.0, 1.0]], &[10.0]);
        let s = p.solve().unwrap();
        assert_eq!(s.value, 0.0);
        assert_eq!(s.pivots, 0);
    }

    #[test]
    fn unbounded_detected() {
        let p = lp(&[1.0], &[&[-1.0]], &[1.0]);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn degenerate_cycling_guarded() {
        // Beale's classic cycling example (scaled to b ≥ 0 form); Bland's
        // rule must terminate.
        let p = lp(
            &[0.75, -150.0, 0.02, -6.0],
            &[
                &[0.25, -60.0, -0.04, 9.0],
                &[0.5, -90.0, -0.02, 3.0],
                &[0.0, 0.0, 1.0, 0.0],
            ],
            &[0.0, 0.0, 1.0],
        );
        let s = p.solve().unwrap();
        assert!((s.value - 0.05).abs() < 1e-6, "value = {}", s.value);
    }

    #[test]
    fn malformed_rejected() {
        let ragged = LinearProgram {
            objective: vec![1.0, 2.0],
            constraints: vec![vec![1.0]],
            rhs: vec![1.0],
        };
        assert!(matches!(ragged.solve(), Err(LpError::Malformed(_))));
        let negative_rhs = lp(&[1.0], &[&[1.0]], &[-1.0]);
        assert!(matches!(negative_rhs.solve(), Err(LpError::Malformed(_))));
        let nan = lp(&[f64::NAN], &[&[1.0]], &[1.0]);
        assert!(matches!(nan.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn equality_binding_constraints() {
        // max x + y s.t. x + y ≤ 1, x ≤ 1, y ≤ 1 → 1.0
        let p = lp(
            &[1.0, 1.0],
            &[&[1.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]],
            &[1.0, 1.0, 1.0],
        );
        let s = p.solve().unwrap();
        assert!((s.value - 1.0).abs() < 1e-9);
        assert!((s.x[0] + s.x[1] - 1.0).abs() < 1e-9);
    }
}
