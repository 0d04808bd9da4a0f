//! The constrained-binary-optimization problem type (paper Eq. 1):
//!
//! ```text
//! min/max f(x),   s.t.  C x = b,   x ∈ {0,1}^n
//! ```
//!
//! Inequality constraints are assumed to have been converted to
//! equalities with auxiliary binary slack variables by the domain
//! generators (paper §2.1).

use rasengan_math::IntMatrix;
use std::fmt;

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Find the minimum objective value.
    Minimize,
    /// Find the maximum objective value.
    Maximize,
}

impl Sense {
    /// Whether candidate value `a` is better than `b` under this sense.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Minimize => a < b,
            Sense::Maximize => a > b,
        }
    }

    /// The worst possible value under this sense.
    pub fn worst(self) -> f64 {
        match self {
            Sense::Minimize => f64::INFINITY,
            Sense::Maximize => f64::NEG_INFINITY,
        }
    }
}

/// A polynomial objective over binary variables: constant + linear +
/// quadratic terms. Quadratic terms cover the cut/load objectives of
/// KPP and JSP; FLP/SCP/GCP are linear.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Objective {
    /// Constant offset.
    pub constant: f64,
    /// `linear[i]` multiplies `x_i`.
    pub linear: Vec<f64>,
    /// Each `(i, j, w)` contributes `w · x_i · x_j`.
    pub quadratic: Vec<(usize, usize, f64)>,
}

impl Objective {
    /// A purely linear objective.
    pub fn linear(coeffs: Vec<f64>) -> Self {
        Objective {
            constant: 0.0,
            linear: coeffs,
            quadratic: Vec::new(),
        }
    }

    /// Evaluates the objective at a binary point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.linear.len()`.
    pub fn eval(&self, x: &[i64]) -> f64 {
        assert_eq!(x.len(), self.linear.len(), "point has wrong dimension");
        let mut v = self.constant;
        for (i, &c) in self.linear.iter().enumerate() {
            v += c * x[i] as f64;
        }
        for &(i, j, w) in &self.quadratic {
            v += w * (x[i] * x[j]) as f64;
        }
        v
    }

    /// Highest variable degree (1 for linear, 2 with quadratic terms).
    pub fn degree(&self) -> usize {
        if self.quadratic.is_empty() {
            1
        } else {
            2
        }
    }
}

/// A constrained binary optimization problem instance.
///
/// # Example
///
/// ```
/// use rasengan_problems::{Objective, Problem, Sense};
/// use rasengan_math::IntMatrix;
///
/// // max x1 + 2 x2  s.t.  x1 + x2 = 1
/// let p = Problem::new(
///     "toy",
///     IntMatrix::from_rows(&[vec![1, 1]]),
///     vec![1],
///     Objective::linear(vec![1.0, 2.0]),
///     Sense::Maximize,
/// ).unwrap();
/// assert!(p.is_feasible(&[0, 1]));
/// assert!(!p.is_feasible(&[1, 1]));
/// assert_eq!(p.evaluate(&[0, 1]), 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct Problem {
    name: String,
    constraints: IntMatrix,
    rhs: Vec<i64>,
    /// `C x = b` compiled for [`Problem::is_feasible_label`].
    label_rows: LabelRows,
    objective: Objective,
    sense: Sense,
    initial_feasible: Option<Vec<i64>>,
    known_optimum: Option<(Vec<i64>, f64)>,
}

/// Error constructing a [`Problem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// The right-hand side length does not match the constraint rows.
    RhsMismatch {
        /// Constraint rows.
        rows: usize,
        /// Right-hand side length.
        rhs_len: usize,
    },
    /// The objective dimension does not match the constraint columns.
    ObjectiveMismatch {
        /// Constraint columns (number of variables).
        cols: usize,
        /// Linear coefficient count.
        linear_len: usize,
    },
    /// The declared initial feasible solution violates the constraints.
    InfeasibleInitial,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::RhsMismatch { rows, rhs_len } => {
                write!(
                    f,
                    "rhs length {rhs_len} does not match {rows} constraint rows"
                )
            }
            ProblemError::ObjectiveMismatch { cols, linear_len } => write!(
                f,
                "objective has {linear_len} linear coefficients for {cols} variables"
            ),
            ProblemError::InfeasibleInitial => {
                write!(f, "declared initial solution violates the constraints")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// `C x = b` in row-mask form: each row's nonzero columns grouped by
/// coefficient into one `u128` column mask per distinct coefficient, so
/// a packed assignment checks a row as `Σ coef · popcount(x & mask)`.
#[derive(Clone, Debug)]
struct LabelRows {
    /// Every row's `(coefficient, column mask)` groups, rows back to back.
    groups: Vec<(i64, u128)>,
    /// Per row: the end of its groups in `groups`, and its rhs.
    rows: Vec<(usize, i64)>,
}

impl LabelRows {
    /// Groups the columns below 128 (the width of a label); wider
    /// columns read as 0 in every label.
    fn compile(constraints: &IntMatrix, rhs: &[i64]) -> Self {
        let mut groups: Vec<(i64, u128)> = Vec::new();
        let mut rows = Vec::with_capacity(rhs.len());
        for (r, &b) in rhs.iter().enumerate() {
            let start = groups.len();
            for (col, &coef) in constraints.row(r).iter().enumerate().take(128) {
                if coef == 0 {
                    continue;
                }
                match groups[start..].iter_mut().find(|(c, _)| *c == coef) {
                    Some((_, mask)) => *mask |= 1 << col,
                    None => groups.push((coef, 1 << col)),
                }
            }
            rows.push((groups.len(), b));
        }
        LabelRows { groups, rows }
    }

    fn satisfied_by(&self, label: u128) -> bool {
        self.all_rows(|mask| (label & mask).count_ones() as i128, |b| b as i128)
    }

    /// Whether every row's `Σ coef · count(mask)`, summed exactly in
    /// `i128`, equals `want(rhs)`.
    fn all_rows(&self, count: impl Fn(u128) -> i128, want: impl Fn(i64) -> i128) -> bool {
        let mut start = 0;
        self.rows.iter().all(|&(end, b)| {
            let lhs: i128 = self.groups[start..end]
                .iter()
                .map(|&(coef, mask)| coef as i128 * count(mask))
                .sum();
            start = end;
            lhs == want(b)
        })
    }
}

impl Problem {
    /// Creates a problem, validating shapes.
    ///
    /// # Errors
    ///
    /// See [`ProblemError`].
    pub fn new(
        name: impl Into<String>,
        constraints: IntMatrix,
        rhs: Vec<i64>,
        objective: Objective,
        sense: Sense,
    ) -> Result<Self, ProblemError> {
        if rhs.len() != constraints.rows() {
            return Err(ProblemError::RhsMismatch {
                rows: constraints.rows(),
                rhs_len: rhs.len(),
            });
        }
        if objective.linear.len() != constraints.cols() {
            return Err(ProblemError::ObjectiveMismatch {
                cols: constraints.cols(),
                linear_len: objective.linear.len(),
            });
        }
        Ok(Problem {
            name: name.into(),
            label_rows: LabelRows::compile(&constraints, &rhs),
            constraints,
            rhs,
            objective,
            sense,
            initial_feasible: None,
            known_optimum: None,
        })
    }

    /// Attaches a constructively-known feasible solution (the domain
    /// generators all provide one in linear time, paper §5.1).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InfeasibleInitial`] if the solution does
    /// not satisfy `C x = b`.
    pub fn with_initial_feasible(mut self, x: Vec<i64>) -> Result<Self, ProblemError> {
        if !self.is_feasible(&x) {
            return Err(ProblemError::InfeasibleInitial);
        }
        self.initial_feasible = Some(x);
        Ok(self)
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of binary variables (qubits).
    pub fn n_vars(&self) -> usize {
        self.constraints.cols()
    }

    /// Number of equality constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.rows()
    }

    /// The constraint matrix `C`.
    pub fn constraints(&self) -> &IntMatrix {
        &self.constraints
    }

    /// The right-hand side `b`.
    pub fn rhs(&self) -> &[i64] {
        &self.rhs
    }

    /// The objective function.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The constructively-known feasible solution, if attached.
    pub fn initial_feasible(&self) -> Option<&[i64]> {
        self.initial_feasible.as_deref()
    }

    /// Attaches a generator-computed exact optimum, letting ARG be
    /// evaluated on instances whose feasible set is too large to
    /// enumerate (the 105-variable FLP instances of Fig. 10).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InfeasibleInitial`] if `x` is infeasible
    /// or its objective value disagrees with `value`.
    pub fn with_known_optimum(mut self, x: Vec<i64>, value: f64) -> Result<Self, ProblemError> {
        if !self.is_feasible(&x) || (self.evaluate(&x) - value).abs() > 1e-9 {
            return Err(ProblemError::InfeasibleInitial);
        }
        self.known_optimum = Some((x, value));
        Ok(self)
    }

    /// The generator-computed optimum, if attached.
    pub fn known_optimum(&self) -> Option<(&[i64], f64)> {
        self.known_optimum.as_ref().map(|(x, v)| (x.as_slice(), *v))
    }

    /// Whether `x` is binary and satisfies `C x = b`.
    pub fn is_feasible(&self, x: &[i64]) -> bool {
        x.len() == self.n_vars()
            && x.iter().all(|&v| v == 0 || v == 1)
            && self.constraints.mul_vec(x) == self.rhs
    }

    /// Whether the packed assignment `label` (bit `i` is `x_i`)
    /// satisfies `C x = b`: the same answer as [`Problem::is_feasible`]
    /// on the unpacked bits, without unpacking. Bits at or above
    /// `n_vars` are ignored. Each row is a few popcounts over masks
    /// compiled once per problem, summed exactly in `i128`.
    pub fn is_feasible_label(&self, label: u128) -> bool {
        self.label_rows.satisfied_by(label)
    }

    /// Whether the move `u` = `plus` − `minus` (bit `i` of `plus` is
    /// `uᵢ = 1`, of `minus` `uᵢ = −1`; the masks are disjoint) stays
    /// on the problem's variables and satisfies `C u = 0`, so it
    /// carries every feasible label to a feasible label. Popcounts per
    /// row over the masks [`Problem::is_feasible_label`] uses.
    pub fn preserves_feasibility(&self, plus: u128, minus: u128) -> bool {
        let outside = match self.n_vars() {
            n if n >= 128 => 0,
            n => u128::MAX << n,
        };
        (plus | minus) & outside == 0
            && self.label_rows.all_rows(
                |mask| (plus & mask).count_ones() as i128 - (minus & mask).count_ones() as i128,
                |_| 0,
            )
    }

    /// Total constraint violation `‖C x − b‖₁`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_vars()`.
    pub fn violation(&self, x: &[i64]) -> f64 {
        self.constraints
            .mul_vec(x)
            .iter()
            .zip(&self.rhs)
            .map(|(&got, &want)| (got - want).abs() as f64)
            .sum()
    }

    /// Objective value `f(x)`.
    pub fn evaluate(&self, x: &[i64]) -> f64 {
        self.objective.eval(x)
    }

    /// Penalized objective used by the penalty-term methods: the
    /// violation is charged in the *unfavourable* direction of the
    /// sense (paper §2.1's `f(x) + λ‖Cx − b‖`).
    pub fn evaluate_penalized(&self, x: &[i64], lambda: f64) -> f64 {
        let f = self.evaluate(x);
        let v = lambda * self.violation(x);
        match self.sense {
            Sense::Minimize => f + v,
            Sense::Maximize => f - v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Problem {
        // min 3x1 + x2 + 2x3  s.t.  x1 + x2 + x3 = 1
        Problem::new(
            "toy",
            IntMatrix::from_rows(&[vec![1, 1, 1]]),
            vec![1],
            Objective::linear(vec![3.0, 1.0, 2.0]),
            Sense::Minimize,
        )
        .unwrap()
    }

    #[test]
    fn feasibility_checks() {
        let p = toy();
        assert!(p.is_feasible(&[0, 1, 0]));
        assert!(!p.is_feasible(&[1, 1, 0]));
        assert!(!p.is_feasible(&[0, 0, 0]));
        assert!(!p.is_feasible(&[0, 2, -1])); // non-binary
    }

    #[test]
    fn violation_is_l1_norm() {
        let p = toy();
        assert_eq!(p.violation(&[1, 1, 1]), 2.0);
        assert_eq!(p.violation(&[0, 0, 0]), 1.0);
        assert_eq!(p.violation(&[0, 1, 0]), 0.0);
    }

    #[test]
    fn penalized_objective_directions() {
        let p = toy();
        // Infeasible point pays a positive penalty when minimizing.
        assert!(p.evaluate_penalized(&[1, 1, 0], 10.0) > p.evaluate(&[1, 1, 0]));
        let pmax = Problem::new(
            "toy-max",
            IntMatrix::from_rows(&[vec![1, 1, 1]]),
            vec![1],
            Objective::linear(vec![3.0, 1.0, 2.0]),
            Sense::Maximize,
        )
        .unwrap();
        assert!(pmax.evaluate_penalized(&[1, 1, 0], 10.0) < pmax.evaluate(&[1, 1, 0]));
    }

    #[test]
    fn quadratic_objective_eval() {
        let obj = Objective {
            constant: 1.0,
            linear: vec![0.0, 2.0],
            quadratic: vec![(0, 1, 5.0)],
        };
        assert_eq!(obj.eval(&[1, 1]), 8.0);
        assert_eq!(obj.eval(&[1, 0]), 1.0);
        assert_eq!(obj.degree(), 2);
        assert_eq!(Objective::linear(vec![1.0]).degree(), 1);
    }

    #[test]
    fn construction_validates_shapes() {
        let c = IntMatrix::from_rows(&[vec![1, 1]]);
        assert!(matches!(
            Problem::new(
                "bad",
                c.clone(),
                vec![1, 2],
                Objective::linear(vec![0.0, 0.0]),
                Sense::Minimize
            ),
            Err(ProblemError::RhsMismatch { .. })
        ));
        assert!(matches!(
            Problem::new(
                "bad",
                c,
                vec![1],
                Objective::linear(vec![0.0]),
                Sense::Minimize
            ),
            Err(ProblemError::ObjectiveMismatch { .. })
        ));
    }

    #[test]
    fn initial_feasible_is_validated() {
        let p = toy();
        assert!(p.clone().with_initial_feasible(vec![1, 1, 0]).is_err());
        let p = p.with_initial_feasible(vec![0, 1, 0]).unwrap();
        assert_eq!(p.initial_feasible(), Some(&[0i64, 1, 0][..]));
    }

    #[test]
    fn sense_helpers() {
        assert!(Sense::Minimize.is_better(1.0, 2.0));
        assert!(Sense::Maximize.is_better(2.0, 1.0));
        assert_eq!(Sense::Minimize.worst(), f64::INFINITY);
    }
}
