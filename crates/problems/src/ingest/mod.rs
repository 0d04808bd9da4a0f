//! Problem ingestion: standard interchange formats lowered onto the
//! native [`Problem`] substrate.
//!
//! The native text format (`problems::io`) is Rasengan's own; the rest
//! of the ecosystem speaks QUBO matrix form (the encoding catalog of
//! arXiv:2106.10819) and LP files (the binary-LP intake assumed by the
//! constraint-generation framework of arXiv:2503.21222). This module is
//! the intake layer for both:
//!
//! * [`qubo`] — dense and sparse-coordinate QUBO matrices, with
//!   optional penalty-term **recovery** of `Σ xᵢ = b` equality
//!   constraints where the matrix structure admits it (disjoint
//!   uniform-weight penalty cliques).
//! * [`lp`] — an LP-file subset: binary variables, linear objectives,
//!   equality and inequality rows (inequalities binarized with unit
//!   slacks through [`ProblemBuilder`](crate::builder::ProblemBuilder)).
//!
//! Both parsers canonicalize constraint order before lowering, so the
//! canonical fingerprint of an ingested instance is invariant under
//! comment, whitespace, and constraint-row permutations of the source
//! file — serve caching and the persist tier work unchanged.

pub mod lp;
pub mod qubo;

use crate::io::{parse_problem, write_problem, ParseProblemError};
use crate::problem::Problem;
use std::fmt;

/// A supported interchange format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// The native line-oriented text format of `problems::io`.
    Native,
    /// QUBO matrix form (dense or sparse coordinate), taken at face
    /// value: an unconstrained quadratic objective.
    Qubo,
    /// QUBO matrix form with penalty-term constraint recovery: disjoint
    /// uniform-weight penalty cliques are lifted back into `Σ xᵢ = b`
    /// equality rows and subtracted from the objective.
    QuboRecover,
    /// LP-file subset: binary variables, linear objective, `=`/`≤`/`≥`
    /// rows.
    Lp,
}

impl Format {
    /// All formats, in wire-token order.
    pub fn all() -> [Format; 4] {
        [
            Format::Native,
            Format::Qubo,
            Format::QuboRecover,
            Format::Lp,
        ]
    }

    /// The wire/CLI token naming this format.
    pub fn token(self) -> &'static str {
        match self {
            Format::Native => "native",
            Format::Qubo => "qubo",
            Format::QuboRecover => "qubo-recover",
            Format::Lp => "lp",
        }
    }

    /// Parses a wire/CLI token (case-insensitive).
    pub fn parse(s: &str) -> Option<Format> {
        match s.trim().to_ascii_lowercase().as_str() {
            "native" | "problem" | "text" => Some(Format::Native),
            "qubo" => Some(Format::Qubo),
            "qubo-recover" | "qubo_recover" => Some(Format::QuboRecover),
            "lp" => Some(Format::Lp),
            _ => None,
        }
    }

    /// Infers a format from a file path's extension (`.qubo` → QUBO,
    /// `.lp` → LP, anything else → native).
    pub fn from_path(path: &str) -> Format {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".qubo") {
            Format::Qubo
        } else if lower.ends_with(".lp") {
            Format::Lp
        } else {
            Format::Native
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Parses `text` in the given format, lowering to a [`Problem`].
///
/// # Errors
///
/// Returns [`ParseProblemError`] with the 1-based line number and the
/// offending line text on malformed input.
///
/// # Example
///
/// ```
/// use rasengan_problems::ingest::{parse_as, Format};
///
/// let text = "p qubo 0 2 2 1\n0 0 -1\n1 1 -1\n0 1 3\n";
/// let p = parse_as(Format::Qubo, text).unwrap();
/// assert_eq!(p.n_vars(), 2);
/// assert_eq!(p.n_constraints(), 0);
/// ```
pub fn parse_as(format: Format, text: &str) -> Result<Problem, ParseProblemError> {
    match format {
        Format::Native => parse_problem(text),
        Format::Qubo => qubo::parse_qubo(text, false),
        Format::QuboRecover => qubo::parse_qubo(text, true),
        Format::Lp => lp::parse_lp(text),
    }
}

/// Serializes a problem in the given format.
///
/// QUBO export folds equality constraints into quadratic penalty terms
/// (weight chosen automatically; see [`qubo::write_qubo`]); LP export
/// requires a linear objective.
///
/// # Errors
///
/// Returns a message when the problem cannot be represented in the
/// target format (e.g. quadratic objective → LP).
pub fn write_as(format: Format, problem: &Problem) -> Result<String, String> {
    match format {
        Format::Native => Ok(write_problem(problem)),
        Format::Qubo | Format::QuboRecover => qubo::write_qubo(problem, None),
        Format::Lp => lp::write_lp(problem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_tokens_roundtrip() {
        for f in Format::all() {
            assert_eq!(Format::parse(f.token()), Some(f));
            assert_eq!(f.to_string(), f.token());
        }
        assert_eq!(Format::parse("QUBO"), Some(Format::Qubo));
        assert_eq!(Format::parse("mps"), None);
    }

    #[test]
    fn extension_detection() {
        assert_eq!(Format::from_path("a/b/maxcut.qubo"), Format::Qubo);
        assert_eq!(Format::from_path("knap.LP"), Format::Lp);
        assert_eq!(Format::from_path("F1.problem"), Format::Native);
        assert_eq!(Format::from_path("noext"), Format::Native);
    }

    #[test]
    fn native_passthrough() {
        let text = "vars 2\nconstraint 1 : 1 1\n";
        let p = parse_as(Format::Native, text).unwrap();
        assert_eq!(p.n_vars(), 2);
        let round = write_as(Format::Native, &p).unwrap();
        let q = parse_as(Format::Native, &round).unwrap();
        assert_eq!(p.constraints(), q.constraints());
    }
}
