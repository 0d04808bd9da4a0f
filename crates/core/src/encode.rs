//! Compact versioned binary codec for [`Prepared`] — the compile
//! payload of the on-disk warm-state tier (`rasengan-serve`'s `persist`
//! module). The service persists finished solves as their rendered
//! `result` text, which needs no codec here.
//!
//! # Format discipline
//!
//! * **Versioned.** The codec has its format number
//!   ([`PREPARED_FORMAT`]), carried in the storage record header and
//!   bumped on any byte-layout change. Readers accept exactly their own
//!   version; anything else is quarantined and recomputed — there is no
//!   migration path, because every record is just a cache of
//!   deterministic computation.
//! * **Canonical.** One value, one byte sequence:
//!   `encode(decode(bytes)) == bytes`.
//! * **Validated.** The decoder is total: corrupt input yields
//!   [`WireError`], never a panic and never an out-of-bounds read. On
//!   top of the structural checks, [`decode_prepared`] re-validates the
//!   semantic invariants [`TransitionHamiltonian::new`] would otherwise
//!   assert (ternary, nonzero, ≤128 entries) and checks every segment
//!   range against the chain, so a record that passes its checksum but
//!   carries nonsense still degrades to a structured error.
//! * **Compact.** A `Prepared` record stores only the *sources* of the
//!   compiled artifacts — basis vectors, kept-operator vectors, plan
//!   ranges — and recompiles the per-segment programs on decode.
//!   Compilation from those sources is deterministic and cheap (mask
//!   extraction, no search); the expensive part of `prepare` is the
//!   reachability analysis that *chose* the operators, which the record
//!   skips entirely.

use crate::hamiltonian::TransitionHamiltonian;
use crate::prune::Chain;
use crate::segment::{SegmentPlan, SegmentProgram};
use crate::solver::{ChainStats, Prepared};
use rasengan_qsim::wire::{WireError, WireReader, WireWriter};

/// Format version of [`encode_prepared`] payloads.
pub const PREPARED_FORMAT: u16 = 1;

fn encode_i64_vec(w: &mut WireWriter, v: &[i64]) {
    w.usize(v.len());
    for &x in v {
        w.i64(x);
    }
}

fn decode_i64_vec(r: &mut WireReader) -> Result<Vec<i64>, WireError> {
    let n = r.len(8)?;
    (0..n).map(|_| r.i64()).collect()
}

/// A basis/operator vector must satisfy what
/// [`TransitionHamiltonian::new`] asserts — checked here so corrupt
/// records error instead of panicking the recovery scan.
fn validate_ternary(u: &[i64]) -> Result<(), WireError> {
    if u.len() > 128 {
        return Err(WireError::Invalid("vector longer than 128"));
    }
    if !u.iter().all(|&x| (-1..=1).contains(&x)) {
        return Err(WireError::Invalid("non-ternary vector entry"));
    }
    if u.iter().all(|&x| x == 0) {
        return Err(WireError::Invalid("all-zero transition vector"));
    }
    Ok(())
}

fn encode_chain_stats(w: &mut WireWriter, s: &ChainStats) {
    w.usize(s.m_basis);
    w.usize(s.raw_ops);
    w.usize(s.kept_ops);
    w.usize(s.n_segments);
    w.usize(s.max_segment_cx_depth);
    w.usize(s.total_cx_depth);
    w.usize(s.n_params);
    w.usize(s.simplify_cost.0);
    w.usize(s.simplify_cost.1);
}

fn decode_chain_stats(r: &mut WireReader) -> Result<ChainStats, WireError> {
    Ok(ChainStats {
        m_basis: r.usize()?,
        raw_ops: r.usize()?,
        kept_ops: r.usize()?,
        n_segments: r.usize()?,
        max_segment_cx_depth: r.usize()?,
        total_cx_depth: r.usize()?,
        n_params: r.usize()?,
        simplify_cost: (r.usize()?, r.usize()?),
    })
}

/// Encodes a [`Prepared`] compile artifact. The compiled
/// [`SegmentProgram`]s are *not* stored: they are a pure function of
/// the kept operators and the plan, rebuilt on decode.
pub fn encode_prepared(p: &Prepared) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.usize(p.basis.len());
    for u in &p.basis {
        encode_i64_vec(&mut w, u);
    }
    w.usize(p.chain.ops.len());
    for op in &p.chain.ops {
        encode_i64_vec(&mut w, op.u());
    }
    w.usize(p.chain.raw_len);
    w.usize(p.chain.pruned);
    w.bool(p.chain.early_stopped);
    w.bool(p.chain.support_capped);
    w.usize(p.chain.reached_states);
    w.usize(p.plan.segments.len());
    for range in &p.plan.segments {
        w.usize(range.start);
        w.usize(range.end);
    }
    w.u128(p.seed_label);
    encode_chain_stats(&mut w, &p.stats);
    w.into_bytes()
}

/// Decodes a [`Prepared`] record, validating every invariant the
/// in-process pipeline would otherwise assert, and deterministically
/// recompiling the per-segment programs exactly as
/// [`Rasengan::prepare`](crate::solver::Rasengan::prepare) does — so a
/// `solve_prepared` from a decoded artifact is bit-identical to one
/// from the original.
pub fn decode_prepared(bytes: &[u8]) -> Result<Prepared, WireError> {
    let mut r = WireReader::new(bytes);
    let n_basis = r.len(8)?;
    let mut basis = Vec::with_capacity(n_basis);
    for _ in 0..n_basis {
        let u = decode_i64_vec(&mut r)?;
        validate_ternary(&u)?;
        basis.push(u);
    }
    let n_ops = r.len(8)?;
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let u = decode_i64_vec(&mut r)?;
        validate_ternary(&u)?;
        ops.push(TransitionHamiltonian::new(u));
    }
    let chain = Chain {
        raw_len: r.usize()?,
        pruned: r.usize()?,
        early_stopped: r.bool()?,
        support_capped: r.bool()?,
        reached_states: r.usize()?,
        ops,
    };
    let n_segments = r.len(16)?;
    let mut segments = Vec::with_capacity(n_segments);
    let mut covered = 0usize;
    for _ in 0..n_segments {
        let start = r.usize()?;
        let end = r.usize()?;
        // Segments must tile the chain in order — the executor's
        // hand-off protocol depends on it.
        if start != covered || end <= start || end > chain.ops.len() {
            return Err(WireError::Invalid("segment range out of order"));
        }
        covered = end;
        segments.push(start..end);
    }
    if covered != chain.ops.len() {
        return Err(WireError::Invalid("segments do not cover the chain"));
    }
    let plan = SegmentPlan { segments };
    let seed_label = r.u128()?;
    let stats = decode_chain_stats(&mut r)?;
    r.finish()?;
    let programs = plan
        .segments
        .iter()
        .map(|range| SegmentProgram::compile(&chain.ops[range.clone()]))
        .collect();
    Ok(Prepared {
        basis,
        chain,
        plan,
        programs,
        seed_label,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Rasengan, RasenganConfig};
    use rasengan_problems::registry::{benchmark, BenchmarkId};

    fn prepared() -> Prepared {
        let problem = benchmark(BenchmarkId::parse("F1").unwrap());
        Rasengan::new(
            RasenganConfig::default()
                .with_seed(11)
                .with_shots(128)
                .with_max_iterations(8),
        )
        .prepare(&problem)
        .unwrap()
    }

    #[test]
    fn prepared_round_trips_and_recompiles_programs() {
        let prepared = prepared();
        let bytes = encode_prepared(&prepared);
        let decoded = decode_prepared(&bytes).unwrap();
        assert_eq!(decoded.basis, prepared.basis);
        assert_eq!(decoded.chain.ops, prepared.chain.ops);
        assert_eq!(decoded.chain.raw_len, prepared.chain.raw_len);
        assert_eq!(decoded.chain.pruned, prepared.chain.pruned);
        assert_eq!(decoded.plan, prepared.plan);
        assert_eq!(decoded.seed_label, prepared.seed_label);
        assert_eq!(decoded.stats, prepared.stats);
        assert_eq!(decoded.programs.len(), prepared.programs.len());
        for (a, b) in decoded.programs.iter().zip(&prepared.programs) {
            assert_eq!(a.ops.len(), b.ops.len());
            for (x, y) in a.ops.iter().zip(&b.ops) {
                assert_eq!(x.transition, y.transition);
                assert_eq!(x.support, y.support);
                assert_eq!(x.cx_cost, y.cx_cost);
            }
        }
        assert_eq!(encode_prepared(&decoded), bytes);
    }

    #[test]
    fn solve_from_decoded_prepared_is_bit_identical() {
        let problem = benchmark(BenchmarkId::parse("J1").unwrap());
        let solver = Rasengan::new(
            RasenganConfig::default()
                .with_seed(3)
                .with_shots(256)
                .with_max_iterations(10),
        );
        let prepared = solver.prepare(&problem).unwrap();
        let reloaded = decode_prepared(&encode_prepared(&prepared)).unwrap();
        let a = solver.solve_prepared(&problem, &prepared).unwrap();
        let b = solver.solve_prepared(&problem, &reloaded).unwrap();
        // Full structural equality covers every deterministic field;
        // wall-clock fields differ, so compare the deterministic parts.
        assert_eq!(a.best, b.best);
        assert_eq!(a.distribution, b.distribution);
        assert_eq!(a.history, b.history);
        assert_eq!(a.trained_times, b.trained_times);
        assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
        assert_eq!(a.arg.to_bits(), b.arg.to_bits());
        assert_eq!(a.total_shots, b.total_shots);
    }

    #[test]
    fn corrupt_prepared_records_error_instead_of_panicking() {
        let prepared = prepared();
        let bytes = encode_prepared(&prepared);
        // Every truncation point decodes to an error, not a panic.
        for cut in 0..bytes.len() {
            assert!(
                decode_prepared(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // A non-ternary basis entry would panic TransitionHamiltonian;
        // the decode gate must catch it first. Craft a minimal payload:
        // one basis vector [7], no ops.
        let mut w = WireWriter::new();
        w.usize(1); // basis len
        w.usize(1); // vector len
        w.i64(7); // non-ternary
        let err = decode_prepared(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::Invalid("non-ternary vector entry"));
        // Segments that fail to tile the chain are rejected.
        let mut tampered = prepared.clone();
        tampered.plan.segments[0].start += 0; // keep plan, tamper bytes instead
        let mut raw = encode_prepared(&tampered);
        // Flip a byte somewhere in the middle; decode must not panic
        // (it may or may not error — a flipped f64 bit can decode — but
        // the checksum layer above catches those).
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        let _ = decode_prepared(&raw);
    }
}
