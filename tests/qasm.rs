//! Integration tests for the deployability extensions: OpenQASM export
//! of compiled Rasengan segments.

use rasengan::core::{Rasengan, RasenganConfig};
use rasengan::problems::registry::{benchmark, BenchmarkId};
use rasengan::qsim::qasm::{qasm_stats, to_qasm3};
use rasengan::qsim::Circuit;

#[test]
fn compiled_segments_export_to_qasm() {
    let p = benchmark(BenchmarkId::parse("F1").unwrap());
    let prepared = Rasengan::new(RasenganConfig::default())
        .prepare(&p)
        .unwrap();
    // Export each segment as its own deployable program.
    for range in &prepared.plan.segments {
        let mut circuit = Circuit::new(p.n_vars());
        for (i, op) in prepared.chain.ops[range.clone()].iter().enumerate() {
            circuit.extend(&op.circuit(0.3 + 0.1 * i as f64, p.n_vars()));
        }
        let text = to_qasm3(&circuit);
        let stats = qasm_stats(&text);
        assert_eq!(stats.qubits, p.n_vars());
        assert!(stats.gates > 0, "segment exported empty");
        assert!(text.contains("c = measure q;"));
    }
}

#[test]
fn qasm_export_of_every_benchmark_head_segment() {
    for name in ["F1", "K1", "J1", "S1", "G1"] {
        let p = benchmark(BenchmarkId::parse(name).unwrap());
        let prepared = Rasengan::new(RasenganConfig::default())
            .prepare(&p)
            .unwrap();
        let op = &prepared.chain.ops[0];
        let text = to_qasm3(&op.circuit(0.5, p.n_vars()));
        assert!(
            qasm_stats(&text).gates > 0,
            "{name}: first τ exported without gates"
        );
    }
}

#[test]
fn fidelity_budget_shrinks_segments_on_noisier_devices() {
    use rasengan::qsim::Device;
    let p = benchmark(BenchmarkId::parse("S3").unwrap());
    let kyiv = RasenganConfig::default().with_fidelity_budget(&Device::ibm_kyiv(), 0.5);
    let brisbane = RasenganConfig::default().with_fidelity_budget(&Device::ibm_brisbane(), 0.5);
    // Kyiv is noisier → smaller budget → at least as many segments.
    let seg_kyiv = Rasengan::new(kyiv).prepare(&p).unwrap().stats.n_segments;
    let seg_brisbane = Rasengan::new(brisbane)
        .prepare(&p)
        .unwrap()
        .stats
        .n_segments;
    assert!(seg_kyiv >= seg_brisbane);
}
