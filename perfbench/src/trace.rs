//! The traced run's span tree: the benchmark's own spans around each
//! call into a layer, the solver's span trees grafted under them, self
//! time per layer, and the JSONL export.

use rasengan_obs::span::{Span, TraceTree};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Label of the benchmark span that wraps a solver call; the solver's
/// own tree (root `solve`) is grafted under each one, in order.
pub const SOLVE: &str = "core.solve";

/// The layer a span's self time is charged to. Benchmark spans are
/// labelled `<layer>.<call>`; the solver's spans keep their own labels.
pub fn layer_of(label: &str) -> &'static str {
    match label {
        "math.basis" => "math",
        "core.simplify" | "core.prune" | "core.segment" | "prepare" => "compile",
        "train" => "train",
        "execute" | "segment" | "attempt" => "execute",
        "solve" | SOLVE => "solver",
        _ if label.starts_with("problems.") => "problems",
        _ if label.starts_with("serve.") => "serve",
        _ => "bench",
    }
}

/// Attaches `solver_trees[i]` under the `i`-th [`SOLVE`] span in
/// depth-first (open) order. Returns how many were attached.
pub fn graft(root: &mut Span, solver_trees: &mut impl Iterator<Item = TraceTree>) -> usize {
    let mut attached = 0;
    for child in &mut root.children {
        if child.label == SOLVE {
            if let Some(tree) = solver_trees.next() {
                child.children.push(tree.root);
                attached += 1;
            }
        } else {
            attached += graft(child, solver_trees);
        }
    }
    attached
}

/// Self time (duration minus the part its children cover) summed per
/// layer, in seconds.
pub fn self_seconds(root: &Span) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    fn walk(span: &Span, out: &mut BTreeMap<&'static str, f64>) {
        let covered: f64 = span.children.iter().map(|c| c.elapsed_s).sum();
        *out.entry(layer_of(span.label)).or_insert(0.0) += (span.elapsed_s - covered).max(0.0);
        for child in &span.children {
            walk(child, out);
        }
    }
    walk(root, &mut out);
    out
}

/// Total duration and count of the spans carrying `label`.
pub fn label_total(root: &Span, label: &str) -> (f64, usize) {
    let own = if root.label == label {
        (root.elapsed_s, 1)
    } else {
        (0.0, 0)
    };
    root.children.iter().fold(own, |(s, n), c| {
        let (cs, cn) = label_total(c, label);
        (s + cs, n + cn)
    })
}

/// Writes the tree as JSONL under `target/rasengan-reports/` and
/// returns the path.
pub fn write_jsonl(tree: &TraceTree, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/rasengan-reports");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("perf-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, tree.to_jsonl())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_obs::span::Tracer;

    fn span(label: &'static str, elapsed_s: f64, children: Vec<Span>) -> Span {
        Span {
            id: 0,
            label,
            ordinal: 0,
            attrs: Vec::new(),
            elapsed_s,
            children,
        }
    }

    #[test]
    fn self_time_telescopes_to_the_root() {
        let solver = span(
            "solve",
            0.8,
            vec![span("train", 0.5, vec![]), span("execute", 0.2, vec![])],
        );
        let root = span(
            "bench",
            1.0,
            vec![
                span("math.basis", 0.05, vec![]),
                span(SOLVE, 0.9, vec![solver]),
            ],
        );
        let s = self_seconds(&root);
        let total: f64 = s.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s["train"] - 0.5).abs() < 1e-12);
        assert!((s["solver"] - 0.2).abs() < 1e-12);
        assert!((s["bench"] - 0.05).abs() < 1e-12);
        assert_eq!(label_total(&root, "train"), (0.5, 1));
    }

    #[test]
    fn solver_trees_graft_in_open_order() {
        let mut t = Tracer::memory("bench");
        for _ in 0..2 {
            let tok = t.open(SOLVE);
            t.close(tok);
        }
        let mut tree = t.finish().unwrap();
        let trees = (0..2).map(|i| {
            let mut s = Tracer::memory("solve");
            let tok = s.open(if i == 0 { "train" } else { "execute" });
            s.close(tok);
            s.finish().unwrap()
        });
        assert_eq!(graft(&mut tree.root, &mut trees.into_iter()), 2);
        let first = &tree.root.children[0].children[0];
        assert_eq!(first.children[0].label, "train");
        assert_eq!(
            tree.root.children[1].children[0].children[0].label,
            "execute"
        );
        assert_eq!(tree.to_jsonl().lines().count(), tree.count());
    }
}
