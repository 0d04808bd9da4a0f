//! **Figure 15** — ablation of the optimization strategies on circuit
//! depth across the 20 benchmarks.
//!
//! Depth is measured as the CX cost of the deepest executable unit:
//! the whole chain without segmentation, one segment with it.
//! Expected shape (paper): opt 1 (simplification) ~9.8% average
//! reduction (ineffective on already-sparse F1/K1/G1), opt 2 (pruning)
//! ~67%, opt 3 (segmentation) a further ~82%.

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::{RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{all_ids, benchmark};

fn main() {
    let settings = RunSettings::from_args();
    let mut table = Table::new(
        "Figure 15: circuit depth (CX) under incremental optimizations",
        vec![
            "bench",
            "none",
            "+opt1_simplify",
            "+opt2_prune",
            "+opt3_segment",
        ],
    );

    let mut reductions = [0.0f64; 3];
    let mut count = 0usize;

    for id in all_ids() {
        let problem = benchmark(id);
        let depth = |simplify: bool, prune: bool, segmented: bool| -> usize {
            let mut cfg = RasenganConfig::default().with_seed(settings.seed);
            cfg.simplify = simplify;
            cfg.prune = prune;
            cfg.early_stop = prune;
            cfg.segmented = segmented;
            let prep = Rasengan::new(cfg).prepare(&problem).expect("prepares");
            prep.stats.max_segment_cx_depth
        };
        let none = depth(false, false, false);
        let opt1 = depth(true, false, false);
        let opt2 = depth(true, true, false);
        let opt3 = depth(true, true, true);
        if none > 0 && opt1 > 0 && opt2 > 0 {
            reductions[0] += 1.0 - opt1 as f64 / none as f64;
            reductions[1] += 1.0 - opt2 as f64 / opt1 as f64;
            reductions[2] += 1.0 - opt3 as f64 / opt2 as f64;
            count += 1;
        }
        table.row(vec![
            id.to_string(),
            none.to_string(),
            opt1.to_string(),
            opt2.to_string(),
            opt3.to_string(),
        ]);
        eprintln!("{id}: {none} -> {opt1} -> {opt2} -> {opt3}");
    }

    table.print();
    println!(
        "average reductions: opt1 {}%, opt2 {}%, opt3 {}%",
        fmt(100.0 * reductions[0] / count as f64),
        fmt(100.0 * reductions[1] / count as f64),
        fmt(100.0 * reductions[2] / count as f64),
    );
    if let Ok(p) = table.save_csv("fig15_ablation_depth") {
        println!("saved: {}", p.display());
    }
}
