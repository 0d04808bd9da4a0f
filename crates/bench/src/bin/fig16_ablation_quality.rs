//! **Figure 16** — ablation of the optimization strategies on ARG and
//! in-constraints rate, on the noise-free simulator and under device
//! noise.
//!
//! Expected shape (paper): opt 1 barely moves ARG (1.04×), opt 2 helps
//! 1.18×/1.37× (sim/hardware), opt 3's segmentation + purification is
//! the big win (2.43× ARG, 303× on hardware; in-constraints rate jumps
//! from single digits to 100%).

#![forbid(unsafe_code)]

use rasengan_bench::report::fmt;
use rasengan_bench::{RunSettings, Table};
use rasengan_core::{Rasengan, RasenganConfig};
use rasengan_problems::registry::{benchmark, BenchmarkId};
use rasengan_qsim::{Device, NoiseModel};

fn main() {
    let settings = RunSettings::from_args();
    let benches = ["F1", "K1", "J1"];
    let iterations = if settings.full { 100 } else { 20 };

    let variants: [(&str, bool, bool, bool, bool); 4] = [
        ("none", false, false, false, false),
        ("+opt1", true, false, false, false),
        ("+opt2", true, true, false, false),
        ("+opt3", true, true, true, true),
    ];
    let envs: [(&str, Option<NoiseModel>); 3] = [
        ("simulator", None),
        ("IBM-Kyiv", Some(Device::ibm_kyiv().noise)),
        ("IBM-Brisbane", Some(Device::ibm_brisbane().noise)),
    ];

    let mut table = Table::new(
        "Figure 16: ARG / in-constraints rate under incremental optimizations",
        vec!["env", "variant", "avg_ARG", "avg_in_constraints"],
    );

    for (env_name, noise) in envs {
        for (vname, simplify, prune, segmented, purify) in variants {
            let mut sum_arg = 0.0;
            let mut sum_rate = 0.0;
            for (i, b) in benches.iter().enumerate() {
                let p = benchmark(BenchmarkId::parse(b).unwrap());
                let mut cfg = RasenganConfig::default()
                    .with_seed(settings.seed + i as u64)
                    .with_max_iterations(iterations);
                cfg.simplify = simplify;
                cfg.prune = prune;
                cfg.early_stop = prune;
                cfg.segmented = segmented;
                cfg.purify = purify;
                if let Some(nm) = noise {
                    cfg = cfg.with_noise(nm).with_shots(settings.shots());
                }
                match Rasengan::new(cfg).solve(&p) {
                    Ok(out) => {
                        sum_arg += out.arg;
                        // Without purification the relevant rate is the
                        // raw one; with it the output rate (1.0).
                        sum_rate += if purify {
                            out.in_constraints_rate
                        } else {
                            out.raw_in_constraints_rate
                        };
                    }
                    Err(_) => {
                        sum_arg += 1e4;
                    }
                }
            }
            let n = benches.len() as f64;
            table.row(vec![
                env_name.to_string(),
                vname.to_string(),
                fmt(sum_arg / n),
                fmt(sum_rate / n),
            ]);
            eprintln!("{env_name} {vname}: arg {}", fmt(sum_arg / n));
        }
    }

    table.print();
    if let Ok(p) = table.save_csv("fig16_ablation_quality") {
        println!("saved: {}", p.display());
    }
}
