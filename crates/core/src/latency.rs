//! Training-latency model (paper Table 1, Fig. 12, Fig. 13).
//!
//! Quantum time is modeled from the device's gate/readout/reset
//! durations and the executed circuit depths; classical time is the
//! measured wall-clock of the optimizer and bookkeeping. The paper's
//! latency numbers exclude data-communication time, as do these.

use rasengan_qsim::Device;

/// Accumulated latency of a full training run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Latency {
    /// Modeled quantum execution time in seconds (circuits × shots).
    pub quantum_s: f64,
    /// Measured classical time in seconds (optimizer, purification,
    /// bookkeeping).
    pub classical_s: f64,
    /// Measured wall-clock per pipeline stage (a breakdown of
    /// `classical_s`; baselines that don't stage their work leave it
    /// zeroed).
    pub stages: StageTimes,
}

impl Latency {
    /// Total latency.
    pub fn total_s(&self) -> f64 {
        self.quantum_s + self.classical_s
    }
}

/// Per-stage wall-clock of the execution engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// Compilation: basis, simplification, chain, segmentation.
    pub prepare_s: f64,
    /// Variational training loop (all objective evaluations).
    pub train_s: f64,
    /// Final execution at the trained parameters.
    pub execute_s: f64,
    /// Wall-clock spent inside resilience retry attempts (a subset of
    /// `train_s`/`execute_s`, not an additional stage); zero unless the
    /// solver's retry budget was actually drawn on.
    pub retry_s: f64,
}

impl StageTimes {
    /// Sum of the disjoint stages: `prepare_s + train_s + execute_s`.
    /// `retry_s` is deliberately excluded — it is wall-clock
    /// spent *inside* retried training/execution attempts and is
    /// already counted there; adding it would double-count every
    /// recovered segment. Use this (not a hand-rolled field sum) when
    /// comparing the stage breakdown against `Latency::classical_s`.
    pub fn stage_sum(&self) -> f64 {
        self.prepare_s + self.train_s + self.execute_s
    }
}

/// Models the duration of one shot of a segment circuit given its CX
/// depth and single-qubit layer count: reset + gates + readout.
pub fn segment_shot_seconds(device: &Device, cx_depth: usize, layers_1q: usize) -> f64 {
    device.reset_time
        + cx_depth as f64 * device.gate_time_2q
        + layers_1q as f64 * device.gate_time_1q
        + device.readout_time
}

/// Models the total quantum time of executing a segment `shots` times.
pub fn segment_execution_seconds(
    device: &Device,
    cx_depth: usize,
    layers_1q: usize,
    shots: usize,
) -> f64 {
    segment_shot_seconds(device, cx_depth, layers_1q) * shots as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_totals() {
        let l = Latency {
            quantum_s: 0.3,
            classical_s: 0.2,
            ..Latency::default()
        };
        assert!((l.total_s() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn stage_sum_excludes_retry_overlap() {
        let s = StageTimes {
            prepare_s: 0.1,
            train_s: 0.4,
            execute_s: 0.2,
            retry_s: 0.15, // subset of train_s/execute_s
        };
        assert!((s.stage_sum() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn shot_seconds_scale_with_depth() {
        let dev = Device::ibm_quebec();
        let shallow = segment_shot_seconds(&dev, 34, 4);
        let deep = segment_shot_seconds(&dev, 340, 4);
        assert!(deep > shallow);
        assert!((deep - shallow - 306.0 * dev.gate_time_2q).abs() < 1e-12);
    }

    #[test]
    fn execution_linear_in_shots() {
        let dev = Device::ibm_quebec();
        let one = segment_execution_seconds(&dev, 34, 2, 1);
        let many = segment_execution_seconds(&dev, 34, 2, 1024);
        assert!((many / one - 1024.0).abs() < 1e-9);
    }
}
