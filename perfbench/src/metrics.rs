//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`) and
//! the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;

/// Metrics printed by an untraced run (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fiber_err_deg", "deg"),
];

/// Metrics printed by a traced run (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("kernelgen.plan_cold_s", "s"),
    ("kernelgen.memo_misses", "count"),
    ("kernelgen.generated", "count"),
    ("kernel.axm_ns", "ns"),
    ("kernel.axm1_ns", "ns"),
    ("kernel.axm_calls", "count"),
    ("kernel.axm1_calls", "count"),
    ("kernel.axm1_gflops", "GFLOP/s"),
    ("kernel.bytes_per_eval", "B_computed"),
    ("host.fma_peak_gflops", "GFLOP/s"),
    ("kernel.pct_fma_peak", "%"),
    ("solver.iters_mean", "count"),
    ("solver.converged_frac", "frac"),
    ("solver.failed_frac", "frac"),
    ("fiber_miss_frac", "frac"),
    ("solver.iter_ns", "ns"),
    ("solver.kernel_ns_per_iter", "ns"),
    ("solver.self_ns_per_iter", "ns"),
    ("batch.solve_s", "s"),
    ("batch.gflops", "GFLOP/s"),
    ("batch.lane_util", "frac"),
    ("batch.allocs_per_solve", "count"),
    ("backend.solve_batch_s", "s"),
    ("backend.overhead_s", "s"),
    ("dedup.s", "s"),
    ("dedup.pairs_per_s", "1/s"),
    ("extract.self_s", "s"),
    ("unattributed_s", "s"),
    ("wall_raw_s", "s"),
    ("host.speed_factor", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Median of `values` (sorted in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The benchmark's verdict for one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: every metric of `catalogue` with its unit when the
    /// run passed the correctness gate, and no numbers when it did not.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = Vec::new();
        if self.correct {
            for (name, unit) in catalogue {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal form; JSON has no non-finite numbers.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        let _g = crate::tests::serial();
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn failed_run_prints_no_numbers() {
        let _g = crate::tests::serial();
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_s", 1.5);
        let out = Outcome {
            correct: false,
            attempted: 3,
            failed: 1,
            metrics,
        };
        let line = out.to_json(END_TO_END);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
    }
}
