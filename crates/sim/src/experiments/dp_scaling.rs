//! E6 — offline DP runtime scaling (Theorem 4.7: `O(K n³)`).
//!
//! Measures wall time and DP states evaluated as `n` grows (fixed workload
//! shape), then fits a power law. Our memoized implementation of
//! Propositions 1–2 has an `O(n⁴)` worst-case guard (DESIGN.md §5), so the
//! fitted exponent is expected in the 2.5–4 range depending on how many
//! `(u, v, μ)` states the instance actually reaches.

use std::time::Instant;

use calib_core::obs::Counters;
use calib_core::Time;
use calib_offline::DpTable;
use calib_workloads::WeightModel;

use crate::stats::power_law_exponent;
use crate::table::{fmt_f, Table};

use super::Family;

#[derive(Debug, Clone)]
/// DpScalingConfig (see module docs).
pub struct DpScalingConfig {
    /// Workload family label.
    pub family: Family,
    /// Instance sizes `n` to sweep.
    pub sizes: Vec<usize>,
    /// Calibration length `T`.
    pub cal_len: Time,
    /// Budget as a fraction of `n` (e.g. 4 -> `K = n/4`, min 1).
    pub budget_divisor: usize,
    /// Weight model for generated jobs.
    pub weights: WeightModel,
    /// Repetitions per size (medians are reported).
    pub reps: u64,
}

impl Default for DpScalingConfig {
    fn default() -> Self {
        DpScalingConfig {
            family: Family::Poisson { rate: 0.6 },
            sizes: vec![10, 20, 40, 60, 80, 120],
            cal_len: 4,
            budget_divisor: 4,
            weights: WeightModel::Uniform { max: 9 },
            reps: 3,
        }
    }
}

#[derive(Debug, Clone)]
/// DpScalingRow (see module docs).
pub struct DpScalingRow {
    /// Jobs per instance.
    pub n: usize,
    /// Calibration budget `K`.
    pub budget: usize,
    /// Median wall time of one solve.
    pub median_seconds: f64,
    /// DP states evaluated.
    pub states: usize,
    /// DP states rejected as infeasible (from the observability counters).
    pub pruned: u64,
    /// Optimal flow found (sanity).
    pub flow: u128,
}

/// Runs the sweep and renders its table.
pub fn run(cfg: &DpScalingConfig) -> (Vec<DpScalingRow>, f64, Table) {
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        // At least ⌈n/T⌉ calibrations are needed for feasibility.
        let budget = n
            .div_ceil(cfg.budget_divisor)
            .max(n.div_ceil(cfg.cal_len as usize));
        let mut times = Vec::new();
        let mut states = 0;
        let mut pruned = 0;
        let mut flow = 0u128;
        for rep in 0..cfg.reps {
            let inst = cfg
                .family
                .instance(rep * 17 + n as u64, n, cfg.weights, cfg.cal_len);
            let counters = Counters::new();
            let start = Instant::now();
            // A degenerate draw (unnormalized instance or short budget)
            // would poison the whole sweep; skip the rep instead.
            let Ok(mut table) = DpTable::new(&inst, budget) else {
                continue;
            };
            let Some(sol) = table.solution(budget) else {
                continue;
            };
            table.flush_counters(&counters);
            times.push(start.elapsed().as_secs_f64());
            states = table.states_evaluated();
            pruned = counters.snapshot().dp_states_pruned;
            flow = sol.flow;
        }
        if times.is_empty() {
            continue;
        }
        times.sort_by(f64::total_cmp);
        rows.push(DpScalingRow {
            n,
            budget,
            median_seconds: times[times.len() / 2],
            states,
            pruned,
            flow,
        });
    }

    let xs: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.median_seconds.max(1e-7)).collect();
    let exponent = power_law_exponent(&xs, &ys);

    let mut table = Table::new(
        format!("E6: offline DP scaling (fit exponent {exponent:.2}; paper O(K n^3))"),
        &["n", "K", "median sec", "dp states", "pruned", "flow"],
    );
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            r.budget.to_string(),
            format!("{:.5}", r.median_seconds),
            r.states.to_string(),
            r.pruned.to_string(),
            fmt_f(r.flow as f64),
        ]);
    }
    (rows, exponent, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_runs_and_grows() {
        let cfg = DpScalingConfig {
            sizes: vec![6, 12, 24],
            reps: 1,
            ..Default::default()
        };
        let (rows, _exp, table) = run(&cfg);
        assert_eq!(rows.len(), 3);
        // More jobs -> more DP states.
        assert!(rows[2].states > rows[0].states);
        assert!(table.render().contains("E6"));
        assert!(table.render().contains("pruned"));
    }
}
