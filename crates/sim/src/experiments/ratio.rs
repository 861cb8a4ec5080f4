//! E1 / E2 — empirical competitive ratios of Algorithms 1 and 2 against the
//! exact offline optimum (`opt_online_cost`), across workload families and
//! `(G, T)` settings.
//!
//! Paper claims: Algorithm 1 ≤ 3 (Theorem 3.3); Algorithm 2 ≤ 12
//! (Theorem 3.8). The tables report mean/max observed ratios; the benches
//! and EXPERIMENTS.md record that the maxima stay beneath the proven
//! constants with real slack.

use calib_core::obs::{CounterSnapshot, Counters, CountingProbe, SpanTimer};
use calib_core::{Cost, Time};
use calib_offline::opt_online_cost;
use calib_online::{run_online_probed, Alg1, Alg2, EngineConfig};
use calib_workloads::WeightModel;

use crate::runner::run_parallel_metered;
use crate::stats::Summary;
use crate::table::{fmt_f, Table};

use super::{default_families, fmt_metrics, Family};

/// Which algorithm the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 1 (unweighted, Theorem 3.3 bound 3).
    Alg1,
    /// Algorithm 2 (weighted, Theorem 3.8 bound 12).
    Alg2,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct RatioConfig {
    /// Algorithm under test.
    pub algo: Algo,
    /// Workload families to sweep.
    pub families: Vec<Family>,
    /// Jobs per instance.
    pub n: usize,
    /// Calibration lengths to sweep.
    pub cal_lens: Vec<Time>,
    /// Calibration costs to sweep.
    pub cal_costs: Vec<Cost>,
    /// Instances per (family, T, G) cell.
    pub seeds: u64,
    /// Weight model (E2 uses non-unit models).
    pub weights: WeightModel,
}

impl RatioConfig {
    /// E1 defaults: unweighted, Algorithm 1.
    pub fn e1() -> Self {
        RatioConfig {
            algo: Algo::Alg1,
            families: default_families(),
            n: 40,
            cal_lens: vec![2, 5, 10],
            cal_costs: vec![2, 10, 50, 200],
            seeds: 5,
            weights: WeightModel::Unit,
        }
    }

    /// E2 defaults: weighted, Algorithm 2.
    pub fn e2() -> Self {
        RatioConfig {
            algo: Algo::Alg2,
            weights: WeightModel::Pareto {
                alpha: 1.1,
                cap: 100,
            },
            ..RatioConfig::e1()
        }
    }
}

/// One sweep cell's outcome.
#[derive(Debug, Clone)]
pub struct RatioCell {
    /// Workload family label.
    pub family: String,
    /// Calibration length `T`.
    pub cal_len: Time,
    /// Calibration cost `G`.
    pub cal_cost: Cost,
    /// Per-seed measured ratios.
    pub ratios: Vec<f64>,
    /// Engine counters merged over the cell's seeds.
    pub metrics: CounterSnapshot,
    /// Wall-clock nanoseconds summed over the cell's solves (online run +
    /// offline optimum).
    pub nanos: u64,
}

/// Runs the sweep, returning per-cell ratios (for tests) and the table.
pub fn run(cfg: &RatioConfig) -> (Vec<RatioCell>, Table) {
    let mut points: Vec<(Family, Time, Cost, u64)> = Vec::new();
    for &fam in &cfg.families {
        for &t in &cfg.cal_lens {
            for &g in &cfg.cal_costs {
                for seed in 0..cfg.seeds {
                    points.push((fam, t, g, seed));
                }
            }
        }
    }

    let (results, sweep, span) = run_parallel_metered(points, None, |&(fam, t, g, seed), sweep| {
        // Per-item registry for the cell's row; the shared sweep registry
        // receives the same events through the probe pair.
        let local = Counters::new();
        let timer = SpanTimer::start("ratio_point");
        let mut probe = (CountingProbe::new(&local), CountingProbe::new(sweep));
        let inst = fam.instance(seed.wrapping_mul(7919) + 1, cfg.n, cfg.weights, t);
        let res = match cfg.algo {
            Algo::Alg1 => run_online_probed(
                &inst,
                g,
                &mut Alg1::new(),
                EngineConfig::default(),
                &mut probe,
            ),
            Algo::Alg2 => run_online_probed(
                &inst,
                g,
                &mut Alg2::new(),
                EngineConfig::default(),
                &mut probe,
            ),
        };
        // A NaN ratio poisons the cell's summary; the row is skipped
        // below rather than misreported.
        let ratio = match opt_online_cost(&inst, g) {
            Ok(opt) => res.cost as f64 / opt.cost as f64,
            Err(_) => f64::NAN,
        };
        (fam, t, g, ratio, local.snapshot(), timer.elapsed_ns())
    });

    // Group by (family, T, G).
    let mut cells: Vec<RatioCell> = Vec::new();
    for (fam, t, g, ratio, snap, nanos) in results {
        let label = fam.label();
        match cells
            .iter_mut()
            .find(|c| c.family == label && c.cal_len == t && c.cal_cost == g)
        {
            Some(c) => {
                c.ratios.push(ratio);
                c.metrics = c.metrics.merged(snap);
                c.nanos += nanos;
            }
            None => cells.push(RatioCell {
                family: label,
                cal_len: t,
                cal_cost: g,
                ratios: vec![ratio],
                metrics: snap,
                nanos,
            }),
        }
    }

    let (name, bound) = match cfg.algo {
        Algo::Alg1 => ("E1: Alg1 vs OPT (bound 3)", 3.0),
        Algo::Alg2 => ("E2: Alg2 vs OPT (bound 12)", 12.0),
    };
    let mut table = Table::new(
        name,
        &[
            "family",
            "T",
            "G",
            "mean ratio",
            "max ratio",
            "within bound",
            "metrics",
            "ms",
        ],
    );
    for c in &cells {
        let Some(s) = Summary::from_values(&c.ratios) else {
            continue;
        };
        table.row(vec![
            c.family.clone(),
            c.cal_len.to_string(),
            c.cal_cost.to_string(),
            fmt_f(s.mean),
            fmt_f(s.max),
            (s.max <= bound).to_string(),
            fmt_metrics(&c.metrics),
            fmt_f(c.nanos as f64 / 1e6),
        ]);
    }
    // Sweep-wide footer: the runner's shared registry plus total wall-clock.
    table.row(vec![
        "(sweep)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_metrics(&sweep),
        fmt_f(span.seconds() * 1e3),
    ]);
    (cells, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(algo: Algo, weights: WeightModel) -> RatioConfig {
        RatioConfig {
            algo,
            families: vec![Family::Poisson { rate: 0.5 }, Family::Train],
            n: 10,
            cal_lens: vec![3],
            cal_costs: vec![4, 20],
            seeds: 2,
            weights,
        }
    }

    #[test]
    fn e1_tiny_within_bound() {
        let (cells, table) = run(&tiny(Algo::Alg1, WeightModel::Unit));
        assert_eq!(cells.len(), 2 * 2);
        for c in &cells {
            for &r in &c.ratios {
                assert!(r <= 3.0 + 1e-9, "{} ratio {r}", c.family);
                assert!(r >= 1.0 - 1e-9);
            }
        }
        assert!(table.render().contains("within bound"));
        assert!(table.render().contains("(sweep)"));
    }

    #[test]
    fn cells_carry_engine_metrics() {
        let (cells, _) = run(&tiny(Algo::Alg1, WeightModel::Unit));
        for c in &cells {
            // Every instance dispatches its jobs, so the probed engine must
            // have fed the cell's registry.
            assert!(c.metrics.events > 0, "{}: no events", c.family);
            assert!(c.metrics.dispatches > 0, "{}: no dispatches", c.family);
            assert!(c.metrics.calibrations > 0, "{}: no calibrations", c.family);
            assert!(c.nanos > 0, "{}: no wall-clock", c.family);
        }
    }

    #[test]
    fn e2_tiny_within_bound() {
        let (cells, _) = run(&tiny(Algo::Alg2, WeightModel::Uniform { max: 9 }));
        for c in &cells {
            for &r in &c.ratios {
                assert!(r <= 12.0 + 1e-9, "{} ratio {r}", c.family);
            }
        }
    }
}
