//! The pinned workload definitions in `workloads.json`: generator
//! parameters, daemon and router flags, the two fixed open-loop rates and
//! the latency limit. The rates were picked once from the closed-loop
//! capacity measured at the commit that added this benchmark; they are never
//! re-derived from the program under test.

use calib_core::json::Json;
use calib_core::{Cost, Time};
use calib_serve::Algorithm;

/// The workload file, compiled into the binary so a run cannot drift from
/// the definitions it was built with.
pub const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// How the tenants' jobs arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// `calib_workloads::arrivals::bursty`: bursts of `burst` jobs per
    /// machine, `gap` steps apart, all released at the burst start; the
    /// clock is ticked every `tick_period` steps.
    Bursty {
        burst: usize,
        gap: Time,
        tick_period: Time,
    },
    /// `calib_workloads::arrivals::poisson` at `rate` jobs per step; one
    /// release group per arrive/tick pair.
    Poisson { rate: f64 },
}

/// One tenant template.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub algorithm: Algorithm,
    pub machines: usize,
    pub cal_len: Time,
    pub cal_cost: Cost,
    /// Job weights are uniform in `[1, max_weight]`.
    pub max_weight: u64,
    /// Admission weight sent in `hello`.
    pub weight: u64,
}

/// The crash-recovery phase of a journaled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverSpec {
    /// Tenants parked per cycle.
    pub tenants: usize,
    /// Plan steps each parked tenant submits before the crash.
    pub steps: usize,
    /// Kill-and-restart cycles per run.
    pub cycles: usize,
}

/// Where the daemon processes sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One daemon.
    Daemon,
    /// `calib-router` in front of two daemons sharing a journal directory.
    Router,
}

/// One workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
    /// Listed in `BENCHMARK.json`, so its end-to-end metrics are gated.
    /// An ungated workload runs by name and prints the same metrics.
    pub gated: bool,
    pub topology: Topology,
    pub daemon_flags: Vec<String>,
    pub router_flags: Vec<String>,
    pub journal: bool,
    pub tenants: Vec<TenantSpec>,
    pub arrivals: Arrivals,
    pub recover: Option<RecoverSpec>,
    /// Plan steps of one tenant session. A phase runs consecutive sessions
    /// (generations) of every tenant, so sessions stay this short however
    /// long the phase.
    pub session_steps: usize,
    /// Open-loop request rates, requests per second.
    pub rate_light: f64,
    pub rate_heavy: f64,
    /// Requests each tenant keeps in flight in the closed phase.
    pub closed_window: usize,
    /// The `heavy` phase's latency limit, microseconds.
    pub latency_limit_us: f64,
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn strings(v: &Json, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| format!("`{key}` must be an array"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}` must hold strings"))
            })
            .collect(),
    }
}

fn tenant(v: &Json) -> Result<TenantSpec, String> {
    let name = v
        .get("algorithm")
        .and_then(Json::as_str)
        .ok_or("tenant needs an `algorithm`")?;
    Ok(TenantSpec {
        algorithm: Algorithm::from_name(name).ok_or_else(|| format!("unknown algorithm {name}"))?,
        machines: uint(v, "machines")? as usize,
        cal_len: uint(v, "cal_len")? as Time,
        cal_cost: Cost::from(uint(v, "cal_cost")?),
        max_weight: uint(v, "max_weight")?.max(1),
        weight: uint(v, "weight")?.max(1),
    })
}

fn workload(v: &Json) -> Result<Workload, String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("workload needs a `name`")?
        .to_string();
    let ctx = |e: String| format!("workload {name}: {e}");
    let arr = v
        .get("arrivals")
        .ok_or_else(|| ctx("no `arrivals`".into()))?;
    let arrivals = match arr.get("kind").and_then(Json::as_str) {
        Some("bursty") => Arrivals::Bursty {
            burst: uint(arr, "burst").map_err(ctx)? as usize,
            gap: uint(arr, "gap").map_err(ctx)? as Time,
            tick_period: uint(arr, "tick_period").map_err(ctx)? as Time,
        },
        Some("poisson") => Arrivals::Poisson {
            rate: num(arr, "rate").map_err(ctx)?,
        },
        other => return Err(ctx(format!("unknown arrivals kind {other:?}"))),
    };
    let recover = match v.get("recover") {
        None => None,
        Some(r) => Some(RecoverSpec {
            tenants: uint(r, "tenants").map_err(ctx)? as usize,
            steps: uint(r, "steps").map_err(ctx)? as usize,
            cycles: uint(r, "cycles").map_err(ctx)?.max(1) as usize,
        }),
    };
    let topology = match v.get("topology").and_then(Json::as_str) {
        Some("daemon") => Topology::Daemon,
        Some("router") => Topology::Router,
        other => return Err(ctx(format!("unknown topology {other:?}"))),
    };
    Ok(Workload {
        why: v
            .get("why")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        gated: v.get("gated") != Some(&Json::Bool(false)),
        topology,
        daemon_flags: strings(v, "daemon_flags").map_err(ctx)?,
        router_flags: strings(v, "router_flags").map_err(ctx)?,
        journal: v.get("journal") == Some(&Json::Bool(true)),
        tenants: v
            .get("tenants")
            .and_then(Json::as_arr)
            .ok_or_else(|| ctx("no `tenants`".into()))?
            .iter()
            .map(tenant)
            .collect::<Result<_, _>>()
            .map_err(ctx)?,
        arrivals,
        recover,
        session_steps: uint(v, "session_steps").map_err(ctx)?.max(2) as usize,
        rate_light: num(v, "rate_light").map_err(ctx)?,
        rate_heavy: num(v, "rate_heavy").map_err(ctx)?,
        closed_window: uint(v, "closed_window").map_err(ctx)?.max(1) as usize,
        latency_limit_us: num(v, "latency_limit_us").map_err(ctx)?,
        name,
    })
}

/// Every pinned workload, in file order.
pub fn workloads() -> Result<Vec<Workload>, String> {
    let root = Json::parse(WORKLOADS_JSON).map_err(|e| format!("workloads.json: {e}"))?;
    root.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("workloads.json: no `workloads` array")?
        .iter()
        .map(workload)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_workloads_parse_with_positive_rates() {
        let all = workloads().unwrap();
        let names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["deep-queue", "chatty-journaled", "routed"]);
        for w in &all {
            assert!(
                w.rate_light > 0.0 && w.rate_heavy > w.rate_light,
                "{}",
                w.name
            );
            assert!(w.latency_limit_us > 0.0);
            assert!(!w.tenants.is_empty());
        }
    }
}
