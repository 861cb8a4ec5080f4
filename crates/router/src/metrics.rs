//! Router-wide counters, mirroring the daemon's
//! [`calib_serve::ServeMetrics`] discipline: hot paths touch only
//! `Relaxed` atomics (they are counters, not synchronization — the
//! mutexes around the placement map provide cross-thread visibility),
//! and snapshots serialize into the merged `metrics` reply the router
//! answers clients with.

use std::sync::atomic::{AtomicU64, Ordering};

use calib_core::json::{Json, ToJson};
use calib_core::obs::LogHistogram;

/// Counters for one router process.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Client connections accepted over the router's lifetime.
    pub connections: AtomicU64,
    /// Client connections open right now (gauge).
    pub active_connections: AtomicU64,
    /// Request lines parsed from clients.
    pub requests: AtomicU64,
    /// Request lines forwarded to a backend shard.
    pub forwarded_requests: AtomicU64,
    /// Writes to backend shards; each carries every line a client
    /// connection had pending for that shard.
    pub shard_writes: AtomicU64,
    /// Flushes of a client's writer by relay threads; each carries every
    /// shard reply the relay had buffered.
    pub relay_flushes: AtomicU64,
    /// Tenants placed onto a shard (first sighting of the name).
    pub placements: AtomicU64,
    /// Migrations completed, handoff or fallback.
    pub migrations: AtomicU64,
    /// Migrations that failed outright (handoff *and* fallback failed).
    pub migration_failures: AtomicU64,
    /// Requests answered `busy` because their tenant was mid-migration.
    pub busy_rejects: AtomicU64,
    /// Requests answered `shard-unreachable` (connect/write failures) plus
    /// backend connections that died mid-stream.
    pub shard_unreachable: AtomicU64,
    /// End-to-end migration latency (evict through adopt), microseconds.
    pub migration_micros: LogHistogram,
}

impl RouterMetrics {
    /// A fresh registry.
    pub fn new() -> RouterMetrics {
        RouterMetrics::default()
    }

    /// The `"router"` object embedded in merged `metrics` replies and in
    /// the router's shutdown summary.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "connections",
                self.connections.load(Ordering::Relaxed).to_json(),
            ),
            (
                "active_connections",
                self.active_connections.load(Ordering::Relaxed).to_json(),
            ),
            ("requests", self.requests.load(Ordering::Relaxed).to_json()),
            (
                "forwarded_requests",
                self.forwarded_requests.load(Ordering::Relaxed).to_json(),
            ),
            (
                "shard_writes",
                self.shard_writes.load(Ordering::Relaxed).to_json(),
            ),
            (
                "relay_flushes",
                self.relay_flushes.load(Ordering::Relaxed).to_json(),
            ),
            (
                "placements",
                self.placements.load(Ordering::Relaxed).to_json(),
            ),
            (
                "migrations",
                self.migrations.load(Ordering::Relaxed).to_json(),
            ),
            (
                "migration_failures",
                self.migration_failures.load(Ordering::Relaxed).to_json(),
            ),
            (
                "busy_rejects",
                self.busy_rejects.load(Ordering::Relaxed).to_json(),
            ),
            (
                "shard_unreachable",
                self.shard_unreachable.load(Ordering::Relaxed).to_json(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_every_counter() {
        let m = RouterMetrics::new();
        m.migrations.fetch_add(3, Ordering::Relaxed);
        m.migration_micros.record(1500);
        let v = m.to_json();
        assert_eq!(v.get("migrations").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("migration_failures").and_then(Json::as_u64), Some(0));
        for key in [
            "connections",
            "active_connections",
            "requests",
            "forwarded_requests",
            "shard_writes",
            "relay_flushes",
            "placements",
            "busy_rejects",
            "shard_unreachable",
        ] {
            assert!(v.get(key).is_some(), "missing `{key}`");
        }
    }
}
