//! The end-to-end serving benchmark as a library: the `servebench`
//! binary's modules, public so the benchmark's own tests can reach them.

pub mod config;
pub mod plan;
pub mod report;
pub mod run;
pub mod traced;
pub mod wire;

use std::path::PathBuf;
use std::process::Command;

/// Paths a run needs.
#[derive(Debug)]
pub struct Env {
    pub serve_bin: PathBuf,
    pub router_bin: PathBuf,
    /// Scratch space for logs, journals and trace output.
    pub out_dir: PathBuf,
    target: PathBuf,
}

impl Env {
    /// The paths under the target directory this binary was built into.
    pub fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let target = exe
            .parent()
            .and_then(|p| p.parent())
            .ok_or("cannot locate the target directory")?
            .to_path_buf();
        Ok(Env {
            serve_bin: target.join("release").join("calib-serve"),
            router_bin: target.join("release").join("calib-router"),
            out_dir: target.join("servebench"),
            target,
        })
    }

    /// Builds the daemon and router from the repository this benchmark
    /// sits in.
    pub fn build(&self) -> Result<(), String> {
        let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("no repository above the benchmark")?
            .to_path_buf();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "calib-serve", "-p", "calib-router"])
            .args(["--bin", "calib-serve", "--bin", "calib-router"])
            .arg("--manifest-path")
            .arg(repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&self.target)
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "building calib-serve and calib-router failed: {status}"
            ))
        }
    }
}
