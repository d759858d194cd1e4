//! The environment recorded with every result, and process-level
//! measurements.

use std::path::{Path, PathBuf};

use serde::Value;
use serde_json::json;

/// The checkout the benchmark was built from (the parent of its
/// package directory).
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package lives inside the checkout")
        .to_path_buf()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The commit checked out at the checkout root, read from `.git`
/// without running git; `unknown` outside a git work tree.
pub fn commit() -> String {
    let git = checkout_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPUs, toolchain, commit, build profile and the state directory's
/// filesystem type.
pub fn describe(state_dir: &Path) -> Value {
    json!({
        "cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rustc": env!("PERFBENCH_RUSTC"),
        "commit": commit(),
        "profile": env!("PERFBENCH_PROFILE"),
        "state_dir_fs": fs_type(state_dir),
    })
}
