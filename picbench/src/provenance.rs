//! Where a record came from: host parallelism, the rayon thread count
//! the solver fans out over, the git revision of the measured tree, and
//! the compiler and profile the binary was built with.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// The provenance block carried by every record.
pub fn block() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (sha, dirty) = git_revision();
    json!({
        "nproc": nproc,
        "rayon_threads": rayon::current_num_threads(),
        "git_sha": sha,
        "git_dirty": dirty,
        "rustc": env!("PICBENCH_RUSTC"),
        "profile": env!("PICBENCH_PROFILE"),
        "allocator": "memtrack::TrackingAllocator",
    })
}

/// `(sha, dirty)` of the checkout the benchmark runs in; `"unknown"` for
/// both outside a git work tree. Git is kept from searching above the
/// current directory, so only the checkout itself is read.
fn git_revision() -> (String, String) {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .args(args)
            .current_dir(&cwd)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(sha) = git(&["rev-parse", "HEAD"]) else {
        return ("unknown".into(), "unknown".into());
    };
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    (sha, dirty)
}
