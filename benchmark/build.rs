//! Records the compiler version and the source commit for the benchmark's
//! environment line. Both are collected here, at build time, so the
//! benchmark process itself never spawns a subprocess.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!(
        "cargo:rustc-env=BENCH_COMMIT={}",
        commit().unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}

/// The checked-out commit, read from the git metadata files (no `git`
/// binary needed). `None` outside a git checkout. Only files that exist
/// are watched: Cargo reruns a build script on every build while a
/// watched path is missing.
fn commit() -> Option<String> {
    let git = Path::new("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        println!("cargo:rerun-if-changed=../.git/{reference}");
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    println!("cargo:rerun-if-changed=../.git/packed-refs");
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
