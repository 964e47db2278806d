//! Records the build's metadata: the rustc version and the build profile.
//! The commit is read when the benchmark runs (see `main.rs`), so a
//! rebuilt binary never reports a stale one.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=SOFIBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SOFIBENCH_PROFILE={profile}");
}
