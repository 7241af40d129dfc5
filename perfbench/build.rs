//! Stamps the compiler version and the link-time-optimisation setting
//! into the binary, so every benchmark result names the toolchain and
//! profile that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // An environment override wins over the manifest, as in Cargo.
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let env_key = format!("CARGO_PROFILE_{}_LTO", profile.to_uppercase());
    let lto = std::env::var(&env_key)
        .ok()
        .or_else(|| manifest_lto(&profile))
        .unwrap_or_else(|| "false".to_string());
    println!("cargo:rustc-env=PERFBENCH_LTO={lto}");
    println!("cargo:rerun-if-env-changed={env_key}");
    println!("cargo:rerun-if-changed=Cargo.toml");
}

/// The `lto` key of `[profile.<profile>]` in this package's manifest.
fn manifest_lto(profile: &str) -> Option<String> {
    let manifest = std::fs::read_to_string("Cargo.toml").ok()?;
    let header = format!("[profile.{profile}]");
    let mut in_section = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_section = line == header;
        } else if in_section {
            if let Some(value) = line.strip_prefix("lto") {
                let value = value.trim_start().strip_prefix('=')?.trim();
                return Some(value.trim_matches('"').to_string());
            }
        }
    }
    None
}
