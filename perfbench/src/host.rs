//! Host and build stamp, plus the process's peak memory.

use std::fmt;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The release profile's `lto` setting.
    pub lto: &'static str,
}

impl HostStamp {
    /// Reads the stamp of the running process.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            lto: env!("PERFBENCH_LTO"),
        }
    }
}

impl fmt::Display for HostStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host nproc={} cpu=\"{}\" rustc=\"{}\" profile={} lto={}",
            self.nproc, self.cpu, self.rustc, self.profile, self.lto
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}
