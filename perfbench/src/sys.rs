//! Process memory and a machine fingerprint, read from `/proc` and
//! `/sys` so every number can be told apart by the box that made it.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size in MB (2^20 bytes) from the text of
/// `/proc/<pid>/status`: the `VmHWM` line, which the kernel reports in kB.
pub fn parse_vmhwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb as f64 / 1024.0),
        _ => None,
    }
}

/// This process's peak RSS so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vmhwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// How long this thread has waited on a run queue so far, seconds: the
/// second field of `/proc/thread-self/schedstat`.
pub fn run_queue_wait_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let wait: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(wait as f64 / 1e9)
}

/// This process's user and system CPU time so far, seconds, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_user_sys_s() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok().map(|t| t / 100.0);
    Some((ticks(11)?, ticks(12)?))
}

/// What the numbers of one run were measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    /// CPUs this process may run on.
    pub nproc: usize,
    /// The cgroup CPU quota: `cpu.max` (v2) or `quota period` (v1).
    pub cpu_max: String,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Median wall time of [`calibration_loop`], seconds: a fixed
    /// amount of integer work, so drift in machine speed shows next to
    /// every timing.
    pub calib_s: f64,
}

impl Machine {
    /// The fingerprint as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"machine\":{{\"nproc\":{},\"cpu_max\":{},\"cpu_model\":{},\"calib_s\":{}}}}}",
            self.nproc,
            obs::json::json_str(&self.cpu_max),
            obs::json::json_str(&self.cpu_model),
            self.calib_s
        )
    }
}

/// Read the machine fingerprint and time the calibration loop.
pub fn machine() -> Machine {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let cpu_max = read("/sys/fs/cgroup/cpu.max")
        .or_else(|| {
            let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
            let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
            Some(format!("{quota} {period}"))
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(calibration_loop(black_box(20_000_000)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_max,
        cpu_model,
        calib_s: crate::median(&mut samples),
    }
}

/// A fixed chain of dependent integer operations (xorshift plus a
/// multiply), `n` steps long.
pub fn calibration_loop(n: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(31).wrapping_add(x);
    }
    acc
}
