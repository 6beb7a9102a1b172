//! What the host is and what the process has used of it.

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> String {
    // `output()` waits for the child, so nothing outlives this call.
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_owned())
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line identifying the machine, the compiler and the source.
pub fn fingerprint() -> String {
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" git={}",
        cores(),
        proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` has none.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(user, system)` CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in `USER_HZ` = 100 ticks on
/// Linux); zeros where `/proc` has none.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}
