//! What the harness reads from the machine: process CPU and memory, the
//! noise-guard reference kernel, and the facts printed in the run header.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Linux reports process times in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15). 0.0 where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MB; 0.0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// Short commit hash, or "unknown" outside a git checkout.
pub fn commit() -> String {
    first_line_of("git", &["-C", &package_dir().to_string_lossy(), "rev-parse", "--short", "HEAD"])
}

/// The `benchmark/` package directory: where cargo says it is when run
/// through `cargo run`, else where it was when compiled.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// One pass of the reference kernel: a fixed integer recurrence over a
/// 256 KB table (L2-resident), about 3 ms on this box.
fn ref_slice(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..1_200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & mask;
        table[slot] = table[slot].wrapping_add(x);
    }
    x
}

/// Time the fixed reference kernel: the faster of two passes, in ms (a
/// scheduler blip slows one pass, a slow machine slows both). Reported as
/// `harness.ref_kernel_ms` so two runs can be told apart by how fast the
/// box was; no metric is ever divided by it.
pub fn ref_kernel_ms() -> f64 {
    let mut table = vec![0u64; 32 * 1024];
    let mut pass = || {
        let started = Instant::now();
        std::hint::black_box(ref_slice(std::hint::black_box(&mut table)));
        started.elapsed().as_secs_f64() * 1e3
    };
    pass().min(pass())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something_on_linux() {
        std::hint::black_box(ref_kernel_ms());
        assert!(cpu_seconds() >= 0.0);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
        assert!(nproc() >= 1);
    }
}
