//! Process memory and host diagnostics. The diagnostics are printed
//! beside the metrics to explain a noisy run; no metric is ever adjusted
//! by them.

use std::time::Instant;

/// A `kB` field of `/proc/self/status`, in KiB.
fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set (`VmRSS`), KiB.
pub fn rss_kib() -> f64 {
    status_kb("VmRSS:").unwrap_or(0) as f64
}

/// Counters sampled before and after the timed phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// Host-wide steal time, clock ticks (`/proc/stat`).
    steal_ticks: u64,
    /// Run-queue wait summed over this process's live threads, ns
    /// (`/proc/self/task/*/schedstat`).
    runq_wait_ns: u64,
    /// Nonvoluntary context switches of this process's live threads.
    nonvoluntary: u64,
}

impl HostSample {
    pub fn take() -> HostSample {
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|t| {
                let cpu = t.lines().next()?.to_string();
                cpu.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        let mut runq_wait_ns = 0;
        let mut nonvoluntary = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let p = task.path();
                if let Ok(s) = std::fs::read_to_string(p.join("schedstat")) {
                    runq_wait_ns += s
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                if let Ok(s) = std::fs::read_to_string(p.join("status")) {
                    nonvoluntary += s
                        .lines()
                        .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
        }
        HostSample {
            steal_ticks,
            runq_wait_ns,
            nonvoluntary,
        }
    }
}

/// Times one fixed ALU-bound loop and one fixed memory-bound loop, ms.
/// Run in a child process (`--host-probe`) so its buffer never counts
/// toward the workload's peak resident set.
pub fn probe_loops() -> (f64, f64) {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    let alu_ms = t.elapsed().as_secs_f64() * 1e3;

    // A random permutation over 16 MiB: every load depends on the
    // previous one and misses the caches.
    let n = 4 << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut s: u64 = 1;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % i;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut p = 0usize;
    for _ in 0..1_000_000 {
        p = next[p] as usize;
    }
    std::hint::black_box(p);
    let mem_ms = t.elapsed().as_secs_f64() * 1e3;
    (alu_ms, mem_ms)
}

/// Runs [`probe_loops`] in a child copy of this executable and waits for
/// it; `None` if the child could not run.
pub fn probe_loops_in_child() -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--host-probe")
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut it = text.split_whitespace().map(|v| v.parse::<f64>().ok());
    Some((it.next()??, it.next()??))
}

/// One diagnostics line: deltas between `before` and `after`.
pub fn report(before: HostSample, after: HostSample) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (alu, mem) = probe_loops_in_child().unwrap_or((f64::NAN, f64::NAN));
    format!(
        "host: nproc={nproc} steal_ticks={} runq_wait_ms={:.3} nonvoluntary_csw={} alu_loop_ms={alu:.3} mem_loop_ms={mem:.3}",
        after.steal_ticks.saturating_sub(before.steal_ticks),
        after.runq_wait_ns.saturating_sub(before.runq_wait_ns) as f64 / 1e6,
        after.nonvoluntary.saturating_sub(before.nonvoluntary),
    )
}
