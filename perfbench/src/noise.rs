//! The host-noise record printed with every run.
//!
//! It is evidence, not a metric: nothing here drops, rescales or retries a
//! run. A later verdict of "noisy" can be tied to a host episode by
//! comparing these fields across runs.

use std::hint::black_box;
use std::time::Instant;

use crate::sys;

/// `cpu` line of `/proc/stat`: (iowait, steal, total) jiffies.
fn cpu_jiffies() -> Option<(u64, u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*v.get(4)?, *v.get(7)?, v.iter().take(8).sum()))
}

/// A fixed integer loop that stays in registers: repeats within a few
/// percent on a quiet host.
fn alu_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A fixed dependent-load walk over a 256 KiB (L2-sized) buffer: sensitive
/// to cache contention from neighbours.
fn l2_ms() -> f64 {
    const WORDS: usize = 256 * 1024 / 8;
    // A single-cycle permutation with a large odd stride.
    let next: Vec<u32> = (0..WORDS).map(|i| ((i + 4099) % WORDS) as u32).collect();
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..8_000_000u32 {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Readings taken before the run; [`Probe::finish`] adds the after side.
pub struct Probe {
    cpu: Option<(u64, u64, u64)>,
    loadavg: String,
    alu_before_ms: f64,
    l2_before_ms: f64,
}

impl Probe {
    /// Takes the before-run readings.
    pub fn start() -> Self {
        Self {
            cpu: cpu_jiffies(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_default(),
            alu_before_ms: alu_ms(),
            l2_before_ms: l2_ms(),
        }
    }

    /// Takes the after-run readings and renders the record as one JSON
    /// object. `server_threads` is the server's thread count, if a server
    /// ran; `build` identifies the binaries under test.
    pub fn finish(self, server_threads: Option<u64>, build: &str) -> String {
        let (alu_after_ms, l2_after_ms) = (alu_ms(), l2_ms());
        let (iowait, steal, total) = match (self.cpu, cpu_jiffies()) {
            (Some(a), Some(b)) => (b.0 - a.0, b.1 - a.1, b.2 - a.2),
            _ => (0, 0, 0),
        };
        let share = |x: u64| {
            if total > 0 {
                x as f64 / total as f64
            } else {
                0.0
            }
        };
        let avx2 = {
            #[cfg(target_arch = "x86_64")]
            {
                std::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                false
            }
        };
        let quote = |s: Option<String>| s.map_or("null".into(), |s| format!("\"{s}\""));
        format!(
            "{{\"host_noise\":{{\"steal_frac\":{:.5},\"iowait_frac\":{:.5},\"loadavg_start\":\"{}\",\
             \"alu_ms\":[{:.3},{:.3}],\"l2_ms\":[{:.3},{:.3}],\"server_threads\":{},\"nproc\":{},\
             \"avx2\":{avx2},\"commit\":{},\"build\":\"{build}\"}}}}",
            share(steal),
            share(iowait),
            self.loadavg,
            self.alu_before_ms,
            alu_after_ms,
            self.l2_before_ms,
            l2_after_ms,
            server_threads.map_or("null".into(), |t| t.to_string()),
            sys::nproc(),
            quote(commit()),
        )
    }
}
