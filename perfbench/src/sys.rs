//! The few libc calls the benchmark needs, plus `/proc` readers.
//!
//! std links libc on Linux already; declaring the few functions here
//! keeps the benchmark free of external crates.

use std::os::fd::RawFd;
use std::path::Path;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `poll(2)` readiness bit for readable data (or hang-up).
pub const POLLIN: i16 = 0x1;
/// `poll(2)` readiness bit for writable space.
pub const POLLOUT: i16 = 0x4;
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// Waits up to `timeout_ms` for any of `fds` to become ready for `events`.
/// Returns, per fd, whether it is ready (errors and hang-ups count as
/// ready so the caller's read sees them).
pub fn wait_ready(fds: &[RawFd], events: i16, timeout_ms: i32) -> std::io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    loop {
        // SAFETY: `set` is a live, exclusively borrowed array of
        // `set.len()` properly initialised `pollfd` structs for the whole
        // call, which is all poll(2) reads or writes.
        let rc = unsafe { poll(set.as_mut_ptr(), set.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(set.iter().map(|p| p.revents != 0).collect());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Sends SIGKILL to a process that is not our direct child (a cluster
/// replica left behind by its router).
pub fn kill_pid(pid: u32) {
    // SAFETY: kill(2) takes plain integers and has no memory effects; a
    // stale pid yields ESRCH, which is ignored.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` CPU times.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf(3) only reads a configuration value.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Whether `pid` still exists as a live (non-zombie) process.
pub fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

/// A `Name:  value kB` field of `/proc/<pid>/status`.
pub fn status_field(pid: &str, name: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_value(&text, name)
}

fn status_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// User + system CPU seconds of a process (all its threads).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (_, rest) = stat.rsplit_once(')')?;
    // After the command name: state is field 3, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks())
}

/// Voluntary plus involuntary context switches, summed over every thread
/// of a process that is alive when this is called.
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_value(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_value(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `cpu_set_t`: one bit per CPU, for the first 1,024 CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> Option<Self> {
        let mut set = Self([0; 16]);
        // SAFETY: the mask is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Self>(), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// The set holding only `cpu` (below 1,024).
    pub fn single(cpu: usize) -> Self {
        let mut set = Self([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to the set; false if refused.
    pub fn apply(&self) -> bool {
        // SAFETY: the mask is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Self>(), self.0.as_ptr()) == 0 }
    }
}

/// FNV-1a 64 of a file's bytes (identifies a build).
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tairchitect\nThreads:\t7\nVmHWM:\t   20480 kB\n";
        assert_eq!(status_value(text, "Threads"), Some(7));
        assert_eq!(status_value(text, "VmHWM"), Some(20480));
        assert_eq!(status_value(text, "VmRSS"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(alive(me));
        assert!(status_field("self", "VmHWM").unwrap() > 0);
        assert!(cpu_seconds("self").is_some());
        assert!(context_switches(me) > 0);
    }

    #[test]
    fn cpu_sets_round_trip() {
        assert_eq!(CpuSet::single(0).cpus(), vec![0]);
        assert_eq!(CpuSet::single(130).cpus(), vec![130]);
        let home = CpuSet::current().expect("own affinity is readable");
        let cpus = home.cpus();
        assert!(!cpus.is_empty());
        assert!(CpuSet::single(cpus[0]).apply());
        assert_eq!(CpuSet::current(), Some(CpuSet::single(cpus[0])));
        assert!(home.apply());
        assert_eq!(CpuSet::current(), Some(home));
    }
}
