//! Spawning `airchitect serve` and talking to its control plane.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect_telemetry::json::{self, Value};

use crate::sys;

const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// One blocking request on a fresh `Connection: close` socket.
///
/// # Errors
///
/// Socket errors and unparseable responses, as text.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(CONTROL_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    match crate::loadgen::parse_response(&buf)? {
        Some((status, at, end)) => {
            Ok((status, String::from_utf8_lossy(&buf[at..end]).into_owned()))
        }
        None => Err(format!("{method} {path}: truncated response")),
    }
}

/// Scrapes `/metrics` at `addr`; empty when it cannot be read.
pub fn call_metrics(addr: SocketAddr) -> BTreeMap<String, f64> {
    match call(addr, "GET", "/metrics", "") {
        Ok((200, text)) => parse_metrics(&text),
        _ => BTreeMap::new(),
    }
}

/// Scrapes `/metrics` at every address and sums the values by name.
pub fn sum_metrics(addrs: &[SocketAddr]) -> BTreeMap<String, f64> {
    let mut total = BTreeMap::new();
    for &a in addrs {
        for (name, v) in call_metrics(a) {
            *total.entry(name).or_insert(0.0) += v;
        }
    }
    total
}

/// Parses the `/metrics` text format (`name value` per line).
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (name, value) = l.trim().rsplit_once(' ')?;
            Some((name.trim().to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Growth of a counter between two scrapes (absent counts as 0).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Which health answer counts as "ready to serve".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready {
    /// A single server with all three models loaded.
    Models(usize),
    /// A cluster router reporting this many healthy replicas.
    Replicas(u64),
}

impl Ready {
    fn check(self, health: &Value) -> bool {
        let ok = health.get("status").and_then(Value::as_str) == Some("ok");
        ok && match self {
            Ready::Models(n) => {
                health
                    .get("models")
                    .and_then(Value::as_arr)
                    .map(<[Value]>::len)
                    == Some(n)
            }
            Ready::Replicas(n) => health.get("healthy").and_then(Value::as_u64) == Some(n),
        }
    }
}

/// A running `airchitect serve` child.
pub struct Server {
    child: Child,
    /// Address it listens on.
    pub addr: SocketAddr,
    /// Its last `/healthz` body.
    health: Value,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve <args>` and waits until `/healthz` reports
    /// `ready`. Returns the server and the set-up time: spawn to the
    /// first ready health answer.
    ///
    /// # Errors
    ///
    /// Spawn failures, a child that exits or never becomes ready.
    pub fn start(bin: &Path, args: &[String], ready: Ready) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "`serve {}` exited before listening",
                    args.join(" ")
                ));
            }
            addr = line
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        // Keep draining the child's stdout so it never blocks on a pipe.
        let stdout = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = lines.read_to_end(&mut sink);
        });
        let mut server = Self {
            child,
            addr: addr.expect("loop exits with an address"),
            health: Value::Null,
            stdout: Some(stdout),
        };
        loop {
            if let Ok((200, body)) = call(server.addr, "GET", "/healthz", "") {
                if let Ok(health) = json::parse(&body) {
                    if ready.check(&health) {
                        server.health = health;
                        return Ok((server, t0.elapsed()));
                    }
                }
            }
            if t0.elapsed() > STARTUP_TIMEOUT {
                let addr = server.addr;
                server.stop();
                return Err(format!(
                    "server at {addr} not ready within {STARTUP_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Pids of cluster replicas named in the last health answer.
    pub fn replica_pids(&self) -> Vec<u32> {
        self.replicas()
            .iter()
            .filter_map(|r| r.get("pid")?.as_u64())
            .map(|p| p as u32)
            .collect()
    }

    /// Addresses of cluster replicas named in the last health answer.
    pub fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.replicas()
            .iter()
            .filter_map(|r| r.get("addr")?.as_str()?.parse().ok())
            .collect()
    }

    fn replicas(&self) -> &[Value] {
        self.health
            .get("replicas")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
    }

    /// Asks the server to shut down, waits for it (and any replicas it
    /// supervised) to exit, and kills whatever is left after a grace
    /// period. Returns whether the shutdown was clean.
    pub fn stop(mut self) -> bool {
        let replicas = self.replica_pids();
        let asked = matches!(call(self.addr, "POST", "/v1/shutdown", ""), Ok((200, _)));
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut clean = asked;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    clean &= status.success();
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    clean = false;
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        for pid in replicas {
            let deadline = Instant::now() + Duration::from_secs(5);
            while sys::alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if sys::alive(pid) {
                clean = false;
                sys::kill_pid(pid);
                while sys::alive(pid) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        clean
    }
}

/// A server left running by an early return or a panic is killed, with the
/// replicas it supervised, so a run never leaves a process behind.
impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for pid in self.replica_pids() {
            if sys::alive(pid) {
                sys::kill_pid(pid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_deltas_parse_counters_gauges_and_histograms() {
        let before = parse_metrics(
            "serve.requests 100\nserve.cache_hits 40\nserve.request_us_count 100\nserve.request_us_sum 5000\n",
        );
        let after = parse_metrics(
            "serve.requests 250\nserve.cache_hits 40\nserve.bypass 90\nserve.request_us_count 250\n\
             serve.request_us_sum 12500\ncluster.replica.0.healthy 1\nnot a metric line\n\n",
        );
        assert_eq!(delta(&before, &after, "serve.requests"), 150.0);
        assert_eq!(delta(&before, &after, "serve.cache_hits"), 0.0);
        // A counter first seen after the run started grew from zero.
        assert_eq!(delta(&before, &after, "serve.bypass"), 90.0);
        assert_eq!(delta(&before, &after, "serve.missing"), 0.0);
        assert_eq!(delta(&before, &after, "serve.request_us_sum"), 7500.0);
        assert_eq!(after["cluster.replica.0.healthy"], 1.0);
        assert!(!after.contains_key("not a metric line"));
    }

    #[test]
    fn readiness_needs_ok_status_and_the_full_set() {
        let single = json::parse(r#"{"status":"ok","models":[{},{},{}]}"#).unwrap();
        assert!(Ready::Models(3).check(&single));
        assert!(!Ready::Models(2).check(&single));
        let degraded = json::parse(r#"{"status":"degraded","models":[{},{},{}]}"#).unwrap();
        assert!(!Ready::Models(3).check(&degraded));
        let fleet = json::parse(r#"{"status":"ok","role":"router","healthy":1}"#).unwrap();
        assert!(Ready::Replicas(1).check(&fleet));
        assert!(!Ready::Replicas(2).check(&fleet));
    }
}
