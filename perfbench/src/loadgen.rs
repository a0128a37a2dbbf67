//! Closed-loop load generator: one thread, a few keep-alive connections,
//! at most one outstanding request per connection.
//!
//! A connection sends its next request only after the previous answer has
//! fully arrived, so a slower server simply receives less load — the way
//! a DSE or compiler loop that waits for each answer drives the service.
//! Latency is client-side: from just before the request's first byte is
//! written to the moment its response is complete.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::sys;
use crate::trace::Tracer;

/// One request of a stream: its bytes and the connection group that must
/// carry it (any idle connection of that group).
#[derive(Debug, Clone, Copy)]
pub struct Item<'a> {
    /// Request bytes.
    pub request: &'a [u8],
    /// Connection group, as in [`Plan::groups`].
    pub group: u8,
}

/// Outcome of one request. `status` 0 means no HTTP answer arrived
/// (connect/write/read error, early close, malformed response or timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// HTTP status, or 0 for a transport failure.
    pub status: u16,
    /// When it was sent, in nanoseconds after the loop started.
    pub sent_ns: u64,
    /// Client-side latency in nanoseconds.
    pub latency_ns: u64,
    /// Body location in [`Run::bodies`].
    pub body: (u32, u32),
}

impl Record {
    /// Whether an HTTP 200 came back.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Everything a closed-loop run produced, indexed like its items.
#[derive(Debug, Default)]
pub struct Run {
    /// One record per item sent, in item order: a prefix of the stream,
    /// shorter than it only when [`Plan::budget`] ran out.
    pub records: Vec<Record>,
    /// Concatenated response bodies.
    pub bodies: Vec<u8>,
    /// Wall time from the first send to the last answer.
    pub elapsed: Duration,
    /// CPU seconds the generator process spent during the run.
    pub cpu_s: f64,
    /// First few transport errors, for the failure report.
    pub errors: Vec<String>,
}

impl Run {
    /// Body bytes of item `i`.
    pub fn body(&self, i: usize) -> &[u8] {
        let (at, len) = self.records[i].body;
        &self.bodies[at as usize..(at + len) as usize]
    }

    /// Items that did not get an HTTP 200.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok()).count()
    }
}

/// How to drive a stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One address per connection.
    pub targets: Vec<SocketAddr>,
    /// Group of each connection (parallel to `targets`).
    pub groups: Vec<u8>,
    /// Outstanding requests allowed across all connections.
    pub max_outstanding: usize,
    /// Per-request budget; a request without an answer by then fails and
    /// its connection is replaced.
    pub timeout: Duration,
    /// Stop sending once this much time has passed; the rest of the
    /// stream is not attempted. Bounds a run on a slowed-down host.
    pub budget: Option<Duration>,
}

struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    inflight: Option<(usize, Instant)>,
}

fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, timeout)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

/// Parses one complete HTTP response at the start of `buf`: returns
/// `(status, body_start, total_len)` once all of it has arrived.
///
/// # Errors
///
/// A malformed status line or `Content-Length`.
pub fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{value}`"))?;
            }
        }
    }
    let body_start = head_end + 4;
    Ok((buf.len() >= body_start + len).then_some((status, body_start, body_start + len)))
}

/// Drives `items` to completion against `plan.targets` in a closed loop.
/// When `tracer` is enabled, every request whose index falls in an odd
/// block of `trace_block` items is also recorded as a `client.request`
/// span, so one run holds traced and untraced blocks to compare.
pub fn drive(plan: &Plan, items: &[Item<'_>], tracer: &mut Tracer, trace_block: usize) -> Run {
    let mut conns: Vec<Conn> = plan
        .targets
        .iter()
        .map(|&addr| Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(4096),
            inflight: None,
        })
        .collect();
    let mut run = Run {
        records: vec![
            Record {
                status: 0,
                sent_ns: 0,
                latency_ns: 0,
                body: (0, 0),
            };
            items.len()
        ],
        bodies: Vec::with_capacity(items.len() * 160),
        ..Run::default()
    };
    let note = |run: &mut Run, msg: String| {
        if run.errors.len() < 8 {
            run.errors.push(msg);
        }
    };
    let cpu0 = sys::cpu_seconds("self").unwrap_or(0.0);
    let t0 = Instant::now();
    let (mut next, mut outstanding, mut limit) = (0usize, 0usize, items.len());
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Dispatch in stream order while the budget allows.
        if plan.budget.is_some_and(|b| t0.elapsed() >= b) {
            limit = limit.min(next);
        }
        while next < limit && outstanding < plan.max_outstanding {
            let group = items[next].group;
            let pick =
                (0..conns.len()).find(|&i| plan.groups[i] == group && conns[i].inflight.is_none());
            let Some(ci) = pick else { break };
            // Close idle connections of other groups: none outlives the
            // server's keep-alive timeout, and a group's next block starts
            // on a fresh connection.
            for (i, c) in conns.iter_mut().enumerate() {
                if plan.groups[i] != group && c.inflight.is_none() {
                    c.stream = None;
                }
            }
            let c = &mut conns[ci];
            if c.stream.is_none() {
                match connect(c.addr, plan.timeout) {
                    Ok(s) => c.stream = Some(s),
                    Err(e) => {
                        note(&mut run, format!("item {next}: connect {}: {e}", c.addr));
                        next += 1;
                        continue;
                    }
                }
            }
            let started = Instant::now();
            let stream = c.stream.as_mut().expect("connected above");
            if let Err(e) = write_all_nonblocking(stream, items[next].request, plan.timeout) {
                note(&mut run, format!("item {next}: write: {e}"));
                c.stream = None;
                next += 1;
                continue;
            }
            c.buf.clear();
            c.inflight = Some((next, started));
            run.records[next].sent_ns = (started - t0).as_nanos() as u64;
            next += 1;
            outstanding += 1;
        }
        if outstanding == 0 {
            if next >= limit {
                break;
            }
            continue;
        }

        // Wait for the first answer (or the earliest deadline).
        let now = Instant::now();
        let earliest = conns
            .iter()
            .filter_map(|c| c.inflight.map(|(_, t)| t + plan.timeout))
            .min()
            .expect("something is outstanding");
        let wait_ms = earliest
            .saturating_duration_since(now)
            .as_millis()
            .min(i32::MAX as u128) as i32;
        let live: Vec<usize> = (0..conns.len())
            .filter(|&i| conns[i].inflight.is_some())
            .collect();
        let fds: Vec<_> = live
            .iter()
            .map(|&i| {
                conns[i]
                    .stream
                    .as_ref()
                    .expect("inflight implies connected")
                    .as_raw_fd()
            })
            .collect();
        let ready = sys::wait_ready(&fds, sys::POLLIN, wait_ms.max(1))
            .unwrap_or_else(|_| vec![true; fds.len()]);

        for (&ci, is_ready) in live.iter().zip(ready) {
            let c = &mut conns[ci];
            let (idx, started) = c.inflight.expect("live conns are inflight");
            let mut failure: Option<String> = None;
            if is_ready {
                let stream = c.stream.as_mut().expect("inflight implies connected");
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) => {
                            failure = Some("server closed the connection".into());
                            break;
                        }
                        Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => {
                            failure = Some(format!("read: {e}"));
                            break;
                        }
                    }
                }
            }
            let done = Instant::now();
            match parse_response(&c.buf) {
                Ok(Some((status, body_start, total)))
                    if failure.is_none() || total == c.buf.len() =>
                {
                    let at = run.bodies.len() as u32;
                    run.bodies.extend_from_slice(&c.buf[body_start..total]);
                    run.records[idx].status = status;
                    run.records[idx].latency_ns = (done - started).as_nanos() as u64;
                    run.records[idx].body = (at, (total - body_start) as u32);
                    if total != c.buf.len() {
                        note(
                            &mut run,
                            format!(
                                "item {idx}: {} unexpected trailing bytes",
                                c.buf.len() - total
                            ),
                        );
                        c.stream = None;
                    }
                    if tracer.enabled() && (idx / trace_block.max(1)) % 2 == 1 {
                        tracer.record("client.request", idx as u64, started, done);
                    }
                    c.inflight = None;
                    outstanding -= 1;
                    continue;
                }
                Ok(_) if failure.is_none() && done < started + plan.timeout => continue,
                Ok(_) => {}
                Err(e) => failure = Some(e),
            }
            let why = failure.unwrap_or_else(|| format!("no answer within {:?}", plan.timeout));
            note(&mut run, format!("item {idx}: {why}"));
            run.records[idx].latency_ns = (done - started).as_nanos() as u64;
            c.stream = None;
            c.inflight = None;
            outstanding -= 1;
        }
    }
    run.elapsed = t0.elapsed();
    run.records.truncate(next);
    run.cpu_s = sys::cpu_seconds("self").unwrap_or(0.0) - cpu0;
    run
}

fn write_all_nonblocking(
    stream: &mut TcpStream,
    mut bytes: &[u8],
    timeout: Duration,
) -> std::io::Result<()> {
    let deadline = Instant::now() + timeout;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(ErrorKind::TimedOut.into());
                }
                sys::wait_ready(
                    &[stream.as_raw_fd()],
                    sys::POLLOUT,
                    left.as_millis().max(1) as i32,
                )?;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn response_parsing_waits_for_the_whole_body() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse_response(&full[..20]).unwrap(), None);
        assert_eq!(parse_response(&full[..full.len() - 1]).unwrap(), None);
        let (status, at, end) = parse_response(full).unwrap().unwrap();
        assert_eq!((status, &full[at..end]), (200, &b"hello"[..]));
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    /// A scripted server: the request body names the behaviour.
    fn scripted_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let serve = |mut stream: TcpStream| {
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let mut len = 0;
                    loop {
                        let mut h = String::new();
                        reader.read_line(&mut h).unwrap();
                        if h == "\r\n" {
                            break;
                        }
                        if let Some(v) = h.strip_prefix("Content-Length: ") {
                            len = v.trim().parse().unwrap();
                        }
                    }
                    let mut body = vec![0; len];
                    reader.read_exact(&mut body).unwrap();
                    let reply = |status: &str, text: &str| {
                        format!(
                            "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{text}",
                            text.len()
                        )
                    };
                    match &body[..] {
                        b"ok" => stream.write_all(reply("200 OK", "{}").as_bytes()).unwrap(),
                        b"busy" => stream
                            .write_all(reply("429 Too Many Requests", "{}").as_bytes())
                            .unwrap(),
                        b"close" => break,
                        b"stall" => std::thread::sleep(Duration::from_millis(400)),
                        _ => unreachable!(),
                    }
                }
            };
            // One thread per connection, so a stalled one cannot delay the
            // client's replacement connection.
            let workers: Vec<_> = listener
                .incoming()
                .take(3)
                .map(|s| std::thread::spawn(move || serve(s.unwrap())))
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn closed_loop_counts_every_kind_of_failure() {
        let (addr, server) = scripted_server();
        let bodies = ["ok", "busy", "ok", "close", "ok", "stall", "ok", "ok"];
        let reqs: Vec<Vec<u8>> = bodies
            .iter()
            .map(|b| crate::queries::render_request("/x", b))
            .collect();
        let items: Vec<Item<'_>> = reqs
            .iter()
            .map(|r| Item {
                request: r,
                group: 0,
            })
            .collect();
        let plan = Plan {
            targets: vec![addr],
            groups: vec![0],
            max_outstanding: 1,
            timeout: Duration::from_millis(150),
            budget: None,
        };
        let mut tracer = Tracer::new(true);
        let run = drive(&plan, &items, &mut tracer, 1);
        let statuses: Vec<u16> = run.records.iter().map(|r| r.status).collect();
        // 429 is an answer but not a success; the early close and the
        // stall are transport failures; the loop reconnects after each.
        assert_eq!(statuses, vec![200, 429, 200, 0, 200, 0, 200, 200]);
        assert_eq!(run.failed(), 3);
        assert_eq!(run.body(0), b"{}");
        assert!(run.records[5].latency_ns >= 150_000_000);
        assert_eq!(run.errors.len(), 2);
        // Odd blocks of one item are traced: items 1, 7 (3 and 5 failed).
        assert_eq!(tracer.count("client.request"), 2);

        // A spent budget sends nothing more: the stream is cut, not failed.
        let cut = Plan {
            budget: Some(Duration::ZERO),
            ..plan
        };
        let run = drive(&cut, &items, &mut Tracer::new(false), 1);
        assert!(run.records.is_empty());
        assert_eq!(run.failed(), 0);
        server.join().unwrap();
    }
}
