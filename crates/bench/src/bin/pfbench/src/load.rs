//! The load driver: a pipelined closed loop over loopback TCP.
//!
//! Two connections, one thread each, 32 requests in flight per
//! connection. A connection owns every second session and walks them
//! round-robin, so each session's requests go out strictly in stream
//! order. On a 2-thread host an open loop's `sleep` lateness swamped
//! sub-millisecond replies, with one request in flight serve-hot p50
//! varied by a fifth between runs, and with four in flight on the one
//! CPU a run is pinned to, p50 followed how the scheduler interleaved
//! the threads rather than the work (README.md, "Load shape").

use crate::stream::{request_line, Op, Stream};
use pfdbg_obs::jsonl::{parse_jsonl, JsonValue};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const CONNECTIONS: usize = 2;
pub const DEPTH: usize = 32;
/// Replies completing in the first 5% of the run are warm-up.
const WARMUP_SHARE: f64 = 0.05;
/// Throughput, p50 and p99 are medians over windows of about this
/// length: the host's speed comes and goes in bursts of a second or
/// two, and a median over windows moves only when most of the run does.
const WINDOW_NS: u64 = 1_000_000_000;
/// In a traced run, one client request in this many gets a span.
const SPAN_EVERY: u64 = 64;
/// A traced run alternates untraced and traced slices of this length;
/// their throughputs give `trace.overhead_ratio`.
const SLICE_NS: u64 = 500_000_000;

/// What one reply said.
#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// A committed turn, with the costs the reply reported.
    Select { transfer_us: f64, verify_us: f64, frames: u32, bits: u32, retries: u32 },
    /// A completed scrub pass.
    Scrub,
    /// Shed at a full shard inbox.
    Overloaded,
    /// Refused while the session's device fails over.
    Migrating,
    /// An error reply, a malformed reply, or a wrong echo.
    Failed,
}

#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Completion time, ns after the load started.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub outcome: Outcome,
}

/// Every issued request lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub issued: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub migrating: u64,
    pub failures: u64,
}

impl Ledger {
    pub fn balances(&self) -> bool {
        self.issued == self.ok + self.overloaded + self.migrating + self.failures
    }

    fn add(&mut self, o: &Ledger) {
        self.issued += o.issued;
        self.ok += o.ok;
        self.overloaded += o.overloaded;
        self.migrating += o.migrating;
        self.failures += o.failures;
    }
}

/// A sampled client request span (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub req: u64,
}

pub struct LoadResult {
    /// Every reply, in completion order.
    pub replies: Vec<Reply>,
    pub ledger: Ledger,
    /// The last parameter string each session committed (by index).
    pub committed: Vec<Option<String>>,
    pub spans: Vec<ClientSpan>,
    pub run_ns: u64,
    pub traced: bool,
}

/// Drive `sessions` (already open) for `seconds` over `CONNECTIONS`
/// connections and collect every reply.
pub fn run(
    addr: SocketAddr,
    stream: &Stream,
    sessions: &[String],
    seconds: f64,
    traced: bool,
) -> LoadResult {
    let t0 = Instant::now();
    let end = Duration::from_secs_f64(seconds);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<usize> = (c..sessions.len()).step_by(CONNECTIONS).collect();
                s.spawn(move || drive(addr, stream, sessions, &mine, c as u64, t0, end, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let run_ns = end.as_nanos() as u64;
    let mut result = LoadResult {
        replies: Vec::new(),
        ledger: Ledger::default(),
        committed: vec![None; sessions.len()],
        spans: Vec::new(),
        run_ns,
        traced,
    };
    for out in outs {
        result.replies.extend(out.replies);
        result.ledger.add(&out.ledger);
        result.spans.extend(out.spans);
        for (s, p) in out.committed {
            result.committed[s] = Some(p);
        }
    }
    result.replies.sort_by_key(|r| r.done_ns);
    result
}

struct ConnOut {
    replies: Vec<Reply>,
    ledger: Ledger,
    committed: Vec<(usize, String)>,
    spans: Vec<ClientSpan>,
}

struct InFlight {
    sent: Instant,
    slot: usize,
    /// The parameters a select sent (its reply must echo them).
    params: Option<String>,
    req: u64,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    stream: &Stream,
    sessions: &[String],
    mine: &[usize],
    conn: u64,
    t0: Instant,
    end: Duration,
    traced: bool,
) -> ConnOut {
    let mut out = ConnOut {
        replies: Vec::new(),
        ledger: Ledger::default(),
        committed: Vec::new(),
        spans: Vec::new(),
    };
    let pair = connect(addr).and_then(|tcp| Ok((BufReader::new(tcp.try_clone()?), tcp)));
    let (mut reader, mut writer) = match pair {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pfbench: connection {conn}: {e}");
            out.ledger = Ledger { issued: 1, failures: 1, ..Ledger::default() };
            return out;
        }
    };
    let mut next_k = vec![0u64; mine.len()];
    let mut last: Vec<Option<String>> = vec![None; mine.len()];
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(DEPTH);
    let mut line = String::new();
    let (mut cursor, mut req, mut errors_shown) = (0usize, 0u64, 0usize);
    'run: loop {
        while inflight.len() < DEPTH && t0.elapsed() < end {
            let slot = cursor % mine.len();
            cursor += 1;
            let session = &sessions[mine[slot]];
            let k = next_k[slot];
            next_k[slot] += 1;
            let op = stream.op(mine[slot], k);
            let text = request_line(session, &op);
            let params = match op {
                Op::Select(p) => Some(p),
                Op::Scrub => None,
            };
            out.ledger.issued += 1;
            let sent = Instant::now();
            if let Err(e) = writer.write_all(text.as_bytes()) {
                eprintln!("pfbench: connection {conn}: write failed: {e}");
                out.ledger.failures += 1 + inflight.len() as u64;
                break 'run;
            }
            inflight.push_back(InFlight { sent, slot, params, req });
            req += 1;
        }
        let Some(f) = inflight.pop_front() else { break };
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            other => {
                eprintln!("pfbench: connection {conn}: no reply ({other:?})");
                out.ledger.failures += 1 + inflight.len() as u64;
                break;
            }
        }
        let done = Instant::now();
        let outcome = classify(&line, f.params.as_deref());
        match outcome {
            Outcome::Select { .. } | Outcome::Scrub => out.ledger.ok += 1,
            Outcome::Overloaded => out.ledger.overloaded += 1,
            Outcome::Migrating => out.ledger.migrating += 1,
            Outcome::Failed => {
                out.ledger.failures += 1;
                if errors_shown < 5 {
                    errors_shown += 1;
                    eprintln!("pfbench: connection {conn}: failed reply: {}", line.trim());
                }
            }
        }
        if let (Outcome::Select { .. }, Some(p)) = (outcome, f.params) {
            last[f.slot] = Some(p);
        }
        let start_ns = (f.sent - t0).as_nanos() as u64;
        let latency_ns = (done - f.sent).as_nanos() as u64;
        if traced && f.req % SPAN_EVERY == 0 && traced_slice(start_ns) {
            out.spans.push(ClientSpan { start_ns, dur_ns: latency_ns, req: conn << 32 | f.req });
        }
        out.replies.push(Reply { done_ns: (done - t0).as_nanos() as u64, latency_ns, outcome });
    }
    out.committed =
        last.into_iter().enumerate().filter_map(|(slot, p)| Some((mine[slot], p?))).collect();
    out
}

/// A traced run samples spans only in every second time slice.
fn traced_slice(t_ns: u64) -> bool {
    (t_ns / SLICE_NS) % 2 == 1
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let tcp = TcpStream::connect(addr)?;
    tcp.set_nodelay(true)?;
    // A wedged server becomes a counted failure, not a hung benchmark.
    tcp.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(tcp)
}

fn classify(line: &str, params: Option<&str>) -> Outcome {
    let Some(ev) = parse_jsonl(line).ok().and_then(|evs| evs.into_iter().next()) else {
        return Outcome::Failed;
    };
    if ev.fields.get("ok") != Some(&JsonValue::Bool(true)) {
        return if ev.str("kind") == Some("overloaded") {
            Outcome::Overloaded
        } else if ev.str("error").is_some_and(|e| e.contains("migrating")) {
            Outcome::Migrating
        } else {
            Outcome::Failed
        };
    }
    let num = |k: &str| ev.num(k).unwrap_or(f64::NAN);
    match params {
        // The server must have applied exactly what was asked.
        Some(p) if ev.str("params") == Some(p) => Outcome::Select {
            transfer_us: num("transfer_us"),
            verify_us: num("verify_us"),
            frames: num("frames_changed") as u32,
            bits: num("bits_changed") as u32,
            retries: num("retries") as u32,
        },
        Some(_) => Outcome::Failed,
        None if ev.num("frames_checked").is_some() => Outcome::Scrub,
        None => Outcome::Failed,
    }
}

/// The end-to-end numbers of one load phase (warm-up excluded).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub replies: usize,
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub device_us_per_turn: f64,
    pub frames_per_turn: f64,
    pub bits_per_turn: f64,
    pub retries_per_turn: f64,
    pub verify_ratio: f64,
    /// Untraced-slice over traced-slice throughput (traced runs).
    pub overhead_ratio: f64,
}

pub fn summarize(r: &LoadResult) -> Summary {
    let warm_ns = (r.run_ns as f64 * WARMUP_SHARE) as u64;
    let kept: Vec<&Reply> =
        r.replies.iter().filter(|x| x.done_ns >= warm_ns && x.done_ns < r.run_ns).collect();
    // Equal windows tiling the measured span.
    let span = r.run_ns - warm_ns;
    let n_windows = (span / WINDOW_NS).max(1);
    let window_ns = span.div_ceil(n_windows);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n_windows as usize];
    for x in &kept {
        windows[((x.done_ns - warm_ns) / window_ns) as usize].push(x.latency_ns as f64 / 1e6);
    }
    let over_windows = |f: &dyn Fn(&[f64]) -> Option<f64>| {
        let per: Vec<f64> = windows.iter().filter_map(|w| f(w)).collect();
        pfdbg_util::stats::median(&per).unwrap_or(f64::NAN)
    };
    let pct = |p: f64| over_windows(&|w| pfdbg_util::stats::percentile(w, p));
    let (mut turns, mut device, mut frames, mut bits, mut retries, mut transfer, mut verify) =
        (0u64, 0.0, 0u64, 0u64, 0u64, 0.0, 0.0);
    for x in &kept {
        if let Outcome::Select { transfer_us, verify_us, frames: f, bits: b, retries: n } =
            x.outcome
        {
            turns += 1;
            device += transfer_us + verify_us;
            transfer += transfer_us;
            verify += verify_us;
            frames += f as u64;
            bits += b as u64;
            retries += n as u64;
        }
    }
    let per_turn = |x: f64| if turns > 0 { x / turns as f64 } else { f64::NAN };
    // Throughput per slice parity: even slices are untraced, odd traced.
    let slice_time = |odd: bool| {
        (warm_ns / SLICE_NS..=r.run_ns / SLICE_NS)
            .filter(|s| (s % 2 == 1) == odd)
            .map(|s| {
                let lo = (s * SLICE_NS).max(warm_ns);
                let hi = ((s + 1) * SLICE_NS).min(r.run_ns);
                hi.saturating_sub(lo) as f64
            })
            .sum::<f64>()
    };
    let count = |odd: bool| kept.iter().filter(|x| traced_slice(x.done_ns) == odd).count() as f64;
    let overhead_ratio = (count(false) / slice_time(false)) / (count(true) / slice_time(true));
    Summary {
        replies: kept.len(),
        throughput_rps: over_windows(&|w| Some(w.len() as f64 / (window_ns as f64 / 1e9))),
        p50_ms: pct(50.0),
        p99_ms: pct(99.0),
        device_us_per_turn: per_turn(device),
        frames_per_turn: per_turn(frames as f64),
        bits_per_turn: per_turn(bits as f64),
        retries_per_turn: per_turn(retries as f64),
        verify_ratio: verify / transfer,
        overhead_ratio: if r.traced { overhead_ratio } else { f64::NAN },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_checks_the_echo_and_buckets_refusals() {
        let ok = "{\"ok\":true,\"params\":\"0110\",\"transfer_us\":3,\"verify_us\":1,\
                  \"frames_changed\":2,\"bits_changed\":5,\"retries\":0}";
        assert!(matches!(classify(ok, Some("0110")), Outcome::Select { frames: 2, .. }));
        assert!(matches!(classify(ok, Some("0111")), Outcome::Failed));
        let shed = "{\"ok\":false,\"kind\":\"overloaded\",\"error\":\"x\"}";
        assert!(matches!(classify(shed, Some("0")), Outcome::Overloaded));
        let moving = "{\"ok\":false,\"error\":\"device dev1 is killed — session is migrating\"}";
        assert!(matches!(classify(moving, None), Outcome::Migrating));
        assert!(matches!(classify("{\"ok\":true,\"frames_checked\":9}", None), Outcome::Scrub));
        assert!(matches!(classify("garbage", None), Outcome::Failed));
    }

    #[test]
    fn ledger_balance_is_the_sum_of_its_buckets() {
        let l = Ledger { issued: 10, ok: 6, overloaded: 2, migrating: 1, failures: 1 };
        assert!(l.balances());
        assert!(!Ledger { failures: 0, ..l }.balances());
    }
}
