//! Load generator for the `pfdbg-serve` debug service: N client
//! threads driving M sessions (M ≥ N multiplexes sessions over
//! connections), hammering `select` requests and reporting throughput,
//! p50/p99 request latency, and the backpressure ledger (issued =
//! completed + shed + failed) into `BENCH_serve.json`, followed by
//! every numeric field of the server's `stats` reply.
//!
//! ```text
//! serve_load [--addr host:port] [--threads N] [--sessions M] [--requests N]
//!            [--out f.json] [--shutdown] [--shards N] [--inbox-cap N]
//!            [--icap-fault-rate R] [--icap-seed S]
//!            [--seu-rate R] [--seu-seed S] [--scrub-interval-ms MS] [--journal]
//!            [--devices N] [--spares N] [--kill-device-at K]
//! ```
//!
//! Without `--addr` it spins up an in-process server over a generated
//! design and shuts it down at the end; with `--addr` it drives an
//! external `pfdbg serve` instance, and `--shutdown` additionally stops
//! that server once the run is done (the pattern `check.sh` uses for
//! its smoke test). `--sessions` (default: one per thread) spreads that
//! many sessions across the client threads — `--sessions 10000` is the
//! fleet-scale soak. Each client runs a closed loop: request, wait for
//! the reply, repeat. `--journal` turns on session journaling
//! (in-process server, temp dir), measuring the record-path overhead.
//! `--devices N` runs the in-process server over a supervised device
//! fleet (N primaries plus `--spares` spares, default 1), and
//! `--kill-device-at K` arms device 0 to die after K frame writes —
//! the failover chaos smoke: sessions migrate to a spare by journal
//! re-drive (pass `--journal`, or they are dropped as `sessions_lost`)
//! while the client-side ledger counts the migration-window replies.

use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig};
use pfdbg_obs::jsonl::{write_object, JsonValue};
use pfdbg_obs::Histogram;
use pfdbg_replay::ChaosSpec;
use pfdbg_serve::session::{DeviceOptions, FleetOptions};
use pfdbg_serve::{JournalOptions, ManagerOptions, Server, ServerConfig, SessionManager};
use pfdbg_util::stats::percentile;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1).cloned())
}

fn flag_usize(rest: &[String], name: &str, default: usize) -> usize {
    flag(rest, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

fn flag_f64(rest: &[String], name: &str, default: f64) -> f64 {
    flag(rest, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

fn build_engine() -> CompiledDesign {
    let design = pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
        n_inputs: 8,
        n_outputs: 6,
        n_gates: 40,
        depth: 5,
        n_latches: 2,
        seed: 33,
    });
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        6,
    )
    .expect("instrument");
    CompiledDesign::compile(inst, &OfflineConfig::default()).expect("offline")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// One request line out, one reply line in; `Ok(reply)` even for
    /// protocol-level errors (the caller checks `"ok"`).
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        Ok(reply)
    }

    /// `roundtrip` with the documented client retry contract for
    /// requests *outside* the measured ledger (open/close setup and
    /// teardown): shed and migration-window refusals are transient by
    /// design, so back off and retry until the fleet settles.
    fn roundtrip_settled(&mut self, line: &str) -> std::io::Result<String> {
        for _ in 0..400 {
            let reply = self.roundtrip(line)?;
            match classify(&reply) {
                ReplyKind::Overloaded | ReplyKind::Migrating => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Ok(reply),
            }
        }
        self.roundtrip(line)
    }
}

fn parse_reply(reply: &str) -> Option<pfdbg_obs::jsonl::Event> {
    pfdbg_obs::jsonl::parse_jsonl(reply).ok().and_then(|evs| evs.into_iter().next())
}

fn is_ok(reply: &str) -> bool {
    parse_reply(reply).is_some_and(|ev| ev.fields.get("ok") == Some(&JsonValue::Bool(true)))
}

enum ReplyKind {
    Ok,
    /// Shed at a full shard inbox: not a failure — the backpressure
    /// contract working as designed — but not a completed turn either.
    Overloaded,
    /// Refused because the session's device died or is mid-failover:
    /// the supervision contract working as designed (a real client
    /// retries after the journal re-drive), counted separately so a
    /// chaos run's ledger still balances without masking real errors.
    Migrating,
    Failed,
}

fn classify(reply: &str) -> ReplyKind {
    match parse_reply(reply) {
        Some(ev) if ev.fields.get("ok") == Some(&JsonValue::Bool(true)) => ReplyKind::Ok,
        Some(ev) if ev.str("kind") == Some("overloaded") => ReplyKind::Overloaded,
        Some(ev) if ev.str("error").is_some_and(|e| e.contains("migrating")) => {
            ReplyKind::Migrating
        }
        _ => ReplyKind::Failed,
    }
}

/// Per-thread ledger: every issued request lands in exactly one bucket.
#[derive(Default)]
struct ThreadStats {
    latencies_ms: Vec<f64>,
    issued: usize,
    overloaded: usize,
    migrating: usize,
    failures: usize,
}

/// A deterministic parameter vector mixing repeats and fresh vectors,
/// so runs exercise both the LRU hit path and real specializations.
fn params_for(n_params: usize, salt: usize, turn: usize) -> String {
    (0..n_params).map(|i| if (i + salt + turn % 7).is_multiple_of(3) { '1' } else { '0' }).collect()
}

/// Open this thread's slice of the session space over one connection;
/// names that fail to open are dropped from the rotation (counted as
/// failures).
fn open_sessions(
    c: &mut Client,
    names: &[String],
    stats: &mut ThreadStats,
) -> (Vec<String>, usize) {
    let mut live = Vec::with_capacity(names.len());
    let mut n_params = 0usize;
    for name in names {
        match c.roundtrip_settled(&format!("{{\"op\":\"open\",\"session\":\"{name}\"}}")) {
            Ok(reply) if is_ok(&reply) => {
                if n_params == 0 {
                    n_params = parse_reply(&reply)
                        .and_then(|ev| ev.num("n_params"))
                        .map(|n| n as usize)
                        .unwrap_or(0);
                }
                live.push(name.clone());
            }
            _ => stats.failures += 1,
        }
    }
    (live, n_params)
}

/// Closed loop: request, wait for the reply, repeat — client back-off
/// absorbs server pressure, so this measures service latency.
fn drive_closed(
    addr: &str,
    thread_id: usize,
    names: &[String],
    requests: usize,
    hist: &Histogram,
) -> ThreadStats {
    let mut stats = ThreadStats::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("thread {thread_id}: connect failed: {e}");
            stats.failures = requests;
            stats.issued = requests;
            return stats;
        }
    };
    let (live, n_params) = open_sessions(&mut c, names, &mut stats);
    if live.is_empty() {
        eprintln!("thread {thread_id}: no session opened");
        stats.failures += requests;
        stats.issued = requests;
        return stats;
    }
    for turn in 0..requests {
        let session = &live[turn % live.len()];
        let params = params_for(n_params, thread_id + turn / live.len(), turn);
        let line = format!(
            "{{\"op\":\"select\",\"session\":\"{session}\",\"params\":\"{params}\",\"id\":\"{thread_id}-{turn}\"}}"
        );
        stats.issued += 1;
        let t0 = Instant::now();
        match c.roundtrip(&line) {
            Ok(reply) => match classify(&reply) {
                ReplyKind::Ok => {
                    let dt = t0.elapsed();
                    hist.record_duration(dt);
                    stats.latencies_ms.push(dt.as_secs_f64() * 1e3);
                }
                ReplyKind::Overloaded => stats.overloaded += 1,
                ReplyKind::Migrating => stats.migrating += 1,
                ReplyKind::Failed => {
                    eprintln!("thread {thread_id} turn {turn}: error reply: {}", reply.trim());
                    stats.failures += 1;
                }
            },
            Err(e) => {
                eprintln!("thread {thread_id} turn {turn}: io error: {e}");
                stats.failures += 1;
            }
        }
    }
    for session in &live {
        if let Ok(reply) =
            c.roundtrip_settled(&format!("{{\"op\":\"close\",\"session\":\"{session}\"}}"))
        {
            if !is_ok(&reply) {
                stats.failures += 1;
            }
        }
    }
    stats
}

fn main() {
    let obs = pfdbg_bench::obs_init();
    let rest = obs.rest().to_vec();
    let threads = flag_usize(&rest, "--threads", 8);
    let requests = flag_usize(&rest, "--requests", 50);
    let sessions = flag_usize(&rest, "--sessions", threads).max(1);
    let out = flag(&rest, "--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let external = flag(&rest, "--addr");
    let send_shutdown = rest.iter().any(|a| a == "--shutdown");
    let shards = flag_usize(&rest, "--shards", 0);
    let inbox_cap = flag_usize(&rest, "--inbox-cap", 0);
    let fault_rate = flag_f64(&rest, "--icap-fault-rate", 0.0);
    let fault_seed = flag_usize(&rest, "--icap-seed", 0x1CAB_FA17) as u64;
    let seu_rate = flag_f64(&rest, "--seu-rate", 0.0);
    let seu_seed = flag_usize(&rest, "--seu-seed", 0x5EED_05E0) as u64;
    let scrub_interval_ms = flag_f64(&rest, "--scrub-interval-ms", 0.0);
    let devices = flag_usize(&rest, "--devices", 0);
    let spares = flag_usize(&rest, "--spares", 1);
    let kill_device_at = flag_usize(&rest, "--kill-device-at", 0);
    let journal = rest.iter().any(|a| a == "--journal");
    let journal_dir = journal.then(|| {
        std::env::temp_dir().join(format!("pfdbg-serve-load-journal-{}", std::process::id()))
    });

    // Chaos knobs apply only to the in-process server (an external one
    // configures its own faults via `pfdbg serve` flags).
    let chaos = ChaosSpec {
        fault: (fault_rate > 0.0)
            .then(|| pfdbg_emu::IcapFaultConfig::uniform(fault_rate, fault_seed))
            .or_else(pfdbg_emu::IcapFaultConfig::from_env),
        seu: (seu_rate > 0.0)
            .then_some(pfdbg_emu::SeuConfig { rate: seu_rate, burst: 2, seed: seu_seed })
            .or_else(pfdbg_emu::SeuConfig::from_env),
        ..ChaosSpec::reliable()
    };
    // The rate the in-process server runs; `stats` does not carry an
    // external server's.
    let icap_fault_rate = match &external {
        None => JsonValue::Num(chaos.fault.map_or(0.0, |f| f.total_rate())),
        Some(_) => JsonValue::Null,
    };
    let handle = if external.is_none() {
        eprintln!("serve_load: compiling design and starting in-process server...");
        if let Some(dir) = &journal_dir {
            std::fs::remove_dir_all(dir).ok();
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
            eprintln!("serve_load: journaling sessions to {}", dir.display());
        }
        let opts = ManagerOptions {
            chaos,
            fleet: FleetOptions { shards, inbox_capacity: inbox_cap },
            devices: (devices > 0).then_some(DeviceOptions {
                devices,
                spares,
                ..Default::default()
            }),
            journal: journal_dir.clone().map(JournalOptions::external),
            ..ManagerOptions::default()
        };
        let manager = SessionManager::new(Arc::new(build_engine()), opts);
        let cfg = ServerConfig {
            workers: threads.clamp(2, 8),
            scrub_interval_ms,
            ..ServerConfig::default()
        };
        Some(Server::start(manager, cfg).expect("server start"))
    } else {
        None
    };
    // Arm the chaos kill before any load: device 0 dies after its
    // K-th frame write, so the failover lands mid-run regardless of
    // how fast the clients go.
    if kill_device_at > 0 {
        match handle.as_ref().and_then(|h| h.sessions().device_control(0)) {
            Some(control) => {
                control.kill_after_writes(kill_device_at as u64);
                eprintln!("serve_load: device 0 armed to die after {kill_device_at} frame writes");
            }
            None => eprintln!(
                "serve_load: --kill-device-at ignored (needs the in-process server and --devices)"
            ),
        }
    }
    let addr = external
        .clone()
        .unwrap_or_else(|| handle.as_ref().expect("in-process").local_addr().to_string());
    eprintln!(
        "serve_load: {threads} threads x {requests} selects over {sessions} sessions \
         against {addr} (closed-loop)"
    );

    // Session i belongs to thread i % threads, so every thread's slice
    // spans the shard space instead of clustering.
    let slices: Vec<Vec<String>> = (0..threads)
        .map(|t| (t..sessions).step_by(threads).map(|i| format!("load-{i}")).collect())
        .collect();

    // One lock-free histogram shared by every client thread: each
    // request is a single atomic record, and the bucketized shape of
    // the latency distribution (not just two point percentiles) lands
    // in the report.
    let hist = Histogram::new();
    let t0 = Instant::now();
    let results: Vec<ThreadStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let addr = addr.clone();
                let hist = &hist;
                let names = &slices[t];
                s.spawn(move || drive_closed(&addr, t, names, requests, hist))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = t0.elapsed();

    // The server's own ledger (fleet shape, settings, counters,
    // percentiles), copied into the report so runs at different shapes
    // are comparable. In `--addr` mode the chaos flags above configure
    // nothing, so only the server knows its settings.
    let server_stats = Client::connect(&addr)
        .ok()
        .and_then(|mut c| c.roundtrip("{\"op\":\"stats\"}").ok())
        .filter(|reply| is_ok(reply))
        .and_then(|reply| parse_reply(&reply));

    let mut latencies: Vec<f64> = Vec::new();
    let (mut issued, mut overloaded, mut migrating, mut failures) =
        (0usize, 0usize, 0usize, 0usize);
    for r in &results {
        latencies.extend_from_slice(&r.latencies_ms);
        issued += r.issued;
        overloaded += r.overloaded;
        migrating += r.migrating;
        failures += r.failures;
    }
    let total = latencies.len();
    // The accounting invariant: every issued request is completed, shed,
    // refused by a migration window, or failed — nothing vanishes.
    assert_eq!(
        issued,
        total + overloaded + migrating + failures,
        "request ledger does not balance: {issued} issued vs {total} ok + \
         {overloaded} overloaded + {migrating} migrating + {failures} failed"
    );
    let throughput = total as f64 / elapsed.as_secs_f64().max(1e-9);
    let p50 = percentile(&latencies, 50.0).unwrap_or(f64::NAN);
    let p99 = percentile(&latencies, 99.0).unwrap_or(f64::NAN);
    let mean = if total > 0 { latencies.iter().sum::<f64>() / total as f64 } else { f64::NAN };
    // Bucketized view of the same distribution: exact and histogram
    // percentiles agree to within a bucket (≤6.25% relative width), and
    // the histogram adds the p999 tail plus the full bucket shape.
    let snap = hist.snapshot();
    let hist_ms = |p: f64| snap.percentile_us(p).map_or(f64::NAN, |us| us / 1e3);
    let (hist_p50, hist_p99, hist_p999) = (hist_ms(50.0), hist_ms(99.0), hist_ms(99.9));

    println!("=== serve_load: {sessions} sessions on {threads} connections (closed-loop) ===");
    println!("issued:       {issued}");
    println!("requests ok:  {total}");
    println!("overloaded:   {overloaded}");
    println!("migrating:    {migrating}");
    println!("failures:     {failures}");
    println!("elapsed:      {elapsed:.2?}");
    println!("throughput:   {throughput:.0} req/s");
    println!("latency:      p50 {p50:.3} ms | p99 {p99:.3} ms | mean {mean:.3} ms");
    println!(
        "histogram:    p50 {hist_p50:.3} ms | p99 {hist_p99:.3} ms | p999 {hist_p999:.3} ms \
         ({} buckets)",
        snap.nonzero_buckets().len()
    );

    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("bench", JsonValue::Str("serve_load".into())),
        ("threads", JsonValue::Num(threads as f64)),
        ("sessions", JsonValue::Num(sessions as f64)),
        ("requests_per_thread", JsonValue::Num(requests as f64)),
        ("requests_issued", JsonValue::Num(issued as f64)),
        ("requests_ok", JsonValue::Num(total as f64)),
        ("overloaded_replies", JsonValue::Num(overloaded as f64)),
        ("migrating_replies", JsonValue::Num(migrating as f64)),
        ("failures", JsonValue::Num(failures as f64)),
        ("elapsed_s", JsonValue::Num(elapsed.as_secs_f64())),
        ("throughput_rps", JsonValue::Num(throughput)),
        ("p50_ms", JsonValue::Num(p50)),
        ("p99_ms", JsonValue::Num(p99)),
        ("mean_ms", JsonValue::Num(mean)),
        ("hist_p50_ms", JsonValue::Num(hist_p50)),
        ("hist_p99_ms", JsonValue::Num(hist_p99)),
        ("hist_p999_ms", JsonValue::Num(hist_p999)),
        ("hist_buckets", JsonValue::Str(snap.buckets_string())),
        ("icap_fault_rate", icap_fault_rate),
        ("journal", JsonValue::Bool(journal)),
        ("in_process", JsonValue::Bool(external.is_none())),
    ];
    // Every numeric `stats` field follows; on a shared key (`sessions`)
    // serve_load's own value wins.
    for (key, value) in server_stats.iter().flat_map(|ev| &ev.fields) {
        if matches!(value, JsonValue::Num(_)) && !fields.iter().any(|(k, _)| k == key) {
            fields.push((key, value.clone()));
        }
    }
    let json = write_object(&fields);
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("{out}: {e}"));
    eprintln!("serve_load: wrote {out}");

    if let Some(handle) = handle {
        handle.shutdown();
        if let Some(dir) = &journal_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    } else if send_shutdown {
        match Client::connect(&addr).and_then(|mut c| c.roundtrip("{\"op\":\"shutdown\"}")) {
            Ok(reply) if is_ok(&reply) => eprintln!("serve_load: server shutdown requested"),
            other => eprintln!("serve_load: shutdown request failed: {other:?}"),
        }
    }
    obs.finish();
    if failures > 0 {
        std::process::exit(1);
    }
}
