//! Protocol fuzzing: arbitrary and malformed request lines against a
//! live server. The contract under test is total: *every* line gets
//! exactly one error reply, and the worker that served it survives to
//! answer a well-formed ping on the same connection. A line too long
//! to ever complete closes its connection instead, and the server
//! keeps serving everyone else.

use pfdbg_core::{prepare_instrumented, InstrumentConfig, OfflineConfig};
use pfdbg_serve::server::{Server, ServerConfig};
use pfdbg_serve::session::{Engine, SessionManager};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn build_engine() -> Engine {
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
    .unwrap();
    let off = pfdbg_core::offline(&inst, &OfflineConfig::default()).unwrap();
    Engine::new(inst, off.scg.unwrap(), off.layout.unwrap(), off.icap)
}

/// One shared server for every fuzz case (the engine build dominates
/// startup cost). Remote shutdown is off so no fuzz line — however
/// unlikely — can stop it; the handle is leaked and dies with the
/// test process.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let manager = SessionManager::new(Arc::new(build_engine()), 16);
        let handle = Server::start(
            manager,
            ServerConfig { workers: 2, allow_remote_shutdown: false, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = handle.local_addr();
        std::mem::forget(handle);
        addr
    })
}

/// Deterministic junk from a seed: printable, newline-free, non-empty.
fn junk(seed: &mut u64, min_len: usize, max_len: usize) -> String {
    const CHARSET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789{}[]\":,.-+eE_ \\/!@#$%^&*()";
    let mut next = || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    let len = min_len + (next() as usize) % (max_len - min_len).max(1);
    let mut s: String =
        (0..len.max(1)).map(|_| CHARSET[next() as usize % CHARSET.len()] as char).collect();
    if s.trim().is_empty() {
        s.push('~'); // empty lines are silently skipped by the server
    }
    s
}

/// One malformed request line per mutation family.
fn malformed_line(mut seed: u64, kind: usize) -> String {
    match kind {
        // Raw junk: almost never valid JSON at all.
        0 => junk(&mut seed, 1, 80),
        // Valid JSON, nonsense op.
        1 => format!("{{\"op\":\"zz{}\"}}", junk(&mut seed, 1, 12).replace(['"', '\\'], "x")),
        // A plausible select request, truncated mid-structure.
        2 => {
            let full =
                "{\"op\":\"select\",\"session\":\"s\",\"params\":\"0101\",\"deadline_ms\":5}";
            let cut = 1 + (seed as usize) % (full.len() - 1);
            full[..cut].to_string()
        }
        // Right op, wrong field types.
        3 => "{\"op\":\"select\",\"session\":42,\"params\":true,\"deadline_ms\":\"soon\"}".into(),
        // Structurally fine, hostile numbers.
        _ => format!(
            "{{\"op\":\"select\",\"session\":\"s\",\"params\":\"01\",\"deadline_ms\":{}}}",
            ["-1", "1e300", "-0.0000001", "999999999999999999999999"][(seed as usize) % 4]
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_malformed_line_gets_an_error_reply_and_the_worker_lives(
        seed in any::<u64>(),
        kind in 0usize..5,
    ) {
        let line = malformed_line(seed, kind);
        prop_assert!(!line.contains('\n') && !line.trim().is_empty());

        let stream = TcpStream::connect(server_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        prop_assert!(!reply.is_empty(), "no reply for {line:?} — worker died?");
        let events = pfdbg_obs::jsonl::parse_jsonl(&reply).unwrap();
        prop_assert_eq!(events.len(), 1, "exactly one reply per line");
        prop_assert_eq!(
            events[0].fields.get("ok"),
            Some(&pfdbg_obs::jsonl::JsonValue::Bool(false)),
            "malformed line was accepted: {:?} -> {:?}", line, reply
        );

        // Same connection, same worker: a well-formed request still works.
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        writer.flush().unwrap();
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        let events = pfdbg_obs::jsonl::parse_jsonl(&pong).unwrap();
        prop_assert_eq!(
            events.first().and_then(|ev| ev.fields.get("ok")),
            Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)),
            "worker did not survive {:?}", line
        );
    }
}

/// Regression: the server reads at most 256 KB of unparsed data per
/// connection, so a longer request line can never complete. It used to
/// leave its connection wedged — no reply, no close, and no later
/// request on it ever answered. Now the server closes the connection
/// (the client sees EOF or a reset), and a fresh connection is served.
#[test]
fn an_oversized_line_closes_its_connection_and_the_server_serves_on() {
    let stream = TcpStream::connect(server_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // 300 KB and no newline, from a thread of its own: the server stops
    // reading at its buffer limit, so the tail may never drain, and a
    // write into a closed connection fails harmlessly.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 300 * 1024]);
    });
    let mut reader = stream;
    let mut buf = [0u8; 64];
    match reader.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("server replied to an incomplete line: {:?}", &buf[..n]),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted),
            "connection left open after an oversized line: {e}"
        ),
    }
    flood.join().unwrap();

    let fresh = TcpStream::connect(server_addr()).unwrap();
    fresh.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = fresh.try_clone().unwrap();
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(fresh).read_line(&mut pong).unwrap();
    let events = pfdbg_obs::jsonl::parse_jsonl(&pong).unwrap();
    assert_eq!(
        events.first().and_then(|ev| ev.fields.get("ok")),
        Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)),
        "a fresh connection went unanswered: {pong:?}"
    );
}
