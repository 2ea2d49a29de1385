//! The TCP front end: acceptor, nonblocking IO threads, graceful
//! shutdown.
//!
//! Pure `std::net` — no async runtime. The acceptor thread hands
//! accepted connections round-robin to N IO threads; each IO thread
//! runs a readiness loop over its connections (nonblocking sockets,
//! buffered reads/writes, bounded request pipelining per connection).
//! Parsed requests become shard jobs: the IO thread reserves a slot in
//! the owning shard's bounded inbox — replying `overloaded` immediately
//! when the shard is saturated — and the shard thread answers through a
//! completion channel. Replies are re-sequenced per connection, so
//! pipelined requests come back in request order even when their shards
//! finish out of order.
//!
//! Every request owns a `ReplySlot` from parse to reply: exactly one
//! reply per request, even if the handler panics (the slot's `Drop`
//! sends an internal-error reply) — one bad connection or one bad
//! request can't take down the fleet, and nothing here can poison a
//! lock another thread needs (see `shard::relock`).

use crate::protocol::{param_bits_string, parse_request, Reply, Request, RequestMeta};
use crate::session::SessionManager;
use crate::shard::{Job, SelectSpec, Shard};
use crate::telemetry as tel;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Server settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// IO thread count (connections are spread round-robin across
    /// them; each thread multiplexes all of its connections, so this
    /// does **not** bound concurrent clients — shard inboxes bound
    /// concurrent work instead).
    pub workers: usize,
    /// Default per-request deadline when the request names none.
    pub default_deadline_ms: f64,
    /// Honor `{"op":"shutdown"}` from clients (handy for smoke tests
    /// and load generators; disable for long-lived servers).
    pub allow_remote_shutdown: bool,
    /// LRU capacity, in specializations (packed tunable words).
    pub cache_capacity: usize,
    /// Background scrub interval in milliseconds; `0` (or anything
    /// non-finite/non-positive) disables the scrubber thread. Each
    /// interval the scrubber kicks a walk on every shard whose previous
    /// walk has finished; walks ride the shard inboxes, so a hot
    /// session delays its scrub instead of losing it.
    pub scrub_interval_ms: f64,
    /// Requests a single connection may have in flight before the IO
    /// thread stops reading from it (per-connection pipelining bound).
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            default_deadline_ms: 1000.0,
            allow_remote_shutdown: true,
            cache_capacity: 64,
            scrub_interval_ms: 0.0,
            pipeline_depth: 64,
        }
    }
}

struct Shared {
    sessions: SessionManager,
    cfg: ServerConfig,
    stop: AtomicBool,
}

/// A running server.
pub struct Server;

/// Handle to a running server: its address and the shutdown control.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads; returns once the
    /// listener is live (so the caller can read the actual port).
    pub fn start(sessions: SessionManager, cfg: ServerConfig) -> Result<ServerHandle, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let local_addr = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let workers = cfg.workers.max(1);
        // Bind the declared SLO budgets to this server's actual
        // configuration before the first observation lands.
        tel::SLO_TURN.set_budget_us(cfg.default_deadline_ms * 1e3);
        tel::SLO_INBOX.set_budget_us(cfg.default_deadline_ms * 1e3 / 4.0);
        let scrub_interval = scrub_interval_ms(&cfg);
        if scrub_interval > 0.0 {
            // A scrub walk that takes longer than twice its configured
            // cadence (busy shards, slow readback) burns the budget.
            tel::SLO_SCRUB.set_budget_us(scrub_interval * 2.0 * 1e3);
        }
        let shared = Arc::new(Shared { sessions, cfg, stop: AtomicBool::new(false) });

        let mut threads = Vec::with_capacity(workers + 2);
        let mut conn_txs = Vec::with_capacity(workers);
        for i in 0..workers {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(conn_tx);
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pfdbg-io-{i}"))
                    .spawn(move || io_loop(&shared, &conn_rx))
                    .map_err(|e| format!("cannot spawn io thread: {e}"))?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("pfdbg-accept".into())
                    .spawn(move || accept_loop(&listener, &shared, &conn_txs))
                    .map_err(|e| format!("cannot spawn acceptor: {e}"))?,
            );
        }
        if scrub_interval > 0.0 {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("pfdbg-scrub".into())
                    .spawn(move || scrub_loop(&shared))
                    .map_err(|e| format!("cannot spawn scrubber: {e}"))?,
            );
        }
        Ok(ServerHandle { local_addr, shared, threads })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Has shutdown been requested (locally or by a client)?
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// The session manager (for post-run statistics).
    pub fn sessions(&self) -> &SessionManager {
        &self.shared.sessions
    }

    /// Request shutdown and join every thread. Idempotent with a
    /// client-initiated shutdown.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor: it blocks in accept(), so connect to it.
        let _ = TcpStream::connect(self.local_addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Block until a client-initiated shutdown stops the server, then
    /// join the threads.
    pub fn wait(mut self) {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        // Same wake-up dance as a local shutdown: the acceptor blocks in
        // accept() and must be poked loose with a connection.
        let _ = TcpStream::connect(self.local_addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, conn_txs: &[mpsc::Sender<TcpStream>]) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => {
                tel::CONNECTIONS.add(1);
                // Round-robin across IO threads; a send can only fail
                // once the target thread has exited during shutdown.
                let _ = conn_txs[next % conn_txs.len()].send(s);
                next = next.wrapping_add(1);
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// The background scrub interval in milliseconds; 0 when the scrubber
/// is off (the configured value is non-finite or non-positive).
fn scrub_interval_ms(cfg: &ServerConfig) -> f64 {
    let ms = cfg.scrub_interval_ms;
    if ms.is_finite() && ms > 0.0 {
        ms
    } else {
        0.0
    }
}

/// The background scrubber: every `scrub_interval_ms`, kick one scrub
/// walk per shard. The walk is a `ScrubAll` inbox job that the shard
/// expands into per-session scrubs, so scrubs interleave with queued
/// selects and a busy session is *delayed*, never skipped. A shard
/// still finishing the previous walk is left alone (no pile-up); its
/// cadence stretches, which the scrub SLO makes visible.
fn scrub_loop(shared: &Shared) {
    let interval = Duration::from_secs_f64(shared.cfg.scrub_interval_ms / 1e3);
    let step = interval.min(Duration::from_millis(50));
    let mut last_walk: Option<Instant> = None;
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(step);
            slept += step;
        }
        // The cadence SLO watches walk-to-walk spacing: on time when a
        // walk starts within 2× the configured interval of the last.
        if let Some(prev) = last_walk {
            tel::SLO_SCRUB.observe_us(prev.elapsed().as_secs_f64() * 1e6);
        }
        last_walk = Some(Instant::now());
        shared.sessions.scrub_walk();
    }
}

/// `read`/`write` on a nonblocking or read-timeout socket reports "no
/// data yet" as `WouldBlock` on most platforms but `TimedOut` on some
/// (notably Windows timeouts); both mean "poll again later", and
/// treating only one of them as such makes idle handling and shutdown
/// latency differ by OS.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Bytes of unparsed request data buffered per connection before the
/// IO thread stops reading it (flow control against line flooding).
/// It also bounds one request line: a full buffer holding no newline
/// can never complete a request, so it kills the connection.
const READ_HIGH_WATER: usize = 256 * 1024;

/// One reply finished somewhere (a shard thread, or inline on the IO
/// thread) and is ready to be sequenced onto its connection.
struct Completion {
    conn: u64,
    seq: u64,
    line: String,
    shutdown: bool,
}

/// One client connection owned by an IO thread.
struct Conn {
    id: u64,
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the next reply to write — replies completing
    /// out of order wait in `pending` until their turn.
    write_seq: u64,
    pending: BTreeMap<u64, String>,
    inflight: usize,
    eof: bool,
    dead: bool,
}

impl Conn {
    fn new(id: u64, stream: TcpStream) -> Conn {
        Conn {
            id,
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            write_seq: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            eof: false,
            dead: false,
        }
    }

    /// Move any now-in-order pending replies into the write buffer.
    fn sequence_replies(&mut self) -> bool {
        let mut progress = false;
        while let Some(line) = self.pending.remove(&self.write_seq) {
            self.wbuf.extend_from_slice(line.as_bytes());
            self.wbuf.push(b'\n');
            self.write_seq += 1;
            progress = true;
        }
        progress
    }

    /// Write as much of the buffered output as the socket accepts.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if is_poll_timeout(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        progress
    }

    /// Read whatever the socket has, up to the high-water mark.
    fn read_some(&mut self) -> bool {
        let mut progress = false;
        let mut buf = [0u8; 16 * 1024];
        while self.rbuf.len() < READ_HIGH_WATER {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    return progress;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(e) if is_poll_timeout(&e) => return progress,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        progress
    }

    /// All replies written and nothing left to produce one?
    fn drained(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && self.wpos == self.wbuf.len()
    }
}

fn io_loop(shared: &Arc<Shared>, conn_rx: &mpsc::Receiver<TcpStream>) {
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_id = 0u64;
    let mut idle = 0u32;
    loop {
        let mut progress = false;

        while let Ok(stream) = conn_rx.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // No Nagle: replies are small writes and coalescing them
            // behind delayed ACKs costs tens of ms per turn.
            let _ = stream.set_nodelay(true);
            conns.push(Conn::new(next_id, stream));
            next_id += 1;
            progress = true;
        }

        while let Ok(done) = done_rx.try_recv() {
            progress = true;
            if done.shutdown {
                shared.stop.store(true, Ordering::SeqCst);
            }
            if let Some(conn) = conns.iter_mut().find(|c| c.id == done.conn) {
                conn.pending.insert(done.seq, done.line);
                conn.inflight -= 1;
            }
        }

        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            progress |= conn.sequence_replies();
            progress |= conn.flush();
            if !conn.eof {
                progress |= conn.read_some();
            }
            progress |= parse_and_dispatch(conn, shared, &done_tx);
        }
        conns.retain(|c| !(c.dead || c.eof && c.drained()));

        if shared.stop.load(Ordering::SeqCst) {
            drain_on_stop(&mut conns, &done_rx);
            return;
        }

        // Idle ladder: spin briefly for latency, then back off so an
        // idle server costs ~nothing. The 2 ms ceiling bounds added
        // wake-up latency for a connection that goes active again.
        if progress {
            idle = 0;
        } else {
            idle += 1;
            if idle < 64 {
                std::thread::yield_now();
            } else if idle < 128 {
                std::thread::sleep(Duration::from_micros(200));
            } else {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Pull complete lines off the connection's read buffer and dispatch
/// them, respecting the per-connection pipelining bound.
fn parse_and_dispatch(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    done_tx: &mpsc::Sender<Completion>,
) -> bool {
    let mut progress = false;
    while !conn.dead && conn.inflight < shared.cfg.pipeline_depth.max(1) {
        let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') else {
            // `read_some` stops at the high-water mark, so no more of
            // this line will ever be read: without the kill the
            // connection would sit wedged, never seeing a hang-up.
            if conn.rbuf.len() >= READ_HIGH_WATER {
                conn.dead = true;
            }
            break;
        };
        let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        progress = true;
        conn.inflight += 1;
        let slot = ReplySlot::new(done_tx.clone(), conn.id, conn.next_seq);
        conn.next_seq += 1;
        // A panicking handler must cost one request, not the thread:
        // the slot unwinds with the panic and its Drop still sends a
        // reply, so the client is answered and the loop keeps serving.
        if catch_unwind(AssertUnwindSafe(|| dispatch_line(&line, shared, slot))).is_err() {
            shared.sessions.table().handler_panics.add(1);
        }
    }
    progress
}

/// After a stop request: give in-flight shard jobs a moment to complete,
/// sequence their replies, and flush what the sockets will take — then
/// exit regardless. Best-effort by design; the bound keeps shutdown
/// prompt even with a wedged client.
fn drain_on_stop(conns: &mut [Conn], done_rx: &mpsc::Receiver<Completion>) {
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        while let Ok(done) = done_rx.try_recv() {
            if let Some(conn) = conns.iter_mut().find(|c| c.id == done.conn) {
                conn.pending.insert(done.seq, done.line);
                conn.inflight -= 1;
            }
        }
        let mut outstanding = false;
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            conn.sequence_replies();
            conn.flush();
            outstanding |= !conn.drained();
        }
        if !outstanding || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The obligation to answer exactly one request. Created at parse time,
/// carried into whatever context produces the reply (inline handler or
/// shard job), consumed by `send`. If it is dropped unconsumed — the
/// handler panicked, or a shutdown dropped the job — `Drop` sends an
/// internal-error reply instead, so the client never hangs on a request
/// the server silently lost.
struct ReplySlot {
    tx: mpsc::Sender<Completion>,
    conn: u64,
    seq: u64,
    meta: RequestMeta,
    /// Request parse time — the zero point for both the request-latency
    /// histogram and (for selects) the deadline, so time spent queued
    /// in a shard inbox counts.
    started: Instant,
    sent: bool,
}

impl ReplySlot {
    fn new(tx: mpsc::Sender<Completion>, conn: u64, seq: u64) -> ReplySlot {
        ReplySlot {
            tx,
            conn,
            seq,
            meta: RequestMeta::default(),
            started: Instant::now(),
            sent: false,
        }
    }

    fn meta(&self) -> RequestMeta {
        self.meta.clone()
    }

    fn send(mut self, reply: Reply) {
        self.dispatch(reply.render(), false);
    }

    fn send_shutdown(mut self, reply: Reply) {
        self.dispatch(reply.render(), true);
    }

    fn dispatch(&mut self, line: String, shutdown: bool) {
        if self.sent {
            return;
        }
        self.sent = true;
        tel::REQUEST_US.record_duration(self.started.elapsed());
        let _ = self.tx.send(Completion { conn: self.conn, seq: self.seq, line, shutdown });
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if !self.sent {
            tel::ERRORS.add(1);
            let line = Reply::error(
                &self.meta,
                "internal error: the request produced no reply (handler panicked or \
                 server stopped)",
            )
            .render();
            self.dispatch(line, false);
        }
    }
}

/// An error reply, counted.
fn error_reply(meta: &RequestMeta, message: &str) -> Reply {
    tel::ERRORS.add(1);
    Reply::error(meta, message)
}

/// Resolve a `replay` verb argument inside the server's journal
/// directory. The verb re-drives whatever file the client names, so the
/// name is confined: relative only, no `..` components, resolved
/// against `--journal-dir` — a client can replay the server's own
/// journals (the `file` field the `record` verb returns) and nothing
/// else on the host filesystem.
fn resolve_replay_path(shared: &Shared, path: &str) -> Result<std::path::PathBuf, String> {
    use std::path::Component;
    let dir = shared
        .sessions
        .journal_dir()
        .ok_or("replay requires a server started with --journal-dir")?;
    let rel = std::path::Path::new(path);
    if rel.is_absolute() {
        return Err("replay paths must be relative to the server's journal directory".into());
    }
    if rel.components().any(|c| !matches!(c, Component::Normal(_) | Component::CurDir)) {
        return Err("replay paths may not contain \"..\" (or drive/root prefixes)".into());
    }
    Ok(dir.join(rel))
}

/// The retry hint on an `overloaded` reply: scales with the saturated
/// shard's queue depth so a deeper backlog pushes clients further out,
/// clamped to something a human-scale retry loop can respect.
fn retry_after_ms(shared: &Shared, idx: usize) -> f64 {
    (shared.sessions.inbox_depth(idx) as f64 * 0.5).clamp(5.0, 500.0)
}

/// Reserve a client slot on `session`'s shard and hand `slot` plus the
/// job builder over to it; shed with an `overloaded` reply when the
/// inbox is full. The reservation happens *before* the job exists, so a
/// shed request costs an allocation-free counter update and one reply.
///
/// Every session verb, select included, takes this route, so the
/// session panic rule (`Shard::run_for_session`, which the embedding
/// facade shares) covers them all: a handler that unwinds drops the
/// session it names (its state is suspect), counts in
/// `handler_panics`, and leaves the slot unsent, whose `Drop` answers
/// with the internal-error reply.
fn route_session(
    shared: &Arc<Shared>,
    slot: ReplySlot,
    session: String,
    f: impl FnOnce(&mut Shard, RequestMeta) -> Reply + Send + 'static,
) {
    let idx = shared.sessions.shard_index(&session);
    // A session whose device is mid-failover answers `overloaded`
    // instead of queueing behind the journal re-drive: the client backs
    // off and retries once the spare has caught up, rather than holding
    // a pipelined slot open across the whole migration.
    if shared.sessions.session_migrating(&session) || !shared.sessions.try_reserve_client(idx) {
        shared.sessions.table().shed_total.add(1);
        tel::ERRORS.add(1);
        let meta = slot.meta();
        slot.send(Reply::overloaded(&meta, idx, retry_after_ms(shared, idx)));
        return;
    }
    let job = Job::Run(Box::new(move |sh| {
        let meta = slot.meta();
        if let Some(reply) = sh.run_for_session(&session, |sh| f(sh, meta)) {
            slot.send(reply);
        }
    }));
    // A push only fails once the inbox is closed for shutdown; the
    // dropped job's slot then answers with its internal-error reply.
    let _ = shared.sessions.push_client(idx, job);
}

fn dispatch_line(line: &str, shared: &Arc<Shared>, mut slot: ReplySlot) {
    let _s = pfdbg_obs::span("serve.request");
    tel::REQUESTS.add(1);
    let (req, meta) = parse_request(line);
    slot.meta = meta.clone();
    let req = match req {
        Ok(r) => r,
        Err(e) => {
            slot.send(error_reply(&meta, &e));
            return;
        }
    };
    match req {
        // Fleet verbs answer inline on the IO thread: they read atomics
        // and telemetry snapshots, never a shard's session state.
        Request::Ping => slot.send(Reply::ok(&meta)),
        Request::Stats => slot.send(stats_reply(&meta, shared)),
        Request::Shutdown => {
            if shared.cfg.allow_remote_shutdown {
                slot.send_shutdown(Reply::ok(&meta));
            } else {
                slot.send(error_reply(&meta, "remote shutdown is disabled"));
            }
        }
        Request::Dump { session: None } => {
            let reply = match shared.sessions.last_flight_dump() {
                Some((name, flight)) => Reply::ok(&meta)
                    .str("session", name)
                    .str("source", "auto")
                    .num("events", flight.lines().count() as f64)
                    .str("flight", flight),
                None => error_reply(&meta, "no automatic flight-recorder dump captured yet"),
            };
            slot.send(reply);
        }
        // `metrics` and `replay` block the IO thread (shard round-trips
        // for the session rows; a full journal re-drive). Both are
        // rare, operator-driven verbs; their cost lands on the caller's
        // connection, and pipelined requests on *other* connections of
        // this thread wait — the price of a poll loop with no inner
        // scheduler, documented here rather than hidden.
        Request::Metrics => {
            let reply = metrics_reply(&meta, shared);
            slot.send(reply);
        }
        Request::Replay { path } => {
            let reply = match resolve_replay_path(shared, &path)
                .and_then(|p| shared.sessions.replay_journal(&p))
            {
                Ok((session, records, divergence)) => {
                    let mut r = Reply::ok(&meta)
                        .str("session", session)
                        .num("records", records as f64)
                        .bool("identical", divergence.is_none());
                    if let Some(d) = divergence {
                        r = r.str("divergence", d.to_string());
                    }
                    r
                }
                Err(e) => error_reply(&meta, &e),
            };
            slot.send(reply);
        }
        // Fleet-supervision verbs. `devices` does shard round-trips for
        // the live per-device session counts; `drain`/`fail` flip
        // atomics and enqueue internal migration jobs — all fine on the
        // IO thread (the re-drives themselves run on the shards).
        Request::Devices => {
            let (devices, primaries) = shared.sessions.device_counts();
            let rows = shared.sessions.devices_metrics_jsonl();
            let reply = Reply::ok(&meta)
                .num("devices", devices as f64)
                .num("primaries", primaries as f64)
                .num("spares", (devices - primaries) as f64);
            slot.send(
                with_counts(reply, &shared.sessions)
                    .num("lines", rows.lines().count() as f64)
                    .str("table", rows),
            );
        }
        Request::Drain { device } => {
            let reply = match shared.sessions.drain_device(device) {
                Ok(()) => Reply::ok(&meta).num("device", device as f64).str("action", "drain"),
                Err(e) => error_reply(&meta, &e),
            };
            slot.send(reply);
        }
        Request::Fail { device } => {
            let reply = match shared.sessions.fail_device(device) {
                Ok(()) => Reply::ok(&meta).num("device", device as f64).str("action", "fail"),
                Err(e) => error_reply(&meta, &e),
            };
            slot.send(reply);
        }
        // Session verbs route to the owning shard.
        Request::Open { session } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.open(&name) {
                Ok(n) => Reply::ok(&meta).str("session", name).num("n_params", n as f64),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Close { session } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.close(&name) {
                Ok(()) => Reply::ok(&meta).str("session", name),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Health { session } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.health(&name) {
                Ok(h) => Reply::ok(&meta)
                    .str("session", name)
                    .str("verdict", h.verdict.as_str())
                    .num("scrubs", h.scrubs as f64)
                    .num("upsets_detected", h.upsets_detected as f64)
                    .num("bits_upset", h.bits_upset as f64)
                    .num("frames_repaired", h.frames_repaired as f64)
                    .num("quarantined", h.quarantine.len() as f64)
                    .str(
                        "quarantine",
                        h.quarantine.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(","),
                    )
                    .bool("needs_resync", h.needs_resync)
                    .num("turns", h.turns as f64)
                    // Fleet-wide SLO burn, so one health poll shows both
                    // this session's scrub state and whether the server
                    // as a whole is inside its declared budgets.
                    .num("slo_specialize_total", tel::SLO_SPECIALIZE.get().total() as f64)
                    .num("slo_specialize_burned", tel::SLO_SPECIALIZE.get().burned() as f64)
                    .num("slo_turn_total", tel::SLO_TURN.get().total() as f64)
                    .num("slo_turn_burned", tel::SLO_TURN.get().burned() as f64)
                    .num("slo_scrub_total", tel::SLO_SCRUB.get().total() as f64)
                    .num("slo_scrub_burned", tel::SLO_SCRUB.get().burned() as f64),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Scrub { session } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.scrub(&name) {
                Ok(r) => Reply::ok(&meta)
                    .str("session", name)
                    .num("frames_checked", r.frames_checked as f64)
                    .num("upset_frames", r.upset_frames as f64)
                    .num("upset_bits", r.upset_bits as f64)
                    .num("repaired_frames", r.repaired_frames as f64)
                    .num("failed_frames", r.failed_frames as f64)
                    .num("quarantined_frames", r.quarantined_frames as f64)
                    .num("scrub_us", r.scrub_time.as_secs_f64() * 1e6),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Dump { session: Some(session) } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.flight_dump(&name) {
                Ok(flight) => Reply::ok(&meta)
                    .str("session", name)
                    .str("source", "live")
                    .num("events", flight.lines().count() as f64)
                    .str("flight", flight),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Record { session } => {
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| match sh.journal_status(&name) {
                Ok((path, file, records)) => Reply::ok(&meta)
                    .str("session", name)
                    .str("path", path)
                    .str("file", file)
                    .num("records", records as f64),
                Err(e) => error_reply(&meta, &e),
            });
        }
        Request::Select { session, params, signals, deadline_ms } => {
            // `try_from_secs_f64`, not `from_secs_f64`: the parser
            // rejects NaN and negatives, but a huge finite value (say
            // 1e300 ms) would still panic in the infallible
            // constructor. Out-of-range budgets are protocol errors —
            // checked before any inbox slot is reserved, so they can
            // never leak a reservation.
            let ms = deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
            let budget = match Duration::try_from_secs_f64(ms / 1e3) {
                Ok(d) => d,
                Err(_) => {
                    slot.send(error_reply(&meta, &format!("deadline_ms out of range: {ms}")));
                    return;
                }
            };
            let spec = match params {
                Some(p) => SelectSpec::Params(p),
                None => SelectSpec::Signals(signals),
            };
            let deadline = Some((slot.started, budget));
            let name = session.clone();
            route_session(shared, slot, session, move |sh, meta| {
                match sh.select(&name, spec, deadline) {
                    Ok(o) => Reply::ok(&meta)
                        .str("session", name)
                        .str("params", param_bits_string(&o.params))
                        .num("turn", o.turn as f64)
                        .num("bits_changed", o.bits_changed as f64)
                        .num("frames_changed", o.frames_changed as f64)
                        .num("eval_us", o.eval_us)
                        .num("transfer_us", o.transfer_us)
                        .num("verify_us", o.verify_us)
                        .num("retries", o.retries as f64)
                        .num("degradations", o.degradations as f64)
                        .str("cache", if o.cache_hit { "hit" } else { "miss" }),
                    Err(e) => error_reply(&meta, &e),
                }
            });
        }
    }
}

/// `reply` plus every entry of the manager's counter table, under its
/// wire name.
fn with_counts(reply: Reply, sessions: &SessionManager) -> Reply {
    sessions.counts().entries().into_iter().fold(reply, |r, (name, n)| r.num(name, n as f64))
}

fn stats_reply(meta: &RequestMeta, shared: &Shared) -> Reply {
    let sessions = &shared.sessions;
    let (devices, primaries) = sessions.device_counts();
    let reply = Reply::ok(meta)
        .num("sessions", sessions.n_sessions() as f64)
        .num("shards", sessions.shard_count() as f64)
        .num("inbox_capacity", sessions.inbox_capacity() as f64)
        .num("seu_rate", sessions.seu_rate())
        .num("scrub_interval_ms", scrub_interval_ms(&shared.cfg))
        .num("devices", devices as f64)
        .num("device_primaries", primaries as f64);
    with_counts(reply, sessions)
        .num("specialize_p50_us", tel::SPECIALIZE_US.get().percentile_us(50.0).unwrap_or(0.0))
        .num("specialize_p99_us", tel::SPECIALIZE_US.get().percentile_us(99.0).unwrap_or(0.0))
        .num("turn_p99_us", tel::TURN_US.get().percentile_us(99.0).unwrap_or(0.0))
        .num("inbox_wait_p99_us", tel::INBOX_WAIT_US.get().percentile_us(99.0).unwrap_or(0.0))
}

/// The `metrics` verb. Counters and inbox depths are this manager's,
/// read now; the hub adds what is process-wide.
fn metrics_reply(meta: &RequestMeta, shared: &Shared) -> Reply {
    use pfdbg_obs::jsonl::{write_object, JsonValue};
    let sessions = &shared.sessions;
    let hub = pfdbg_obs::hub();
    let mut body = String::new();
    let mut line = |kind: &str, name: String, value: f64| {
        body.push_str(&write_object(&[
            ("type", JsonValue::Str(kind.into())),
            ("name", JsonValue::Str(name)),
            ("value", JsonValue::Num(value)),
        ]));
        body.push('\n');
    };
    for (name, value) in sessions.counts().entries() {
        line("counter", format!("serve.{name}"), value as f64);
    }
    for (name, value) in hub.counters() {
        line("counter", name, value as f64);
    }
    for idx in 0..sessions.shard_count() {
        line("gauge", format!("serve.shard{idx}.inbox_depth"), sessions.inbox_depth(idx) as f64);
    }
    for (name, value) in hub.gauges() {
        line("gauge", name, value);
    }
    hub.append_jsonl(&mut body);
    body.push_str(&sessions.sessions_metrics_jsonl());
    body.push_str(&sessions.devices_metrics_jsonl());
    Reply::ok(meta)
        .num("sessions", sessions.n_sessions() as f64)
        .num("lines", body.lines().count() as f64)
        .str("metrics", body)
}

#[cfg(test)]
mod tests {
    use super::is_poll_timeout;
    use std::io::ErrorKind;

    #[test]
    fn poll_timeout_covers_both_platform_errorkinds() {
        // `read_timeout` expiry surfaces as WouldBlock on Unix and
        // TimedOut on Windows; the loop must treat both as "poll again".
        assert!(is_poll_timeout(&std::io::Error::from(ErrorKind::WouldBlock)));
        assert!(is_poll_timeout(&std::io::Error::from(ErrorKind::TimedOut)));
        assert!(!is_poll_timeout(&std::io::Error::from(ErrorKind::ConnectionReset)));
        assert!(!is_poll_timeout(&std::io::Error::from(ErrorKind::Interrupted)));
    }
}
