//! The serve workloads: compile the design, start an in-process server
//! with the program's defaults, drive it over loopback TCP, then check
//! sampled sessions against the golden specialization.

use crate::json::Json;
use crate::load::{self, ClientSpan, Summary};
use crate::probe::{self, Chaos, Probe};
use crate::report::{peak_rss_mb, RunOutput};
use crate::setup::{self, Built};
use crate::stream::{mix, Stream, Workload};
use crate::RunOpts;
use pfdbg_core::OfflineResult;
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_obs::jsonl::{parse_jsonl, Event, JsonValue};
use pfdbg_pconf::{CommitPolicy, ScrubPolicy};
use pfdbg_serve::protocol::param_bits_string;
use pfdbg_serve::session::{DeviceOptions, Engine, FleetOptions};
use pfdbg_serve::{Server, ServerConfig, SessionManager};
use pfdbg_util::stats::median;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Sessions whose committed state the correctness gate checks.
const GATE_SESSIONS: usize = 32;

/// serve-repair's device environment: 1% per-frame upsets per turn, 2%
/// ICAP write faults, two supervised devices plus a spare, journaling.
fn chaos(w: Workload, seed: u64) -> Chaos {
    match w {
        Workload::ServeRepair => Chaos {
            fault: Some(IcapFaultConfig::uniform(0.02, mix(seed ^ 0xFA17))),
            seu: Some(SeuConfig::new(0.01, mix(seed ^ 0x05E0))),
        },
        _ => Chaos::default(),
    }
}

/// A control connection for setup, the gate, and read-backs.
struct Control {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Control {
    fn connect(addr: SocketAddr) -> Result<Control, String> {
        let tcp = load::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(tcp.try_clone().map_err(|e| e.to_string())?);
        Ok(Control { reader, writer: tcp })
    }

    /// One request, one `ok` reply.
    fn call(&mut self, line: &str) -> Result<Event, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let ev = parse_jsonl(&reply)?.into_iter().next().ok_or("empty reply")?;
        match ev.fields.get("ok") {
            Some(JsonValue::Bool(true)) => Ok(ev),
            _ => Err(format!("{line} -> {}", reply.trim())),
        }
    }
}

fn to_json(ev: &Event) -> Json {
    Json::obj(ev.fields.iter().map(|(k, v)| {
        let v = match v {
            JsonValue::Str(s) => Json::str(s.clone()),
            JsonValue::Num(n) => Json::Num(*n),
            JsonValue::Bool(b) => Json::Bool(*b),
            JsonValue::Null => Json::Null,
        };
        (k.clone(), v)
    }))
}

pub fn run(o: &RunOpts) -> Result<(RunOutput, Vec<ClientSpan>), String> {
    let w = o.workload;
    let traced = o.trace.is_some();
    let mut out = RunOutput::default();

    // Set-up: build the design from source several times (the median is
    // `setup_s`'s build share), then start the server.
    if traced {
        pfdbg_obs::reset();
        pfdbg_obs::set_enabled(true);
    }
    let (mut first, mut spare) = (None, None);
    let (mut build_s, mut instrument_ms) = (Vec::new(), Vec::new());
    for rep in 0..o.setup_reps() {
        let b = setup::build(o.design())?;
        build_s.push(b.seconds);
        instrument_ms.push(b.instrument_ms);
        match rep {
            0 => first = Some(b),
            // A traced run's standalone turn engine needs its own copy.
            1 if traced => spare = Some(b.off),
            _ => {}
        }
    }
    if traced && spare.is_none() {
        spare = Some(setup::build(o.design())?.off);
    }
    pfdbg_obs::set_enabled(false);
    let stages = setup::stage_ms(&pfdbg_obs::registry().spans());
    let Built { inst, off, .. } = first.expect("at least one set-up repetition");
    let build_s = median(&build_s).unwrap_or(f64::NAN);
    let instrument_ms = median(&instrument_ms).unwrap_or(f64::NAN);
    let OfflineResult { scg, layout, tpar, icap, .. } = off;
    let tpar = tpar.ok_or("the offline flow ran without place & route")?;
    let scg = scg.ok_or("the offline flow produced no SCG")?;
    let layout = layout.ok_or("the offline flow produced no layout")?;
    out.set("wires_used", tpar.stats.wires_used as f64);
    out.set("core.instrument_ms", instrument_ms);
    for (stage, _) in setup::STAGES {
        out.set(stage, setup::stage_median(&stages, stage));
    }
    out.set("pr.route_iterations", tpar.stats.route_iterations as f64);
    out.set("pconf.genbits.bdd_nodes", scg.manager().n_nodes() as f64);
    out.set("pconf.genbits.tunable_bits", scg.generalized().n_tunable() as f64);
    out.set("util.par.threads", pfdbg_util::par::threads() as f64);
    let n_params = inst.n_params();

    let t_server = Instant::now();
    let engine = Arc::new(Engine::new(inst, scg, layout, icap));
    let cache = ServerConfig::default().cache_capacity;
    let chaos = chaos(w, o.seed);
    let journal_dir = (w == Workload::ServeRepair)
        .then(|| o.results_dir.join(format!("journal-{}", std::process::id())));
    let mut manager = match w {
        Workload::ServeRepair => SessionManager::with_devices(
            engine.clone(),
            cache,
            chaos.fault,
            CommitPolicy::default(),
            chaos.seu,
            ScrubPolicy::default(),
            FleetOptions::default(),
            DeviceOptions { devices: 2, spares: 1, ..DeviceOptions::default() },
        ),
        _ => SessionManager::with_fleet(
            engine.clone(),
            cache,
            None,
            CommitPolicy::default(),
            None,
            ScrubPolicy::default(),
            FleetOptions::default(),
        ),
    };
    if let Some(dir) = &journal_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        manager.set_journal_dir(dir.clone());
    }
    let server = Server::start(manager, ServerConfig::default())?;
    let result = drive(o, &server, t_server, &engine, chaos, spare, n_params, &mut out);
    server.shutdown();
    if let Some(dir) = &journal_dir {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let (server_s, spans) = result?;
    out.set("setup_s", build_s + server_s);
    out.set("peak_rss_mb", peak_rss_mb());
    Ok((out, spans))
}

/// Everything between server start and shutdown. Returns the server
/// share of set-up time (from `t_server` until every session is open)
/// and the sampled client spans.
#[allow(clippy::too_many_arguments)]
fn drive(
    o: &RunOpts,
    server: &pfdbg_serve::ServerHandle,
    t_server: Instant,
    engine: &Engine,
    chaos: Chaos,
    spare: Option<OfflineResult>,
    n_params: usize,
    out: &mut RunOutput,
) -> Result<(f64, Vec<ClientSpan>), String> {
    let w = o.workload;
    let addr = server.local_addr();
    let names: Vec<String> = (0..o.sessions()).map(|i| format!("s{i:03}")).collect();
    let mut ctl = Control::connect(addr)?;
    for name in &names {
        ctl.call(&format!("{{\"op\":\"open\",\"session\":\"{name}\"}}"))?;
    }
    let server_s = t_server.elapsed().as_secs_f64();

    // The load phase. The always-on hub histograms start from zero, so
    // they describe exactly this phase.
    pfdbg_obs::hub().zero_all();
    let stream = Stream::new(w, o.seed, n_params);
    let traced = o.trace.is_some();
    let load = load::run(addr, &stream, &names, o.seconds, traced);
    let sum: Summary = load::summarize(&load);
    let hist =
        |name: &str, p: f64| pfdbg_obs::hub().histogram(name).percentile_us(p).unwrap_or(0.0);
    let request_p50 = hist("serve.request_us", 50.0);
    out.set("throughput_rps", sum.throughput_rps);
    out.set("latency_p50_ms", sum.p50_ms);
    out.set("latency_p99_ms", sum.p99_ms);
    out.set("device_us_per_turn", sum.device_us_per_turn);
    out.set("serve.server.request_us_p50", request_p50);
    out.set("serve.server.request_us_p99", hist("serve.request_us", 99.0));
    out.set("serve.net_us_p50", sum.p50_ms * 1e3 - request_p50);
    out.set("serve.shard.inbox_wait_us_p50", hist("serve.inbox_wait_us", 50.0));
    out.set("serve.shard.inbox_wait_us_p99", hist("serve.inbox_wait_us", 99.0));
    out.set("serve.session.turn_us_p50", hist("serve.turn_us", 50.0));
    out.set("serve.session.turn_us_p99", hist("serve.turn_us", 99.0));
    out.set("pconf.icap.frames_per_turn", sum.frames_per_turn);
    out.set("pconf.icap.bits_per_turn", sum.bits_per_turn);
    out.set("pconf.icap.retries_per_turn", sum.retries_per_turn);
    out.set("pconf.icap.verify_ratio", sum.verify_ratio);
    out.set("trace.overhead_ratio", sum.overhead_ratio);

    // Correctness gate: on sampled sessions, the device readback must
    // equal the golden specialization of the parameters the session
    // committed — and those must be the ones the client last sent.
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&i| mix(o.seed ^ mix(i as u64)));
    order.truncate(GATE_SESSIONS.min(names.len()));
    let (mut gate_attempted, mut gate_failed) = (0u64, 0u64);
    if w == Workload::ServeRepair {
        for &i in &order {
            gate_attempted += 1;
            if let Err(e) = ctl.call(&format!("{{\"op\":\"scrub\",\"session\":\"{}\"}}", names[i]))
            {
                eprintln!("pfbench: gate scrub: {e}");
                gate_failed += 1;
            }
        }
    }
    for &i in &order {
        gate_attempted += 1;
        let (params, _, _) = server.sessions().session_state(&names[i])?;
        let readback = server.sessions().readback(&names[i])?;
        let golden = engine.scg.try_specialize(&params)?;
        let sent = load.committed[i].as_deref();
        if readback != golden || sent.is_some_and(|p| p != param_bits_string(&params)) {
            eprintln!("pfbench: session {} does not hold its committed configuration", names[i]);
            gate_failed += 1;
        }
    }

    // The server's configuration and counters, read back from it.
    let stats = ctl.call("{\"op\":\"stats\"}")?;
    let stat = |k: &str| stats.num(k).unwrap_or(f64::NAN);
    let (hits, misses) = (stat("cache_hits"), stat("cache_misses"));
    let hit_ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    out.set("serve.lru.hit_ratio", hit_ratio);
    out.set("pconf.scg.specializations", misses);
    out.set("pconf.icap.rollbacks", stat("icap_rollbacks"));
    out.set("pconf.scrub.repairs", stat("scrub_repairs"));
    out.set("pconf.scrub.upset_frames", stat("scrub_upsets_detected"));
    out.set("pconf.health.watchdog_trips", stat("watchdog_trips"));
    out.set("emu.seu.bits_injected", stat("seu_bits_injected"));
    out.set("replay.journal.records", stat("journal_records"));
    // The chaos configuration is not in `stats`; a journaling server
    // writes it into every journal's meta record, so read it there.
    let (seu_rate, fault_rate) =
        match ctl.call(&format!("{{\"op\":\"record\",\"session\":\"{}\"}}", names[0])) {
            Ok(rec) => {
                let path = rec.str("path").ok_or("record reply names no journal")?;
                let (records, _) = pfdbg_replay::read_records(std::path::Path::new(path))?;
                let chaos = &pfdbg_replay::meta_of(&records)?.chaos;
                (
                    Json::Num(chaos.seu.map_or(0.0, |s| s.rate)),
                    Json::Num(chaos.fault.map_or(0.0, |f| f.total_rate())),
                )
            }
            // Journaling off: the server has no place that reports them.
            Err(_) => (Json::Null, Json::Null),
        };
    let seu_ok = stat("seu_bits_injected") == 0.0 || seu_rate.as_f64().is_some_and(|r| r > 0.0);
    out.checks.push(("request ledger balances", load.ledger.balances()));
    out.checks.push(("seu_bits_injected > 0 implies seu_rate > 0", seu_ok));

    let mut server_json = to_json(&stats);
    if let Json::Obj(fields) = &mut server_json {
        fields.push(("seu_rate".into(), seu_rate));
        fields.push(("icap_fault_rate".into(), fault_rate));
    }
    let l = load.ledger;
    out.details.push(("design", Json::str(o.design())));
    out.details.push(("sessions", Json::Num(names.len() as f64)));
    out.details.push((
        "load",
        Json::obj([
            ("shape", Json::str("closed loop, pipelined")),
            ("connections", Json::Num(load::CONNECTIONS as f64)),
            ("in_flight_per_connection", Json::Num(load::DEPTH as f64)),
            ("issued", Json::Num(l.issued as f64)),
            ("ok", Json::Num(l.ok as f64)),
            ("overloaded", Json::Num(l.overloaded as f64)),
            ("migrating", Json::Num(l.migrating as f64)),
            ("failures", Json::Num(l.failures as f64)),
            ("measured_replies", Json::Num(sum.replies as f64)),
        ]),
    ));
    out.details.push((
        "gate",
        Json::obj([
            ("sessions", Json::Num(order.len() as f64)),
            ("failed", Json::Num(gate_failed as f64)),
        ]),
    ));
    out.details.push(("server", server_json));

    let mut attempted = l.issued + gate_attempted;
    let mut failed = l.failures + l.overloaded + l.migrating + gate_failed;
    if let (true, Some(spare)) = (traced, spare) {
        let online = spare
            .into_online_with(chaos.fault, CommitPolicy::default(), chaos.seu)
            .ok_or("the spare compile has no SCG")?;
        let journal = o.results_dir.join(format!("probe-{}.pfdj", std::process::id()));
        pfdbg_obs::set_enabled(true);
        let probed = probe::run(Probe {
            scg: &engine.scg,
            layout: &engine.layout,
            icap: &engine.icap,
            online,
            stream: &stream,
            chaos,
            manager: Some(server.sessions()),
            journal: &journal,
            requests: o.probe_requests(),
        });
        pfdbg_obs::set_enabled(false);
        let s = probed?;
        attempted += s.attempted;
        failed += s.failed;
        s.report(out);
        let staged = probe::stage_sum_us(|l| s.pct(l, 50.0), hit_ratio, w == Workload::ServeRepair);
        out.set("trace.unattributed_us", out.value("serve.session.turn_us_p50") - staged);
    }
    out.attempted = attempted;
    out.failed = failed;
    Ok((server_s, load.spans))
}
