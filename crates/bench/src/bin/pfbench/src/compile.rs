//! The compile workload: the paper's one-off offline flow — a
//! from-source build of the design, which is every workload's set-up —
//! run back to back for the measured time, with the products checked
//! identical across builds; `setup_s` is the median build. Between
//! builds, the standalone turn engine applies a batch of seeded debug
//! turns to the first build's output: those turns are the workload's
//! requests (latency, throughput, device cost per turn), spread over the
//! whole run rather than bunched at its end.

use crate::json::Json;
use crate::probe::{self, Chaos, Probe};
use crate::report::{peak_rss_mb, RunOutput};
use crate::setup;
use crate::stream::{Op, Stream, Workload};
use crate::RunOpts;
use pfdbg_core::OfflineResult;
use pfdbg_pconf::OnlineReconfigurator;
use pfdbg_replay::bitstream_crc;
use pfdbg_serve::protocol::parse_param_bits;
use pfdbg_util::stats::{median, percentile};
use pfdbg_util::BitVec;
use std::time::Instant;

/// Seeded vectors whose specialization CRCs must repeat on every run.
const CRC_VECTORS: u64 = 8;
/// Debug turns applied after each compile.
const TURNS_PER_COMPILE: u64 = 500;

fn vector(stream: &Stream, session: usize, k: u64) -> Result<BitVec, String> {
    match stream.op(session, k) {
        Op::Select(p) => parse_param_bits(&p),
        Op::Scrub => Err("the compile stream has no scrubs".into()),
    }
}

/// What the interleaved turns measured.
#[derive(Default)]
struct Turns {
    wall_us: Vec<f64>,
    device_us: f64,
    verify_us: f64,
    frames: usize,
    bits: usize,
    retries: u32,
    failures: u64,
}

impl Turns {
    fn apply(&mut self, engine: &mut OnlineReconfigurator, params: &BitVec) {
        let t0 = Instant::now();
        let turn = engine.try_apply(params);
        self.wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match turn {
            Ok(t) => {
                self.device_us += (t.transfer_time + t.verify_time).as_secs_f64() * 1e6;
                self.verify_us += t.verify_time.as_secs_f64() * 1e6;
                self.frames += t.frames_changed;
                self.bits += t.bits_changed;
                self.retries += t.retries;
            }
            Err(e) => {
                eprintln!("pfbench: debug turn: {e}");
                self.failures += 1;
            }
        }
    }
}

pub fn run(o: &RunOpts) -> Result<RunOutput, String> {
    let traced = o.trace.is_some();
    let mut out = RunOutput::default();
    let n_params = setup::instrument(o.design())?.0.n_params();
    let stream = Stream::new(Workload::Compile, o.seed, n_params);
    let vectors: Vec<BitVec> =
        (0..CRC_VECTORS).map(|k| vector(&stream, 0, k)).collect::<Result<_, _>>()?;

    // The measured loop. A traced run records spans on every second
    // build only; the two halves give the tracing overhead.
    if traced {
        pfdbg_obs::reset();
    }
    let t_start = Instant::now();
    let (mut setup_s, mut instrument_ms) = (Vec::new(), Vec::new());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut first_crcs: Option<Vec<u64>> = None;
    let (mut crc_mismatches, mut compiles) = (0u64, 0u64);
    let mut engine: Option<OnlineReconfigurator> = None;
    let mut last: Option<OfflineResult> = None;
    let mut turns = Turns::default();
    let mut k = 0u64;
    while compiles < 2 || t_start.elapsed().as_secs_f64() < o.seconds {
        let with_spans = traced && spanned.len() <= plain.len();
        pfdbg_obs::set_enabled(with_spans);
        let built = setup::build(o.design());
        pfdbg_obs::set_enabled(false);
        let built = built?;
        compiles += 1;
        setup_s.push(built.seconds);
        instrument_ms.push(built.instrument_ms);
        if with_spans { &mut spanned } else { &mut plain }.push(built.offline_s);
        let off = built.off;
        let scg = off.scg.as_ref().ok_or("the offline flow produced no SCG")?;
        let crcs: Vec<u64> = vectors
            .iter()
            .map(|v| scg.try_specialize(v).map(|b| bitstream_crc(&b)))
            .collect::<Result<_, _>>()?;
        match &first_crcs {
            None => first_crcs = Some(crcs),
            Some(first) => {
                crc_mismatches += first.iter().zip(&crcs).filter(|(a, b)| a != b).count() as u64
            }
        }
        match engine.as_mut() {
            None => engine = Some(off.into_online().ok_or("the offline flow produced no SCG")?),
            Some(e) => {
                for _ in 0..TURNS_PER_COMPILE {
                    turns.apply(e, &vector(&stream, 1, k)?);
                    k += 1;
                }
                last = Some(off);
            }
        }
    }
    let n = turns.wall_us.len().max(1) as f64;
    out.set("latency_p50_ms", percentile(&turns.wall_us, 50.0).unwrap_or(f64::NAN) / 1e3);
    out.set("latency_p99_ms", percentile(&turns.wall_us, 99.0).unwrap_or(f64::NAN) / 1e3);
    out.set("throughput_rps", n / (turns.wall_us.iter().sum::<f64>() / 1e6));
    out.set("device_us_per_turn", turns.device_us / n);
    out.set("pconf.icap.frames_per_turn", turns.frames as f64 / n);
    out.set("pconf.icap.bits_per_turn", turns.bits as f64 / n);
    out.set("pconf.icap.retries_per_turn", turns.retries as f64 / n);
    out.set("pconf.icap.verify_ratio", turns.verify_us / (turns.device_us - turns.verify_us));
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.set("core.instrument_ms", median(&instrument_ms).unwrap_or(f64::NAN));

    let last = last.expect("at least two compiles");
    let tpar = last.tpar.as_ref().ok_or("the offline flow ran without place & route")?;
    out.set("wires_used", tpar.stats.wires_used as f64);
    out.set("pr.route_iterations", tpar.stats.route_iterations as f64);
    let scg = last.scg.as_ref().ok_or("the offline flow produced no SCG")?;
    let layout = last.layout.as_ref().ok_or("the offline flow produced no layout")?;
    out.set("pconf.genbits.bdd_nodes", scg.manager().n_nodes() as f64);
    out.set("pconf.genbits.tunable_bits", scg.generalized().n_tunable() as f64);
    out.set("util.par.threads", pfdbg_util::par::threads() as f64);

    let mut attempted = compiles * (1 + CRC_VECTORS) + turns.wall_us.len() as u64;
    let mut failed = crc_mismatches + turns.failures;
    if traced {
        let stages = setup::stage_ms(&pfdbg_obs::registry().spans());
        for (stage, _) in setup::STAGES {
            out.set(stage, setup::stage_median(&stages, stage));
        }
        out.set("trace.unattributed_us", setup::unattributed_ms(&stages) * 1e3);
        out.set(
            "trace.overhead_ratio",
            median(&spanned).unwrap_or(f64::NAN) / median(&plain).unwrap_or(f64::NAN),
        );
        let journal = o.results_dir.join(format!("probe-{}.pfdj", std::process::id()));
        pfdbg_obs::set_enabled(true);
        let probed = probe::run(Probe {
            scg,
            layout,
            icap: &last.icap,
            online: engine.expect("at least two compiles"),
            stream: &stream,
            chaos: Chaos::default(),
            manager: None,
            journal: &journal,
            requests: o.probe_requests(),
        });
        pfdbg_obs::set_enabled(false);
        let s = probed?;
        attempted += s.attempted;
        failed += s.failed;
        s.report(&mut out);
        let specializations = s.by_layer.get("pconf.scg.specialize").map_or(0, Vec::len);
        out.set("pconf.scg.specializations", specializations as f64);
        // No server runs in this workload.
        for name in [
            "serve.server.request_us_p50",
            "serve.server.request_us_p99",
            "serve.net_us_p50",
            "serve.shard.inbox_wait_us_p50",
            "serve.shard.inbox_wait_us_p99",
            "serve.session.turn_us_p50",
            "serve.session.turn_us_p99",
            "serve.lru.hit_ratio",
            "pconf.icap.rollbacks",
            "pconf.scrub.repairs",
            "pconf.scrub.upset_frames",
            "pconf.health.watchdog_trips",
            "emu.seu.bits_injected",
            "replay.journal.records",
        ] {
            out.set(name, 0.0);
        }
    }
    out.checks.push(("specialize_crc identical across compiles", crc_mismatches == 0));
    out.details.push(("design", Json::str(o.design())));
    out.details.push(("compiles", Json::Num(compiles as f64)));
    out.details.push(("turns", Json::Num(turns.wall_us.len() as f64)));
    out.attempted = attempted;
    out.failed = failed;
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}
