//! The probe phase of a traced run: replay the first requests of the
//! run's own stream through each layer's public calls, one layer at a
//! time, timing every call and wrapping it in a `pfdbg_obs` span.
//!
//! The probe mirrors the server's turn — protocol parse, LRU lookup,
//! specialization on a miss, commit over the same kind of channel,
//! journal append — so the stage times add up to (and reconcile with)
//! the server's own `serve.turn_us` histogram.

use crate::report::RunOutput;
use crate::stream::{request_line, Op, Stream};
use pfdbg_arch::{Bitstream, BitstreamLayout, IcapModel};
use pfdbg_emu::{FaultyIcap, IcapFaultConfig, SeuConfig, SeuIcap};
use pfdbg_pconf::icap::{commit_frames, readback_all};
use pfdbg_pconf::{
    CommitPolicy, IcapChannel, MemoryIcap, OnlineReconfigurator, Scg, ScrubPolicy, Scrubber,
    SpecializeScratch,
};
use pfdbg_replay::{
    bitstream_crc, ChaosSpec, DesignSpec, JournalRecord, JournalWriter, SelectFacts, SelectOutcome,
    SessionMeta,
};
use pfdbg_serve::lru::LruCache;
use pfdbg_serve::protocol::{parse_param_bits, parse_request};
use pfdbg_serve::SessionManager;
use pfdbg_util::stats::percentile;
use pfdbg_util::BitVec;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The fault and upset injection a workload's devices run under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chaos {
    pub fault: Option<IcapFaultConfig>,
    pub seu: Option<SeuConfig>,
}

impl Chaos {
    /// A channel over memory holding `base`, wrapped like the server's.
    fn channel(&self, base: Bitstream, frame_bits: usize) -> Box<dyn IcapChannel> {
        let mem = MemoryIcap::new(base, frame_bits);
        match (self.seu, self.fault) {
            (Some(s), Some(f)) => Box::new(FaultyIcap::new(SeuIcap::new(mem, s), f)),
            (Some(s), None) => Box::new(SeuIcap::new(mem, s)),
            (None, Some(f)) => Box::new(FaultyIcap::new(mem, f)),
            (None, None) => Box::new(mem),
        }
    }
}

/// Probe inputs: the compiled design, the stream, and (for the serve
/// workloads) the running session manager.
pub struct Probe<'a> {
    pub scg: &'a Scg,
    pub layout: &'a BitstreamLayout,
    pub icap: &'a IcapModel,
    /// A second, independently compiled copy of the design driving the
    /// standalone turn engine.
    pub online: OnlineReconfigurator,
    pub stream: &'a Stream,
    pub chaos: Chaos,
    pub manager: Option<&'a SessionManager>,
    pub journal: &'a Path,
    pub requests: usize,
}

/// Per-layer call timings in microseconds, keyed by span name.
#[derive(Debug, Default)]
pub struct Samples {
    pub by_layer: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// Run `f` inside a span named `layer`, recording its wall time.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = pfdbg_obs::span(layer);
        let t0 = Instant::now();
        let out = f();
        self.by_layer.entry(layer).or_default().push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("pfbench: probe {what}: {e}");
                None
            }
        }
    }

    /// Percentile `p` of a layer's call times; 0 when the run's stream
    /// never exercised that layer.
    pub fn pct(&self, layer: &str, p: f64) -> f64 {
        self.by_layer.get(layer).and_then(|xs| percentile(xs, p)).unwrap_or(0.0)
    }

    /// The per-layer metrics the probe measures, into a run's output.
    pub fn report(&self, out: &mut RunOutput) {
        for (metric, layer, p) in [
            ("serve.protocol.parse_us", "serve.protocol.parse", 50.0),
            ("serve.session.select_us_p50", "serve.session.select", 50.0),
            ("serve.lru.get_us", "serve.lru.get", 50.0),
            ("serve.lru.put_us", "serve.lru.put", 50.0),
            ("pconf.scg.specialize_us_p50", "pconf.scg.specialize", 50.0),
            ("pconf.scg.specialize_us_p99", "pconf.scg.specialize", 99.0),
            ("pconf.scg.eval_us_p50", "pconf.scg.eval", 50.0),
            ("pconf.scg.diff_us_p50", "pconf.scg.diff", 50.0),
            ("pconf.icap.commit_us_p50", "pconf.icap.commit", 50.0),
            ("pconf.icap.readback_us", "pconf.icap.readback", 50.0),
            ("pconf.scrub.pass_us_p50", "pconf.scrub.pass", 50.0),
            ("replay.journal.append_us_p50", "replay.journal.append", 50.0),
            ("core.online.turn_us_p50", "core.online.turn", 50.0),
        ] {
            out.set(metric, self.pct(layer, p));
        }
    }
}

/// The name the probe's own server session uses.
const PROBE_SESSION: &str = "pfbench-probe";

pub fn run(mut pr: Probe<'_>) -> Result<Samples, String> {
    let mut s = Samples::default();
    let gbs = pr.scg.generalized();
    let mut region_frames: Vec<usize> =
        gbs.tunable.iter().map(|&(addr, _)| pr.layout.frame_of(addr)).collect();
    region_frames.sort_unstable();
    region_frames.dedup();
    let policy = CommitPolicy::default();
    let mut channel = pr.chaos.channel(gbs.base.clone(), pr.layout.frame_bits);
    let mut scrubber = Scrubber::new(ScrubPolicy::default());
    let mut lru: LruCache<String, Arc<Bitstream>> =
        LruCache::new(pfdbg_serve::ServerConfig::default().cache_capacity);
    let (mut sp_scratch, mut eval_scratch, mut diff_scratch) =
        (SpecializeScratch::new(), SpecializeScratch::new(), SpecializeScratch::new());
    let mut params = BitVec::zeros(gbs.n_params);
    let mut bits = Arc::new(gbs.base.clone());
    let meta = SessionMeta {
        session: PROBE_SESSION.into(),
        derive_seeds: false,
        design: DesignSpec::External,
        ports: 0,
        coverage: 0,
        k: 0,
        n_params: gbs.n_params,
        chaos: ChaosSpec::from_parts(
            pr.chaos.fault,
            pr.chaos.seu,
            &policy,
            &ScrubPolicy::default(),
        ),
        threads: pr.scg.effective_threads(),
        note: "pfbench probe".into(),
    };
    let mut journal = JournalWriter::create(pr.journal, &meta)?;
    if let Some(m) = pr.manager {
        m.open(PROBE_SESSION)?;
    }

    for k in 0..pr.requests as u64 {
        let op = pr.stream.op(0, k);
        let line = request_line(PROBE_SESSION, &op);
        let _request = pfdbg_obs::span("probe.request");
        let (parsed, _) = s.time("serve.protocol.parse", || parse_request(line.trim_end()));
        s.check("parse", parsed);
        let p = match op {
            Op::Scrub => {
                let r = s.time("pconf.scrub.pass", || {
                    scrubber.scrub_with_scg(channel.as_mut(), pr.icap, pr.scg, &params)
                });
                s.check("scrub", r);
                continue;
            }
            Op::Select(p) => p,
        };
        let next = parse_param_bits(&p)?;
        let flips = channel.tick();

        // The server's turn: LRU, specialization on a miss, commit.
        let hit = s.time("serve.lru.get", || lru.get(&p).cloned());
        let cache_hit = hit.is_some();
        let target = match hit {
            Some(b) => b,
            None => {
                let b = s.time("pconf.scg.specialize", || {
                    pr.scg.specialize_from_batch(&bits, &next, &mut sp_scratch)
                });
                let b = Arc::new(s.check("specialize", b).ok_or("specialization failed")?);
                s.time("serve.lru.put", || lru.put(p.clone(), b.clone()));
                b
            }
        };
        {
            let _span = pfdbg_obs::span("pconf.scg.eval");
            let (_, timing) = pr.scg.specialize_timed_batch(&next, &mut eval_scratch);
            s.by_layer.entry("pconf.scg.eval").or_default().push(timing.eval.as_secs_f64() * 1e6);
        }
        let diff = s.time("pconf.scg.diff", || {
            pr.scg
                .specialize_diff_from_batch(&params, &next, &mut diff_scratch)
                .map(|d| d.iter().map(|&(addr, _)| addr).collect::<Vec<_>>())
        });
        let Some(changed) = s.check("diff", diff) else { continue };
        let mut frames: Vec<usize> = changed.iter().map(|&a| pr.layout.frame_of(a)).collect();
        frames.dedup();
        let commit = s.time("pconf.icap.commit", || {
            commit_frames(channel.as_mut(), pr.icap, &target, &frames, &region_frames, &policy)
                .map_err(|(_, e)| e)
        });
        let Some(commit) = s.check("commit", commit) else { continue };
        diff_scratch.commit(&next);
        let readback = s.time("pconf.icap.readback", || readback_all(channel.as_ref()));
        let facts = SelectFacts {
            params: next.clone(),
            outcome: SelectOutcome::Committed,
            bits_changed: changed.len() as u64,
            frames_changed: frames.len() as u64,
            retries: commit.retries as u64,
            degradations: commit.degradations as u64,
            cache_hit,
            seu_flips: flips as u64,
            readback_crc: bitstream_crc(&readback),
        };
        let appended =
            s.time("replay.journal.append", || journal.append(&JournalRecord::Select(facts)));
        s.check("journal append", appended);
        params = next;
        bits = target;

        // The same turn through the two whole-turn engines.
        let turn = s.time("core.online.turn", || pr.online.try_apply(&params));
        s.check("online turn", turn);
        if let Some(m) = pr.manager {
            let selected = s.time("serve.session.select", || m.select(PROBE_SESSION, &params));
            s.check("session select", selected);
        }
    }
    if let Some(m) = pr.manager {
        m.close(PROBE_SESSION)?;
    }
    drop(journal);
    std::fs::remove_file(pr.journal).map_err(|e| format!("{}: {e}", pr.journal.display()))?;
    Ok(s)
}

/// The probe's estimate of one server turn from its stage medians: a
/// lookup, a specialization and insert on the miss share, the commit,
/// and — when sessions journal — the readback digest and the append.
pub fn stage_sum_us(p50: impl Fn(&str) -> f64, hit_ratio: f64, journaled: bool) -> f64 {
    let miss = (1.0 - hit_ratio).clamp(0.0, 1.0);
    let journal =
        if journaled { p50("pconf.icap.readback") + p50("replay.journal.append") } else { 0.0 };
    p50("serve.lru.get")
        + miss * (p50("pconf.scg.specialize") + p50("serve.lru.put"))
        + p50("pconf.icap.commit")
        + journal
}
