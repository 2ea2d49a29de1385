//! Rebuilding a recorded session: design argument or journal meta →
//! [`DesignSpec`] → [`CompiledDesign`] → the standalone
//! [`OnlineReconfigurator`] over a fresh
//! [`Session`](pfdbg_pconf::Session) of the journal's chaos environment.
//!
//! The driver is the standalone runner of that session, used by the
//! recorder (`Recorder`), the verifier ([`crate::verify`]) and the
//! fuzzer: a recorded session and its replay go through the *same*
//! tick → stage → commit steps of the same session struct — the one
//! every serve session and every standalone debugging session runs —
//! so every observable fact — bit/frame diffs, retry and escalation
//! counts, SEU flips, readback CRC — is reproducible by construction,
//! and serve journals verify here too.

use crate::record::{
    DesignSpec, JournalRecord, ScrubFacts, SelectFacts, SelectOutcome, SessionMeta,
};
use crate::session::{scrub_facts, select_facts};
use crate::verify::Redrive;
use pfdbg_arch::Bitstream;
use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig};
use pfdbg_netlist::Network;
use pfdbg_pconf::icap::frame_len_bits;
use pfdbg_pconf::{IcapChannel, OnlineReconfigurator};
use pfdbg_util::BitVec;
use std::cell::Cell;
use std::hash::Hasher;

/// A session's private seed: deterministic in the configured base seed
/// and the session name (FNV-1a). The serve layer derives its sessions'
/// fault, SEU, and jitter seeds with this very function, so a serve
/// journal replays the exact streams its session saw; under their own
/// bases the same hash places sessions on shards and devices.
pub fn session_seed(base: u64, name: &str) -> u64 {
    name.bytes()
        .fold(base ^ 0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// 64-bit content CRC of a bitstream (FxHash over its packed words and
/// length) — the device-state digest recorded after every journaled
/// operation and re-checked on replay.
pub fn bitstream_crc(bs: &Bitstream) -> u64 {
    let mut h = pfdbg_util::hash::FxHasher::default();
    for &w in bs.words() {
        h.write_u64(w);
    }
    h.write_u64(bs.len() as u64);
    h.finish()
}

thread_local! {
    /// The frame buffer [`device_crc`] reads into, reused across calls.
    static FRAME: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// [`bitstream_crc`] of the device behind `channel`, read frame by frame
/// with no configuration built: equal to
/// `bitstream_crc(&readback_all(channel))`. Frames need not be
/// word-aligned (diffeq1's are 1,312 bits), so the device's words are
/// reassembled across frame boundaries before they are hashed. As in
/// `readback_all`, words a frame read leaves out count as zero and bits
/// past the frame's end are dropped.
pub fn device_crc(channel: &dyn IcapChannel) -> u64 {
    let (n_bits, frame_bits) = (channel.n_bits(), channel.frame_bits());
    let mut h = pfdbg_util::hash::FxHasher::default();
    let mut words = FRAME.take();
    // The low `fill` bits of `acc` are the start of the next device word.
    let (mut acc, mut fill) = (0u64, 0u32);
    for frame in 0..channel.n_frames() {
        channel.read_frame_into(frame, &mut words);
        let len = frame_len_bits(n_bits, frame_bits, frame);
        for j in 0..len.div_ceil(64) {
            let take = (len - 64 * j).min(64) as u32;
            let w = words.get(j).copied().unwrap_or(0) & (u64::MAX >> (64 - take));
            acc |= w << fill;
            if fill + take >= 64 {
                h.write_u64(acc);
                acc = w.checked_shr(64 - fill).unwrap_or(0);
                fill = fill + take - 64;
            } else {
                fill += take;
            }
        }
    }
    if fill > 0 {
        h.write_u64(acc);
    }
    FRAME.set(words);
    h.write_u64(n_bits as u64);
    h.finish()
}

impl DesignSpec {
    /// Parse a design argument: `@name` is a suite benchmark, `gen:SEED`
    /// the canonical small synthetic design of that generator seed, and
    /// anything else a netlist file path.
    pub fn parse(arg: &str) -> Result<DesignSpec, String> {
        if let Some(seed) = arg.strip_prefix("gen:") {
            let seed =
                seed.parse().map_err(|_| format!("gen: expects a numeric seed, got {seed:?}"))?;
            return Ok(DesignSpec::Generated {
                n_inputs: 6,
                n_outputs: 4,
                n_gates: 24,
                depth: 4,
                n_latches: 2,
                seed,
            });
        }
        if let Some(name) = arg.strip_prefix('@') {
            return Ok(DesignSpec::Bench { name: name.to_string() });
        }
        Ok(DesignSpec::File { path: arg.to_string() })
    }

    /// The network this spec names: generated, built from the suite, or
    /// read from its file (`.v`/`.sv` as Verilog, anything else as
    /// BLIF). An `External` design lives in the process that recorded
    /// it, so it is an error here.
    pub fn network(&self) -> Result<Network, String> {
        match self {
            DesignSpec::Generated { n_inputs, n_outputs, n_gates, depth, n_latches, seed } => {
                Ok(pfdbg_circuits::generate(&pfdbg_circuits::GenParams {
                    n_inputs: *n_inputs,
                    n_outputs: *n_outputs,
                    n_gates: *n_gates,
                    depth: *depth,
                    n_latches: *n_latches,
                    seed: *seed,
                }))
            }
            DesignSpec::Bench { name } => pfdbg_circuits::build(name)
                .ok_or_else(|| format!("unknown benchmark {name:?} (see pfdbg bench-list)")),
            DesignSpec::File { path } => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                if path.ends_with(".v") || path.ends_with(".sv") {
                    pfdbg_netlist::verilog::parse(&text).map_err(|e| e.to_string())
                } else {
                    pfdbg_netlist::blif::parse(&text).map_err(|e| e.to_string())
                }
            }
            DesignSpec::External => {
                Err("journal is not self-contained (design lives in the recording server); \
                     replay it through the server's `replay` verb"
                    .into())
            }
        }
    }
}

/// Rebuild the compiled design a journal's meta describes, running the
/// full offline flow (synth → map → TPaR → generalized bitstream).
/// Deterministic, so the rebuilt design matches the recorded one
/// exactly.
pub fn build_design(meta: &SessionMeta) -> Result<CompiledDesign, String> {
    let nw = meta.design.network()?;
    let (_, _, inst) = prepare_instrumented(
        &nw,
        &InstrumentConfig { n_ports: meta.ports, coverage: meta.coverage, max_signals: None },
        meta.k,
    )?;
    let design = CompiledDesign::compile(inst, &OfflineConfig { k: meta.k, ..Default::default() })?;
    if meta.n_params != 0 && design.n_params() != meta.n_params {
        return Err(format!(
            "rebuilt design has {} parameters, journal recorded {} — design drifted",
            design.n_params(),
            meta.n_params
        ));
    }
    Ok(design)
}

/// A live re-driven session: the standalone [`OnlineReconfigurator`]
/// over the design a journal's meta rebuilt, with the session that
/// meta describes.
pub struct OnlineDriver {
    online: OnlineReconfigurator,
}

impl OnlineDriver {
    /// Build the design and the driver in one step.
    pub fn build(meta: &SessionMeta) -> Result<OnlineDriver, String> {
        Self::build_wrapped(meta, |c| c)
    }

    /// Like [`OnlineDriver::build`] but with a hook that may wrap the
    /// assembled channel (the fuzzer's test-only nondeterminism
    /// injector enters here). The reconfigurator is
    /// [`ChaosSpec::standalone`](crate::ChaosSpec::standalone) of the
    /// meta's chaos, salted with the session name when the meta derives
    /// seeds — as every serve session is.
    pub fn build_wrapped(
        meta: &SessionMeta,
        wrap: impl FnOnce(Box<dyn IcapChannel>) -> Box<dyn IcapChannel>,
    ) -> Result<OnlineDriver, String> {
        let design = build_design(meta)?;
        let salt = meta.derive_seeds.then_some(meta.session.as_str());
        Ok(OnlineDriver { online: meta.chaos.standalone(design, salt, wrap) })
    }

    /// PConf parameter count of the driven design.
    pub fn n_params(&self) -> usize {
        self.online.scg().generalized().n_params
    }

    /// CRC of the full device readback ([`device_crc`] of the
    /// session's channel).
    pub fn readback_crc(&self) -> u64 {
        device_crc(self.online.channel())
    }

    /// CRC of the reference specialization
    /// ([`Scg::try_specialize`](pfdbg_pconf::Scg::try_specialize)) for
    /// `params` — what the device must hold after a committed turn,
    /// independent of any driver state. A wrong parameter count is an
    /// error.
    pub fn specialize_crc(&self, params: &BitVec) -> Result<u64, String> {
        Ok(bitstream_crc(&self.online.scg().try_specialize(params)?))
    }

    /// One select turn: tick the device (SEUs strike), then apply the
    /// parameter vector transactionally. Never fails — a rolled-back
    /// commit is itself an observable outcome.
    pub fn select(&mut self, params: &BitVec) -> SelectFacts {
        self.turn(params, false)
    }

    /// Replay a recorded deadline miss: a select whose budget has
    /// already expired. The miss was a wall-clock event at the serve
    /// layer, and everything observable it did to the device was the
    /// between-turn tick — so that is what replays.
    pub fn deadline_miss(&mut self, params: &BitVec) -> SelectFacts {
        self.turn(params, true)
    }

    /// The turn as serve runs it, minus the LRU: tick, stage, then —
    /// unless the budget is `expired` — commit.
    fn turn(&mut self, params: &BitVec, expired: bool) -> SelectFacts {
        let (ctx, session) = self.online.parts();
        let seu_flips = session.tick();
        let commit = match session.stage(&ctx, params, None) {
            Ok(()) if !expired => session.commit(&ctx, params).ok(),
            _ => None,
        };
        let outcome = match (&commit, expired) {
            (Some(_), _) => SelectOutcome::Committed,
            (None, true) => SelectOutcome::DeadlineMiss,
            (None, false) => SelectOutcome::RolledBack,
        };
        select_facts(session, params, outcome, commit.as_ref(), seu_flips, false)
    }

    /// One scrub pass against the golden oracle for the session's
    /// current parameters ([`OnlineReconfigurator::scrub`]).
    pub fn scrub(&mut self) -> Result<ScrubFacts, String> {
        let report = self.online.scrub()?;
        let (_, session) = self.online.parts();
        Ok(scrub_facts(session, &report))
    }
}

impl Redrive for OnlineDriver {
    fn redrive_select(&mut self, params: &BitVec, expired: bool) -> Result<SelectFacts, String> {
        Ok(self.turn(params, expired))
    }

    fn redrive_scrub(&mut self) -> Result<ScrubFacts, String> {
        self.scrub()
    }
}

/// A journaling wrapper over [`OnlineDriver`]: every operation's facts
/// are appended to the journal as they happen. This is what
/// `pfdbg record` drives.
pub struct Recorder {
    driver: OnlineDriver,
    writer: crate::journal::JournalWriter,
}

impl Recorder {
    /// Build the driver from `meta` and open a fresh journal at `path`.
    pub fn create(meta: &SessionMeta, path: &std::path::Path) -> Result<Recorder, String> {
        let mut meta = meta.clone();
        let driver = OnlineDriver::build(&meta)?;
        meta.n_params = driver.n_params();
        let writer = crate::journal::JournalWriter::create(path, &meta)?;
        Ok(Recorder { driver, writer })
    }

    /// One journaled select turn.
    pub fn select(&mut self, params: &BitVec) -> Result<SelectFacts, String> {
        let facts = self.driver.select(params);
        self.writer.append(&JournalRecord::Select(facts.clone()))?;
        Ok(facts)
    }

    /// One journaled scrub pass.
    pub fn scrub(&mut self) -> Result<ScrubFacts, String> {
        let facts = self.driver.scrub()?;
        self.writer.append(&JournalRecord::Scrub(facts))?;
        Ok(facts)
    }

    /// PConf parameter count.
    pub fn n_params(&self) -> usize {
        self.driver.n_params()
    }

    /// Append the close record and sync; consumes the recorder.
    pub fn finish(mut self) -> Result<(), String> {
        self.writer.append(&JournalRecord::Close)?;
        self.writer.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_emu::{channel_stack, IcapFaultConfig, SeuConfig};
    use pfdbg_pconf::icap::readback_all;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Every design argument form parses to its spec, and a `gen:` seed
    /// that is not a number is refused.
    #[test]
    fn design_arguments_parse_to_one_spec() {
        let bench = DesignSpec::Bench { name: "stereov.".into() };
        assert_eq!(DesignSpec::parse("@stereov."), Ok(bench));
        let generated = DesignSpec::Generated {
            n_inputs: 6,
            n_outputs: 4,
            n_gates: 24,
            depth: 4,
            n_latches: 2,
            seed: 11,
        };
        assert_eq!(DesignSpec::parse("gen:11"), Ok(generated));
        let file = DesignSpec::File { path: "designs/gray_counter3.blif".into() };
        assert_eq!(DesignSpec::parse("designs/gray_counter3.blif"), Ok(file));
        let err = DesignSpec::parse("gen:x").unwrap_err();
        assert!(err.contains("numeric seed"), "{err}");
    }

    /// Word-aligned and unaligned frames, down to a single bit.
    const FRAME_BITS: [usize; 6] = [1, 63, 64, 65, 100, 1312];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Through a channel stack taking upsets under a faulty port —
        /// random whole, short and overlong frame writes, some rejected
        /// and some silently corrupted — the streamed digest equals the
        /// digest of the materialized readback after every step, at
        /// every frame size, the short last frame included.
        #[test]
        fn streamed_digest_equals_the_materialized_one(
            frames in 1usize..12,
            short in 0usize..1312,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            for frame_bits in FRAME_BITS {
                let n_bits = frames * frame_bits - short % frame_bits;
                let image: BitVec = (0..n_bits).map(|_| rng.gen_bool(0.5)).collect();
                let seu = SeuConfig { rate: 0.3, burst: 3, seed: rng.gen() };
                let fault = IcapFaultConfig {
                    write_error_rate: 0.1,
                    stall_rate: 0.05,
                    corrupt_rate: 0.3,
                    seed: rng.gen(),
                };
                let mut ch = channel_stack(
                    Arc::new(Bitstream::from_bits(image)),
                    frame_bits,
                    Some(seu),
                    Some(fault),
                );
                for step in 0..24 {
                    if rng.gen_range(0..3u32) == 0 {
                        ch.tick();
                    } else {
                        let frame = rng.gen_range(0..ch.n_frames());
                        let full = frame_len_bits(n_bits, frame_bits, frame).div_ceil(64);
                        let n = match rng.gen_range(0..3u32) {
                            0 => full,
                            1 => rng.gen_range(0..full),
                            _ => full + 1,
                        };
                        let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                        let _ = ch.write_frame(frame, &data);
                    }
                    prop_assert_eq!(
                        device_crc(ch.as_ref()),
                        bitstream_crc(&readback_all(ch.as_ref())),
                        "{}-bit frames, {} bits, step {}", frame_bits, n_bits, step
                    );
                }
            }
        }
    }
}
