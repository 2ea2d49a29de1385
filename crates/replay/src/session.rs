//! What journals add to a [`Session`]: building one from the journal's
//! [`ChaosSpec`] and the session name, and the facts of its operations
//! that a journal records and a re-drive compares.
//!
//! The session itself — turn state, chaos channel, scrubber and commit
//! policy — is `pfdbg_pconf`'s, the one struct the standalone
//! reconfigurator, every serve session, `pfdbg record`/`replay` and the
//! fuzzer all run. [`ChaosSpec::session`] is the one place a session is
//! assembled from a journal's chaos settings; [`select_facts`] and
//! [`scrub_facts`] are the only builders of journal facts outside the
//! decoder.

use crate::driver::{device_crc, session_seed};
use crate::record::{ChaosSpec, ScrubFacts, SelectFacts, SelectOutcome};
use pfdbg_arch::Bitstream;
use pfdbg_emu::{channel_stack, IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{IcapChannel, Scg, ScrubReport, Session, TurnCommit};
use pfdbg_util::BitVec;
use std::sync::Arc;

impl ChaosSpec {
    /// A session of `scg` at the base configuration (params = 0): a
    /// channel stack of `frame_bits`-bit frames over `image` — the base
    /// configuration, shared — injecting this spec's SEUs and transport
    /// faults, passed through `wrap` (a serve fleet's device attach, the
    /// fuzzer's nondeterminism injector, or the identity). With `salt`
    /// set, the SEU, fault and commit-jitter seeds are [`session_seed`]s
    /// of the configured ones and `salt` (serve sessions, and journals
    /// whose meta asks for it), so concurrent sessions never share a
    /// fault stream or retry in lockstep; without it the configured
    /// seeds are used as they are. Turns and scrub repairs commit under
    /// [`ChaosSpec::commit_policy`] of that jitter seed.
    pub fn session(
        &self,
        scg: &Scg,
        image: Arc<Bitstream>,
        frame_bits: usize,
        salt: Option<&str>,
        wrap: impl FnOnce(Box<dyn IcapChannel>) -> Box<dyn IcapChannel>,
    ) -> Session {
        let derive = |base: u64| salt.map_or(base, |name| session_seed(base, name));
        let channel = wrap(channel_stack(
            image,
            frame_bits,
            self.seu.map(|s| SeuConfig { seed: derive(s.seed), ..s }),
            self.fault.map(|f| IcapFaultConfig { seed: derive(f.seed), ..f }),
        ));
        let policy = self.commit_policy(derive(self.jitter_seed));
        Session::new(scg, channel, policy, self.max_repair_attempts)
    }
}

/// The journal facts of a select of `params` on `session` whose tick
/// flipped `seu_flips` bits and which ended in `outcome`. The bit,
/// frame, retry and escalation counts come from `commit`, the committed
/// turn; a turn that rolled back or missed its deadline records zeros.
/// Reads the whole device back for the digest, so callers build facts
/// only when they journal or compare them.
pub fn select_facts(
    session: &Session,
    params: &BitVec,
    outcome: SelectOutcome,
    commit: Option<&TurnCommit>,
    seu_flips: usize,
    cache_hit: bool,
) -> SelectFacts {
    SelectFacts {
        params: params.clone(),
        outcome,
        bits_changed: commit.map_or(0, |c| c.bits_changed as u64),
        frames_changed: commit.map_or(0, |c| c.frames_changed as u64),
        retries: commit.map_or(0, |c| c.stats.retries as u64),
        degradations: commit.map_or(0, |c| c.stats.degradations as u64),
        cache_hit,
        seu_flips: seu_flips as u64,
        readback_crc: device_crc(session.channel()),
    }
}

/// The journal facts of the scrub pass on `session` that produced
/// `report`. Reads the whole device back, like [`select_facts`].
pub fn scrub_facts(session: &Session, report: &ScrubReport) -> ScrubFacts {
    ScrubFacts {
        frames_checked: report.frames_checked as u64,
        upset_frames: report.upset_frames as u64,
        upset_bits: report.upset_bits as u64,
        repaired_frames: report.repaired_frames as u64,
        failed_frames: report.failed_frames as u64,
        quarantined_frames: report.quarantined_frames as u64,
        readback_crc: device_crc(session.channel()),
    }
}
