//! One debugging session's own state and the journal facts of its
//! operations — the single implementation that serve sessions,
//! `pfdbg record`, `pfdbg replay`, the verifier and the differential
//! fuzzer all run.
//!
//! A [`Session`] owns what is private to one session: its
//! [`TurnEngine`], its chaos channel, its scrubber and its commit
//! policy, all assembled from the journal's [`ChaosSpec`] and the
//! session name. What the sessions of one design share is borrowed on
//! each call through a [`TurnContext`], as the engine does. A turn is
//! exposed as its steps — [`Session::tick`], [`Session::stage`],
//! [`Session::commit`] — so the serve layer can keep its gates (fleet,
//! LRU, deadline) between them; [`Session::select_facts`] and
//! [`Session::scrub_facts`] turn what happened into the facts a journal
//! records and a re-drive compares.

use crate::driver::{device_crc, session_seed};
use crate::record::{ChaosSpec, ScrubFacts, SelectFacts, SelectOutcome};
use pfdbg_arch::Bitstream;
use pfdbg_emu::{channel_stack, IcapFaultConfig, SeuConfig};
use pfdbg_pconf::{
    CommitPolicy, CommitStats, IcapChannel, ScrubReport, Scrubber, TurnCommit, TurnContext,
    TurnEngine,
};
use pfdbg_util::BitVec;
use std::sync::Arc;

/// One session's turn engine, chaos channel, scrubber and commit
/// policy (see the module docs).
pub struct Session {
    turn: TurnEngine,
    channel: Box<dyn IcapChannel>,
    scrubber: Scrubber,
    policy: CommitPolicy,
}

impl Session {
    /// A session at the base configuration (params = 0): a channel
    /// stack over `image` — the base configuration, shared — injecting
    /// `chaos`'s SEUs and transport faults, passed through `wrap` (a
    /// serve fleet's device attach, the fuzzer's nondeterminism
    /// injector, or the identity). With `salt` set, the SEU, fault and
    /// commit-jitter seeds are [`session_seed`]s of the configured ones
    /// and `salt` (serve sessions, and journals whose meta asks for it),
    /// so concurrent sessions never share a fault stream or retry in
    /// lockstep; without it the configured seeds are used as they are.
    /// Turns commit under [`ChaosSpec::commit_policy`], and scrub
    /// repairs under [`ChaosSpec::scrub_policy`], of that jitter seed.
    pub fn new(
        ctx: &TurnContext<'_>,
        image: Arc<Bitstream>,
        chaos: &ChaosSpec,
        salt: Option<&str>,
        wrap: impl FnOnce(Box<dyn IcapChannel>) -> Box<dyn IcapChannel>,
    ) -> Session {
        let derive = |base: u64| salt.map_or(base, |name| session_seed(base, name));
        let channel = wrap(channel_stack(
            image,
            ctx.layout.frame_bits,
            chaos.seu.map(|s| SeuConfig { seed: derive(s.seed), ..s }),
            chaos.fault.map(|f| IcapFaultConfig { seed: derive(f.seed), ..f }),
        ));
        let jitter = derive(chaos.jitter_seed);
        Session {
            turn: TurnEngine::new(ctx.scg),
            channel,
            scrubber: Scrubber::new(chaos.scrub_policy(jitter)),
            policy: chaos.commit_policy(jitter),
        }
    }

    /// The turn engine: committed parameters and words, resync flag.
    pub fn turn(&self) -> &TurnEngine {
        &self.turn
    }

    /// The scrubber: lifetime totals, quarantine set, health verdict.
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }

    /// The channel the session reconfigures through.
    pub fn channel(&self) -> &dyn IcapChannel {
        self.channel.as_ref()
    }

    /// [`device_crc`] of the session's device — the digest every
    /// journaled fact carries.
    pub fn readback_crc(&self) -> u64 {
        device_crc(self.channel.as_ref())
    }

    /// Between-turn time passes: the emulated fabric takes its SEUs.
    /// Returns the configuration bits that flipped.
    pub fn tick(&mut self) -> usize {
        self.channel.tick()
    }

    /// Stage `params` — see [`TurnEngine::stage`]; `cached` are packed
    /// tunable words of an earlier evaluation of `params`.
    pub fn stage(
        &mut self,
        ctx: &TurnContext<'_>,
        params: &BitVec,
        cached: Option<&BitVec>,
    ) -> Result<(), String> {
        self.turn.stage(ctx, params, cached)
    }

    /// Commit the staged `params` through the session's channel under
    /// its policy — see [`TurnEngine::commit`].
    pub fn commit(
        &mut self,
        ctx: &TurnContext<'_>,
        params: &BitVec,
    ) -> Result<TurnCommit, (CommitStats, String)> {
        self.turn.commit(ctx, self.channel.as_mut(), &self.policy, params)
    }

    /// One scrub pass against the golden frames of the committed
    /// parameters. A quarantined frame arms the resync: the next commit
    /// rewrites the whole device.
    pub fn scrub(&mut self, ctx: &TurnContext<'_>) -> Result<ScrubReport, String> {
        let report = self.scrubber.scrub_with_scg(
            self.channel.as_mut(),
            ctx.icap,
            ctx.scg,
            self.turn.params(),
        )?;
        if report.quarantined_frames > 0 {
            self.turn.arm_resync();
        }
        Ok(report)
    }

    /// The journal facts of a select of `params` whose tick flipped
    /// `seu_flips` bits and which ended in `outcome`. The bit, frame,
    /// retry and escalation counts come from `commit`, the committed
    /// turn; a turn that rolled back or missed its deadline records
    /// zeros. Reads the whole device back for the digest, so callers
    /// build facts only when they journal or compare them.
    pub fn select_facts(
        &self,
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
            readback_crc: self.readback_crc(),
        }
    }

    /// The journal facts of the scrub pass that produced `report`.
    /// Reads the whole device back, like [`Session::select_facts`].
    pub fn scrub_facts(&self, report: &ScrubReport) -> ScrubFacts {
        ScrubFacts {
            frames_checked: report.frames_checked as u64,
            upset_frames: report.upset_frames as u64,
            upset_bits: report.upset_bits as u64,
            repaired_frames: report.repaired_frames as u64,
            failed_frames: report.failed_frames as u64,
            quarantined_frames: report.quarantined_frames as u64,
            readback_crc: self.readback_crc(),
        }
    }
}
