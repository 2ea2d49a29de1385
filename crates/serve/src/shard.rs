//! Shard ownership: the session fleet's execution layer.
//!
//! Each shard is one thread that **owns** its sessions outright —
//! `SessionState` (scratch, flight recorder, journal appender) lives in
//! a plain map on the shard thread's stack, so the hot path takes no
//! per-session mutex at all. Sessions pin to a shard by a hash of their
//! name, and every operation on a session (client select, background
//! scrub, journal restore, metrics row) arrives through the shard's
//! **inbox** and executes in arrival order. That single rule replaces
//! the old `Arc<Mutex<SessionState>>` layout and its two failure
//! classes: lock poisoning on a panicking handler, and `try_lock`
//! scrub starvation on hot sessions.
//!
//! The inbox is bounded for client work and unbounded for internal
//! work. Client pushes reserve a slot first ([`Inbox::try_reserve_client`]);
//! when none is free the server sheds the request with an `overloaded`
//! reply instead of queueing unbounded. Internal jobs — scrubs, restore
//! re-drives, facade round-trips — always enqueue, so backpressure on
//! clients can never starve the machinery that keeps sessions healthy.
//!
//! Shards drain jobs in batches of up to [`MAX_BATCH`], so a burst of N
//! jobs costs one inbox-lock acquisition instead of N. Each job then
//! runs on its own: a select looks the shared LRU up once, under its
//! own lock.
//!
//! Every job body runs under `catch_unwind`, so a panicking handler
//! never takes the shard thread — or any other session it owns — down
//! with it. Session jobs, from clients (`server::route_session`) and
//! from the embedding facade alike, carry their own panic rule
//! (`Shard::run_for_session`): the session the handler was touching is
//! dropped (its state is suspect), and the caller gets an error — a
//! client through its reply slot's internal-error reply.

use crate::session::{ManagerCore, SessionState};
use crate::telemetry as tel;
use pfdbg_util::{BitVec, FxHashMap};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Jobs drained per poll iteration. Bounds the latency a late-batch job
/// sees behind earlier ones while still amortizing the inbox lock.
const MAX_BATCH: usize = 64;

/// Lock a mutex, recovering from poisoning instead of cascading the
/// panic. Shared state guarded by these locks (cache, journal config,
/// dump slot) is updated atomically-enough that a poisoned guard's data
/// is still coherent; the panic that poisoned it was already caught and
/// accounted by the shard loop.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a `select` job selects: an explicit parameter vector, or signal
/// names resolved against the session's current parameters on the shard
/// thread (plan + select are atomic — no interleaving window between
/// them, unlike the old pool which planned on one lock acquisition and
/// selected on another).
pub(crate) enum SelectSpec {
    /// Explicit parameter bits.
    Params(BitVec),
    /// Signal names, planned shard-side.
    Signals(Vec<String>),
}

/// One unit of shard work.
pub(crate) enum Job {
    /// A session operation — client verbs, selects included, and
    /// internal work alike — run with exclusive access to the shard's
    /// state.
    Run(Box<dyn FnOnce(&mut Shard) + Send>),
    /// Expand into one internal scrub job per owned session. The
    /// expansion interleaves with queued selects instead of stalling
    /// them behind a whole-table walk.
    ScrubAll,
    /// Test hook: park the shard until the hold is released, so tests
    /// can saturate an inbox deterministically.
    Hold {
        /// Signalled once the shard is actually parked.
        entered: mpsc::Sender<()>,
        /// The shard resumes when the sender side drops.
        release: mpsc::Receiver<()>,
    },
}

struct Entry {
    client: bool,
    enqueued: Instant,
    job: Job,
}

/// A shard's job queue: bounded for client-originated work, unbounded
/// for internal work.
pub(crate) struct Inbox {
    q: Mutex<VecDeque<Entry>>,
    cv: Condvar,
    closed: AtomicBool,
    /// Free client slots; `capacity` minus queued client jobs.
    client_slots: AtomicUsize,
    capacity: usize,
    /// Set while a `ScrubAll` walk is queued or in flight, so the scrub
    /// cadence thread never piles a second walk onto a slow shard —
    /// the armed walk *will* run (inbox jobs are never skipped), which
    /// is what makes scrub starvation structurally impossible.
    pub(crate) scrub_armed: AtomicBool,
}

impl Inbox {
    fn new(capacity: usize) -> Inbox {
        Inbox {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            client_slots: AtomicUsize::new(capacity),
            capacity,
            scrub_armed: AtomicBool::new(false),
        }
    }

    /// Bounded client-job capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reserve one client slot; `false` means the inbox is full and the
    /// request must be shed. Reserve-then-push (rather than push-and-
    /// maybe-reject) lets the caller send the `overloaded` reply before
    /// a job — and its reply continuation — is ever constructed.
    pub(crate) fn try_reserve_client(&self) -> bool {
        self.client_slots
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Push a client job under a reservation from
    /// [`Inbox::try_reserve_client`]. Returns `false` when the inbox is
    /// closed (server shutting down).
    pub(crate) fn push_client(&self, job: Job) -> bool {
        self.push(Entry { client: true, enqueued: Instant::now(), job })
    }

    /// Push an internal job — scrubs, restores, facade round-trips.
    /// Never bounded: backpressure applies to clients, not to the
    /// machinery that keeps sessions healthy.
    pub(crate) fn push_internal(&self, job: Job) -> bool {
        self.push(Entry { client: false, enqueued: Instant::now(), job })
    }

    fn push(&self, entry: Entry) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let mut q = relock(&self.q);
        q.push_back(entry);
        drop(q);
        self.cv.notify_one();
        true
    }

    /// Queued jobs right now (client + internal).
    pub(crate) fn depth(&self) -> usize {
        relock(&self.q).len()
    }

    /// Block until work arrives, then drain up to [`MAX_BATCH`] jobs
    /// into `out`. Client slots release as their jobs leave the queue.
    /// Returns `Some(jobs left queued)` — the shard's depth gauge — or
    /// `None` once the inbox is closed *and* fully drained.
    fn pop_batch(&self, out: &mut Vec<Entry>) -> Option<usize> {
        let mut q = relock(&self.q);
        while q.is_empty() {
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        while out.len() < MAX_BATCH {
            match q.pop_front() {
                Some(e) => {
                    if e.client {
                        self.client_slots.fetch_add(1, Ordering::AcqRel);
                    }
                    out.push(e);
                }
                None => break,
            }
        }
        Some(q.len())
    }

    /// Close the inbox: subsequent pushes fail, and the shard thread
    /// exits after draining what is already queued.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// One shard thread's exclusively-owned state.
pub(crate) struct Shard {
    /// Shard index (stable for a manager's lifetime).
    pub(crate) id: usize,
    /// The shared, mostly-immutable manager core.
    pub(crate) core: Arc<ManagerCore>,
    /// The sessions this shard owns. No locks: only the shard thread
    /// touches them.
    pub(crate) sessions: FxHashMap<String, SessionState>,
}

/// Decrements the pending-scrub counter even if the scrub itself
/// panics, so a poisoned session can never wedge the scrub cadence.
struct ScrubTicket {
    remaining: Arc<AtomicUsize>,
    inbox: Arc<Inbox>,
}

impl Drop for ScrubTicket {
    fn drop(&mut self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.inbox.scrub_armed.store(false, Ordering::Release);
        }
    }
}

impl Shard {
    /// Expand a `ScrubAll` into one internal scrub job per session, so
    /// queued selects interleave with individual scrubs instead of
    /// waiting out a full-table walk.
    fn expand_scrub_all(&mut self, inbox: &Arc<Inbox>) {
        let names: Vec<String> = self.sessions.keys().cloned().collect();
        if names.is_empty() {
            inbox.scrub_armed.store(false, Ordering::Release);
            return;
        }
        let remaining = Arc::new(AtomicUsize::new(names.len()));
        for name in names {
            let ticket = ScrubTicket { remaining: remaining.clone(), inbox: inbox.clone() };
            if !inbox.push_internal(Job::Run(Box::new(move |sh| {
                let _ticket = ticket;
                // A vanished session (closed since the expansion) is a
                // harmless error.
                let _ = sh.scrub(&name);
            }))) {
                // Closed mid-expansion: the dropped ticket already
                // released its count.
                break;
            }
        }
    }
}

fn shard_loop(id: usize, core: Arc<ManagerCore>, inbox: Arc<Inbox>) {
    let mut shard = Shard { id, core, sessions: FxHashMap::default() };
    let depth_gauge = format!("serve.shard{}.inbox_depth", shard.id);
    let mut entries: Vec<Entry> = Vec::with_capacity(MAX_BATCH);
    while let Some(left) = inbox.pop_batch(&mut entries) {
        pfdbg_obs::gauge_set(&depth_gauge, left as f64);
        for entry in entries.drain(..) {
            if entry.client {
                let waited_us = entry.enqueued.elapsed().as_secs_f64() * 1e6;
                tel::INBOX_WAIT_US.record_us(waited_us);
                tel::SLO_INBOX.observe_us(waited_us);
            }
            match entry.job {
                Job::Run(f) => {
                    if catch_unwind(AssertUnwindSafe(|| f(&mut shard))).is_err() {
                        tel::HANDLER_PANICS.add(1);
                    }
                }
                Job::ScrubAll => shard.expand_scrub_all(&inbox),
                Job::Hold { entered, release } => {
                    let _ = entered.send(());
                    let _ = release.recv();
                }
            }
        }
    }
}

/// A running shard: its inbox plus the owning thread.
pub(crate) struct ShardHandle {
    pub(crate) inbox: Arc<Inbox>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ShardHandle {
    /// Spawn shard `id` with a client-job capacity of `capacity`.
    pub(crate) fn spawn(
        id: usize,
        core: Arc<ManagerCore>,
        capacity: usize,
    ) -> Result<ShardHandle, String> {
        let inbox = Arc::new(Inbox::new(capacity));
        let worker_inbox = inbox.clone();
        let thread = std::thread::Builder::new()
            .name(format!("pfdbg-shard-{id}"))
            .spawn(move || shard_loop(id, core, worker_inbox))
            .map_err(|e| format!("cannot spawn shard {id}: {e}"))?;
        Ok(ShardHandle { inbox, thread: Some(thread) })
    }

    pub(crate) fn close(&self) {
        self.inbox.close();
    }

    pub(crate) fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A parked shard (test hook): created by `SessionManager::hold_shard`,
/// released on drop. While held, the shard executes nothing, so client
/// pushes fill its bounded inbox deterministically.
pub struct ShardHold {
    pub(crate) _release: mpsc::Sender<()>,
}
