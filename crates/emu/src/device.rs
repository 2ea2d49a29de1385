//! Emulated *devices*: the fleet-level unit of failure.
//!
//! [`crate::FaultyIcap`] and [`crate::SeuIcap`] model per-write and
//! per-tick faults that the commit ladder and scrubber are designed to
//! absorb. A [`Device`] models the failure class they cannot absorb:
//! the whole board dies, its configuration port stalls forever, or it
//! wedges mid-commit. Every session attached to a device routes its
//! channel through a [`DeviceIcap`] wrapper consulting the device's
//! shared [`DeviceControl`], so one `kill()` takes down every session
//! on that device at once — mid-turn if a write countdown is armed —
//! which is exactly the chaos the serve fleet's health ladder,
//! watchdog, and journal-backed failover exist to survive.
//!
//! Determinism contract: a device owns *transport-level* chaos only.
//! Per-session seeds (fault/SEU/jitter) derive from the session name,
//! never the device id, so a journal recorded on one device replays
//! bit-identically on a spare.

use pfdbg_pconf::icap::{IcapChannel, IcapError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Operating mode of one emulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// Serving normally: all channel traffic passes through.
    Ok,
    /// Dead: every frame write is rejected ([`IcapError::WriteFailed`]).
    Killed,
    /// Configuration port stalled: every write times out instantly
    /// ([`IcapError::Stalled`]) without consuming wall-clock time.
    Stalled,
    /// Wedged: every write burns real wall-clock time *and then*
    /// stalls — the case only a deadline watchdog can distinguish from
    /// a slow-but-progressing commit.
    Wedged,
}

impl DeviceMode {
    /// Stable wire name (used by serve metrics and the `devices` verb).
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceMode::Ok => "ok",
            DeviceMode::Killed => "killed",
            DeviceMode::Stalled => "stalled",
            DeviceMode::Wedged => "wedged",
        }
    }

    fn encode(self) -> u64 {
        match self {
            DeviceMode::Ok => 0,
            DeviceMode::Killed => 1,
            DeviceMode::Stalled => 2,
            DeviceMode::Wedged => 3,
        }
    }

    fn decode(v: u64) -> Self {
        match v {
            1 => DeviceMode::Killed,
            2 => DeviceMode::Stalled,
            3 => DeviceMode::Wedged,
            _ => DeviceMode::Ok,
        }
    }
}

/// Disarmed value of the mid-turn kill countdown.
const DISARMED: u64 = u64::MAX;

/// Shared, lock-free chaos control block of one device. Cloned (via
/// `Arc`) into every [`DeviceIcap`] attached to the device, so a mode
/// flip is visible to all of its sessions on their next frame write.
#[derive(Debug)]
pub struct DeviceControl {
    mode: AtomicU64,
    wedge_sleep_us: AtomicU64,
    /// Remaining frame writes before the device kills itself mid-turn;
    /// [`DISARMED`] when no countdown is armed.
    kill_countdown: AtomicU64,
    writes: AtomicU64,
}

impl Default for DeviceControl {
    fn default() -> Self {
        DeviceControl {
            mode: AtomicU64::new(DeviceMode::Ok.encode()),
            wedge_sleep_us: AtomicU64::new(2_000),
            kill_countdown: AtomicU64::new(DISARMED),
            writes: AtomicU64::new(0),
        }
    }
}

impl DeviceControl {
    /// A fresh control block in [`DeviceMode::Ok`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Current mode.
    pub fn mode(&self) -> DeviceMode {
        DeviceMode::decode(self.mode.load(Ordering::Acquire))
    }

    /// `true` while the device serves traffic.
    pub fn is_ok(&self) -> bool {
        self.mode() == DeviceMode::Ok
    }

    /// Kill the device: all subsequent writes are rejected.
    pub fn kill(&self) {
        self.mode.store(DeviceMode::Killed.encode(), Ordering::Release);
    }

    /// Stall the configuration port: writes fail fast with
    /// [`IcapError::Stalled`].
    pub fn stall(&self) {
        self.mode.store(DeviceMode::Stalled.encode(), Ordering::Release);
    }

    /// Wedge the device: every write sleeps `per_write` of real
    /// wall-clock time before stalling — the watchdog-trip scenario.
    pub fn wedge(&self, per_write: Duration) {
        self.wedge_sleep_us
            .store(per_write.as_micros().min(u64::MAX as u128) as u64, Ordering::Release);
        self.mode.store(DeviceMode::Wedged.encode(), Ordering::Release);
    }

    /// Return the device to service (chaos tests only; the serve fleet
    /// never revives a drained device).
    pub fn revive(&self) {
        self.kill_countdown.store(DISARMED, Ordering::Release);
        self.mode.store(DeviceMode::Ok.encode(), Ordering::Release);
    }

    /// Arm a mid-turn kill: the device dies after `writes` more frame
    /// writes, wherever in a commit that lands.
    pub fn kill_after_writes(&self, writes: u64) {
        self.kill_countdown.store(writes, Ordering::Release);
    }

    /// Lifetime frame writes attempted through this device.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Account one write attempt and fire the kill countdown when it
    /// reaches zero. Returns the mode the write must be served under.
    fn on_write(&self) -> DeviceMode {
        self.writes.fetch_add(1, Ordering::Relaxed);
        // Decrement-if-armed; the thread that moves the counter to zero
        // performs the kill, so exactly one write observes the flip.
        let fired = self
            .kill_countdown
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                if v == DISARMED || v == 0 {
                    None
                } else {
                    Some(v - 1)
                }
            })
            .map(|prev| prev == 1)
            .unwrap_or(false);
        if fired {
            self.kill();
        }
        self.mode()
    }

    fn wedge_sleep(&self) -> Duration {
        Duration::from_micros(self.wedge_sleep_us.load(Ordering::Acquire))
    }
}

/// A configuration port routed through a device: traffic passes through
/// while the device is [`DeviceMode::Ok`] and degrades per mode when it
/// is not. Readback passes through untouched in every mode — migration
/// never reads a dead device, and a stalled port still exposes its last
/// committed memory to post-mortem dumps.
pub struct DeviceIcap<C: IcapChannel> {
    inner: C,
    control: Arc<DeviceControl>,
}

impl<C: IcapChannel> DeviceIcap<C> {
    /// Route `inner` through the device owning `control`.
    pub fn new(inner: C, control: Arc<DeviceControl>) -> Self {
        DeviceIcap { inner, control }
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The device control this channel consults.
    pub fn control(&self) -> &Arc<DeviceControl> {
        &self.control
    }
}

impl<C: IcapChannel> IcapChannel for DeviceIcap<C> {
    fn frame_bits(&self) -> usize {
        self.inner.frame_bits()
    }

    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }

    fn write_frame(&mut self, frame: usize, data: &[u64]) -> Result<(), IcapError> {
        match self.control.on_write() {
            DeviceMode::Ok => self.inner.write_frame(frame, data),
            DeviceMode::Killed => Err(IcapError::WriteFailed),
            DeviceMode::Stalled => Err(IcapError::Stalled),
            DeviceMode::Wedged => {
                std::thread::sleep(self.control.wedge_sleep());
                Err(IcapError::Stalled)
            }
        }
    }

    fn read_frame_into(&self, frame: usize, out: &mut Vec<u64>) {
        self.inner.read_frame_into(frame, out)
    }

    fn tick(&mut self) -> usize {
        // A dead device takes no further upsets: skipping the inner
        // tick also freezes the seeded SEU generator, keeping the
        // recorded journal replayable on a healthy spare.
        if self.control.is_ok() {
            self.inner.tick()
        } else {
            0
        }
    }
}

/// Identity and chaos controls of one emulated device in a fleet.
#[derive(Debug, Clone)]
pub struct Device {
    /// Fleet-stable index (assignment hashes map session names here).
    pub id: usize,
    /// Human-readable name (`dev0`, `dev1`, …).
    pub name: String,
    control: Arc<DeviceControl>,
}

impl Device {
    /// The shared control block.
    pub fn control(&self) -> &Arc<DeviceControl> {
        &self.control
    }

    /// Current mode.
    pub fn mode(&self) -> DeviceMode {
        self.control.mode()
    }

    /// Route a session channel stack through this device. The session
    /// keeps its own per-session seeds; the device contributes only its
    /// shared failure mode.
    pub fn attach<C: IcapChannel>(&self, inner: C) -> DeviceIcap<C> {
        DeviceIcap::new(inner, Arc::clone(&self.control))
    }
}

/// A fixed-size fleet of devices created together. The registry is the
/// unit the serve layer supervises: primaries take hashed session
/// assignment, spares wait to absorb a drained device's sessions.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    devices: Vec<Device>,
}

impl DeviceRegistry {
    /// Create `n` healthy devices named `dev0..dev{n-1}`.
    pub fn new(n: usize) -> Self {
        let devices = (0..n)
            .map(|id| Device {
                id,
                name: format!("dev{id}"),
                control: Arc::new(DeviceControl::new()),
            })
            .collect();
        DeviceRegistry { devices }
    }

    /// Number of devices in the fleet.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device by id, if it exists.
    pub fn get(&self, id: usize) -> Option<&Device> {
        self.devices.get(id)
    }

    /// All devices in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdbg_arch::Bitstream;
    use pfdbg_pconf::icap::MemoryIcap;
    use pfdbg_util::BitVec;

    fn mem(n_bits: usize, frame_bits: usize) -> MemoryIcap {
        MemoryIcap::new(Bitstream::from_bits(BitVec::zeros(n_bits)), frame_bits)
    }

    #[test]
    fn healthy_device_is_transparent() {
        let reg = DeviceRegistry::new(2);
        let mut ch = reg.get(0).unwrap().attach(mem(256, 128));
        ch.write_frame(0, &[0x5u64, 0]).unwrap();
        let mut back = Vec::new();
        ch.read_frame_into(0, &mut back);
        assert_eq!(back, vec![0x5u64, 0]);
        assert_eq!(ch.control().writes(), 1);
    }

    #[test]
    fn killed_device_rejects_writes_but_reads_pass() {
        let reg = DeviceRegistry::new(1);
        let dev = reg.get(0).unwrap();
        let mut ch = dev.attach(mem(256, 128));
        ch.write_frame(0, &[0x9u64, 0]).unwrap();
        dev.control().kill();
        assert_eq!(ch.write_frame(0, &[0xFFu64, 0]), Err(IcapError::WriteFailed));
        let mut back = Vec::new();
        ch.read_frame_into(0, &mut back);
        assert_eq!(back, vec![0x9u64, 0], "last committed memory stays readable");
        assert_eq!(dev.mode(), DeviceMode::Killed);
    }

    #[test]
    fn stalled_and_wedged_both_stall_writes() {
        let ctl = Arc::new(DeviceControl::new());
        let mut ch = DeviceIcap::new(mem(128, 128), Arc::clone(&ctl));
        ctl.stall();
        assert_eq!(ch.write_frame(0, &[0u64, 0]), Err(IcapError::Stalled));
        ctl.wedge(Duration::from_micros(100));
        let t0 = std::time::Instant::now();
        assert_eq!(ch.write_frame(0, &[0u64, 0]), Err(IcapError::Stalled));
        assert!(t0.elapsed() >= Duration::from_micros(100), "wedge burns wall-clock time");
    }

    #[test]
    fn kill_countdown_fires_mid_sequence_exactly_once() {
        let ctl = Arc::new(DeviceControl::new());
        let mut ch = DeviceIcap::new(mem(512, 128), Arc::clone(&ctl));
        ctl.kill_after_writes(3);
        assert!(ch.write_frame(0, &[1, 0]).is_ok());
        assert!(ch.write_frame(1, &[2, 0]).is_ok());
        assert_eq!(ch.write_frame(2, &[3, 0]), Err(IcapError::WriteFailed), "third write trips");
        assert_eq!(ctl.mode(), DeviceMode::Killed);
        assert_eq!(ch.write_frame(3, &[4, 0]), Err(IcapError::WriteFailed), "stays dead");
    }

    #[test]
    fn dead_device_takes_no_ticks() {
        let ctl = Arc::new(DeviceControl::new());
        let seu = crate::SeuIcap::new(mem(256, 128), crate::SeuConfig::new(1.0, 7));
        let mut ch = DeviceIcap::new(seu, Arc::clone(&ctl));
        ctl.kill();
        assert_eq!(ch.tick(), 0, "no upsets strike a dead device");
        ctl.revive();
        assert!(ch.tick() > 0, "revived device ticks again");
    }

    #[test]
    fn registry_names_and_modes() {
        let reg = DeviceRegistry::new(3);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.get(2).unwrap().name, "dev2");
        assert!(reg.iter().all(|d| d.mode() == DeviceMode::Ok));
        assert_eq!(DeviceMode::Wedged.as_str(), "wedged");
    }
}
