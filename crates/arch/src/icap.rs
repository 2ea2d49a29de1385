//! Reconfiguration-port timing model (HWICAP).
//!
//! The paper's run-time analysis (§V.C.2) compares three latencies:
//!
//! * a **full reconfiguration** — shifting the entire bitstream through
//!   the configuration port: 176 ms on the Xilinx Virtex-5 it assumes,
//! * a **partial reconfiguration** — only the frames whose bits changed,
//! * the **PConf evaluation** by the SCG (measured, not modeled — see
//!   `pfdbg-pconf`), bounded at 50 µs in the paper.
//!
//! We model the port as fixed per-frame transfer time plus a per-command
//! overhead, calibrated so a Virtex-5-sized device full-reconfigures in
//! 176 ms.

use std::time::Duration;

/// Virtex-5 frame size: 41 words × 32 bits.
pub const VIRTEX5_FRAME_BITS: usize = 41 * 32;

/// Configuration size of a Virtex-5 of the class the paper assumes
/// (~23k frames ≈ 3.8 MB, an XC5VLX110T-sized part). Used to calibrate
/// the port so a *full* reconfiguration takes the paper's 176 ms even
/// when the design under test occupies only a region of the device.
pub const VIRTEX5_CONFIG_BITS: usize = 23_000 * VIRTEX5_FRAME_BITS;

/// An ICAP-like configuration port.
#[derive(Debug, Clone, Copy)]
pub struct IcapModel {
    /// Sustained throughput of the port in bits per second.
    pub bits_per_second: f64,
    /// Fixed overhead per reconfiguration command (setup, sync words,
    /// CRC).
    pub command_overhead: Duration,
    /// Per-frame address/command overhead.
    pub per_frame_overhead: Duration,
}

impl IcapModel {
    /// A Virtex-5-class port: ICAP at 32 bit × 100 MHz = 3.2 Gbit/s.
    pub fn virtex5() -> Self {
        IcapModel {
            bits_per_second: 3.2e9,
            command_overhead: Duration::from_micros(20),
            per_frame_overhead: Duration::from_nanos(420),
        }
    }

    /// Time to shift `n_bits` through the port (no command overheads).
    fn transfer(&self, n_bits: usize) -> Duration {
        Duration::from_secs_f64(n_bits as f64 / self.bits_per_second)
    }

    /// Full-device reconfiguration time for a bitstream of `n_bits`
    /// organized in frames of `frame_bits`.
    pub fn full_reconfig(&self, n_bits: usize, frame_bits: usize) -> Duration {
        let frames = n_bits.div_ceil(frame_bits.max(1));
        self.command_overhead + self.per_frame_overhead * frames as u32 + self.transfer(n_bits)
    }

    /// Partial reconfiguration of `n_frames` frames.
    pub fn partial_reconfig(&self, n_frames: usize, frame_bits: usize) -> Duration {
        self.command_overhead
            + self.per_frame_overhead * n_frames as u32
            + self.transfer(n_frames * frame_bits)
    }

    /// Number of bits a Virtex-5-class device needs for its full stream
    /// to take the paper's 176 ms on this port (useful to sanity-check
    /// model calibration: vs. the real XC5VLX110T's ~3.9 MB bitstream the
    /// figure implies a slower effective throughput — the paper quotes
    /// the conservative end-to-end HWICAP rate, so calibrate with
    /// [`IcapModel::calibrated_to`] when matching the paper).
    pub fn bits_for(&self, t: Duration) -> usize {
        (t.as_secs_f64() * self.bits_per_second) as usize
    }

    /// The paper's port, calibrated at *device* scale: a full
    /// Virtex-5-class configuration ([`VIRTEX5_CONFIG_BITS`]) takes
    /// 176 ms. The design under test occupies a region of the device,
    /// and partial reconfiguration pays per frame of the real part, so
    /// the offline flow and a store hit both take their port from here.
    pub fn paper() -> Self {
        IcapModel::calibrated_to(VIRTEX5_CONFIG_BITS, Duration::from_millis(176))
    }

    /// A model rescaled so that a device with `n_bits` of configuration
    /// takes exactly `target` for a full reconfiguration (frame overheads
    /// folded into throughput). This mirrors the paper's calibration
    /// point: 176 ms for its Virtex-5.
    pub fn calibrated_to(n_bits: usize, target: Duration) -> Self {
        IcapModel {
            bits_per_second: n_bits as f64 / target.as_secs_f64(),
            command_overhead: Duration::ZERO,
            per_frame_overhead: Duration::ZERO,
        }
    }
}

/// The paper's amortization analysis: with the design clocked at
/// `design_mhz` and a debug loop of `loop_ticks` cycles, how many
/// debugging turns does one specialization of `specialize` latency
/// correspond to? (§V.C.2 computes 50 µs ≙ 5000 turns at 400 MHz and 4
/// ticks per turn.)
pub fn turns_equivalent(specialize: Duration, design_mhz: f64, loop_ticks: u32) -> f64 {
    let tick = 1.0 / (design_mhz * 1e6);
    specialize.as_secs_f64() / (tick * loop_ticks as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtex5_full_reconfig_order_of_magnitude() {
        // A Virtex-5-sized stream on a calibrated port hits 176 ms
        // exactly; the raw 3.2 Gb/s port does it faster (the paper quotes
        // end-to-end driver throughput).
        let icap = IcapModel::calibrated_to(30_000_000, Duration::from_millis(176));
        let t = icap.full_reconfig(30_000_000, VIRTEX5_FRAME_BITS);
        let ms = t.as_secs_f64() * 1e3;
        assert!((ms - 176.0).abs() < 1.0, "got {ms} ms");
    }

    #[test]
    fn paper_port_full_reconfigures_a_virtex5_in_176_ms() {
        let t = IcapModel::paper().full_reconfig(VIRTEX5_CONFIG_BITS, VIRTEX5_FRAME_BITS);
        assert!((t.as_secs_f64() * 1e3 - 176.0).abs() < 1e-6, "got {t:?}");
    }

    #[test]
    fn partial_beats_full_by_orders_of_magnitude() {
        let icap = IcapModel::calibrated_to(30_000_000, Duration::from_millis(176));
        let full = icap.full_reconfig(30_000_000, VIRTEX5_FRAME_BITS);
        let partial = icap.partial_reconfig(10, VIRTEX5_FRAME_BITS);
        let ratio = full.as_secs_f64() / partial.as_secs_f64();
        assert!(ratio > 1000.0, "partial only {ratio}x faster");
    }

    #[test]
    fn per_frame_overhead_accumulates() {
        let icap = IcapModel::virtex5();
        let few = icap.partial_reconfig(1, VIRTEX5_FRAME_BITS);
        let many = icap.partial_reconfig(100, VIRTEX5_FRAME_BITS);
        assert!(many > few);
        assert!(many < icap.full_reconfig(30_000_000, VIRTEX5_FRAME_BITS));
    }

    #[test]
    fn paper_amortization_point() {
        // 50 µs at 400 MHz, 4 ticks/turn -> 5000 turns.
        let turns = turns_equivalent(Duration::from_micros(50), 400.0, 4);
        assert!((turns - 5000.0).abs() < 1e-6, "got {turns}");
    }
}
