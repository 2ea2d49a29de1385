//! FPGA emulation of netlists: cycle-accurate execution with trace
//! capture and triggering, fault injection (the bugs under debug), and
//! golden-model lockstep comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod emulator;
pub mod fault;
pub mod golden;
pub mod icap;
pub mod nondet;
pub mod seu;

pub use device::{Device, DeviceControl, DeviceIcap, DeviceMode, DeviceRegistry};
pub use emulator::Emulator;
pub use fault::{apply_static, injectable_nets, Fault};
pub use golden::{golden_waveform, lockstep, LockstepReport};
pub use icap::{channel_stack, FaultyIcap, IcapFaultConfig};
pub use nondet::NondetIcap;
pub use seu::{SeuConfig, SeuIcap};
