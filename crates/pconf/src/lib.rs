//! Parameterized configurations (PConf): Boolean functions of parameters
//! overlaid on the configuration bitstream, the generalized-bitstream
//! representation, and the Specialized Configuration Generator that turns
//! a parameter assignment into a loadable bitstream at debug time —
//! avoiding recompilation entirely and reconfiguring only changed frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
pub mod genbits;
pub mod health;
pub mod icap;
pub mod scg;
pub mod scrub;
pub mod turn;

pub use bdd::{Bdd, BddManager};
pub use genbits::{Builder as GeneralizedBuilder, GeneralizedBitstream};
pub use health::{
    DeviceHealth, HealthEvent, HealthLadder, HealthPolicy, HealthTransition, WatchdogPolicy,
    WatchdogVerdict,
};
pub use icap::{CommitPolicy, CommitStats, IcapChannel, IcapError, MemoryIcap};
pub use scg::{OnlineReconfigurator, Scg, SpecializeScratch, SpecializeTiming, TurnStats};
pub use scrub::{ScrubHealth, ScrubPolicy, ScrubReport, ScrubTotals, Scrubber};
pub use turn::{region_frames, TurnCommit, TurnContext, TurnEngine};
