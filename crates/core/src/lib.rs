//! The paper's contribution: efficient hardware debugging using
//! parameterized FPGA reconfiguration.
//!
//! * [`param`] — signal parameterization: mux networks from every
//!   internal net to trace-buffer ports, selects as PConf parameters,
//! * [`select`] — critical-signal pre-selection (§VI extension),
//! * [`flow`] — the offline generic stage: synthesis → TCONMap → TPaR →
//!   generalized bitstream, whose products the online stage runs as one
//!   [`CompiledDesign`],
//! * [`online`] — the online specialization stage: [`online::DebugSession`]
//!   turns a signal selection into an SCG evaluation plus a partial
//!   reconfiguration, then captures the trace,
//! * [`mod@localize`] — automated multi-turn bug localization,
//! * [`baseline`] — the conventional-flow baselines regenerating the
//!   paper's Tables I and II.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod flow;
pub mod localize;
pub mod online;
pub mod param;
pub mod select;

pub use baseline::{compare_mappers, MapperComparison};
pub use baseline::{initial_mapping, prepare_instrumented};
pub use flow::{offline, tcon_conditions, CompiledDesign, MapStats, OfflineConfig, OfflineResult};
pub use localize::{localize, LocalizationResult};
pub use online::{DebugSession, TurnRecord};
pub use param::{
    instrument, observable_signals, InstrumentConfig, Instrumented, PortInfo, SelectionPlan,
    PAPER_K,
};
pub use select::{rank_signals, select_critical, RankedSignal};
