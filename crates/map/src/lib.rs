//! Technology mapping for the parameterized debugging flow: cut
//! enumeration, the conventional baselines (SimpleMap, ABC-style priority
//! cuts) and the paper's parameter-aware TCONMap that folds multiplexer
//! networks into tunable LUTs (TLUTs) and tunable connections (TCONs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod cuts;
pub mod mapper;
pub mod netmap;
pub mod simple;

pub use cuts::{Cut, CutConfig, CutDb};
pub use mapper::{map, ElemKind, MappedElement, MapperKind, Mapping};
pub use netmap::{depth_with_kinds, map_parameterized_network, MappedParam, NetMapStats};
pub use simple::simple_map;
