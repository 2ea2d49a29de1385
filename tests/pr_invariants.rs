//! Property-based invariants of the place & route stack: legal
//! placements, conflict-free routings, and correct tunable-net
//! convergence, over randomized packed designs.

use parameterized_fpga_debug::arch::{build_rrg, ArchSpec, Device, RRKind, TileKind};
use parameterized_fpga_debug::netlist::NodeId;
use parameterized_fpga_debug::pr::{
    place, route, Block, PRNet, PackedDesign, PlaceConfig, RouteConfig, SourceRef,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A random but well-formed packed design: `n_clb` CLBs, a few pads, and
/// random point-to-multipoint nets (some tunable). An output pad has one
/// input pin, so at most one net ends on each pad: a design that drives
/// one pad from two nets cannot route on any device.
fn arb_design() -> impl Strategy<Value = PackedDesign> {
    (2usize..10, 1usize..5, 0u8..2, any::<u64>()).prop_map(
        |(n_clb, nets_per_clb, tunable_flag, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut blocks: Vec<Block> = (0..n_clb).map(Block::Clb).collect();
            let mut clusters = Vec::new();
            for _ in 0..n_clb {
                clusters.push(Default::default());
            }
            let n_pads = rng.gen_range(1..4usize);
            for p in 0..n_pads {
                blocks.push(Block::OutPad(format!("pad{p}")));
            }
            let mut nets = Vec::new();
            let mut driven_pads: HashSet<usize> = HashSet::new();
            for c in 0..n_clb {
                for k in 0..nets_per_clb {
                    let mut sinks: Vec<usize> = Vec::new();
                    let n_sinks = rng.gen_range(1..3usize);
                    for _ in 0..n_sinks {
                        let s = rng.gen_range(0..blocks.len());
                        if s != c && !sinks.contains(&s) && !driven_pads.contains(&s) {
                            sinks.push(s);
                        }
                    }
                    if sinks.is_empty() {
                        continue;
                    }
                    let tunable = tunable_flag == 1 && k == 0 && n_clb >= 3;
                    let sources: Vec<SourceRef> = if tunable {
                        (0..n_clb.min(3))
                            .filter(|&b| !sinks.contains(&b))
                            .map(|b| SourceRef { block: b, ble: rng.gen_range(0..4) })
                            .collect()
                    } else {
                        vec![SourceRef { block: c, ble: k % 4 }]
                    };
                    if sources.is_empty() {
                        continue;
                    }
                    let n_src = sources.len();
                    driven_pads.extend(sinks.iter().filter(|&&s| s >= n_clb));
                    nets.push(PRNet {
                        name: format!("n{c}_{k}"),
                        sources,
                        source_nodes: vec![NodeId(0); n_src],
                        driver: NodeId(0),
                        sinks,
                        tunable,
                    });
                }
            }
            PackedDesign { blocks, clusters, nets, n_tcons: 0 }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn placement_is_always_legal(design in arb_design(), seed in any::<u64>()) {
        let dev = Device::new(ArchSpec::default(), 5, 5);
        let p = place(&design, &dev, &PlaceConfig { seed, effort: 0.3 }).unwrap();
        let mut used = HashSet::new();
        for (b, loc) in p.locs.iter().enumerate() {
            prop_assert!(used.insert(*loc), "slot double-booked");
            match design.blocks[b] {
                Block::Clb(_) => prop_assert_eq!(
                    dev.tile(loc.x as usize, loc.y as usize),
                    TileKind::Clb
                ),
                _ => prop_assert_eq!(
                    dev.tile(loc.x as usize, loc.y as usize),
                    TileKind::Io
                ),
            }
        }
    }

    #[test]
    fn routing_never_shares_wires_across_nets(design in arb_design()) {
        let dev = Device::new(
            ArchSpec { channel_width: 20, ..Default::default() },
            5,
            5,
        );
        let rrg = build_rrg(&dev);
        let placement = place(&design, &dev, &PlaceConfig::default()).unwrap();
        let routed = route(&design, &placement, &dev, &rrg, &RouteConfig::default()).unwrap();
        // Width 20 on a 5x5 device is ample for these designs: every
        // case must route, so the invariants below check every case.
        prop_assert!(routed.success, "routing failed");
        // Wire/ipin owned by at most one net (opins are shared by
        // construction — same signal).
        let mut owner: HashMap<u32, usize> = HashMap::new();
        for nr in &routed.routes {
            let mut mine = HashSet::new();
            for b in &nr.branches {
                for &(a, t) in &b.edges {
                    for n in [a, t] {
                        if matches!(rrg.node(n).kind, RRKind::OPin(_)) {
                            continue;
                        }
                        mine.insert(n);
                    }
                }
            }
            for n in mine {
                if let Some(&other) = owner.get(&n.0) {
                    prop_assert_eq!(other, nr.net, "wire {:?} shared across nets", n);
                }
                owner.insert(n.0, nr.net);
            }
        }
        // Every sink of every net received a pin; tunable alternatives
        // converge on that same pin.
        for (nr, net) in routed.routes.iter().zip(&design.nets) {
            prop_assert_eq!(nr.sink_pins.len(), net.sinks.len());
            if net.tunable {
                for b in &nr.branches {
                    let targets: HashSet<_> = b.edges.iter().map(|&(_, t)| t).collect();
                    for pin in nr.sink_pins.values() {
                        prop_assert!(
                            targets.contains(pin),
                            "alternative {} misses shared pin",
                            b.alternative
                        );
                    }
                }
            }
        }
    }
}
