//! Golden digests of TPlace and TRoute output, and of the SCG's
//! specializations, on fixed instrumented designs. The placer and
//! router are deterministic functions of their inputs (seeded RNG, f64
//! cost sums in a fixed order, heap ties broken on node id), and a
//! specialization is a function of the generalized bitstream and the
//! parameters alone, so any change to the flow or to the SCG must
//! either reproduce these digests bit for bit or be a deliberate change
//! of results that updates them. Each design is checked at several
//! thread counts (1, 2 and 8; the larger diffeq1 at 1 and 8): parallel
//! cut enumeration and sharded BDD construction must produce exactly
//! the serial results.
//!
//! The routing, wires and specialization digests changed when TRoute
//! moved to branch-level rip-up: after its first iteration PathFinder
//! re-routes only the branches that hold an overused node or missed a
//! sink, so it converges to other routes (in fewer iterations, on fewer
//! wires), and the generalized bitstream is built from those routes.
//! The placement digests did not change.

use parameterized_fpga_debug::circuits::{build, generate, GenParams};
use parameterized_fpga_debug::core::{
    offline, prepare_instrumented, InstrumentConfig, OfflineConfig, PAPER_K,
};
use parameterized_fpga_debug::netlist::Network;
use parameterized_fpga_debug::pconf::{Scg, SpecializeScratch};
use parameterized_fpga_debug::pr::place::COUNTED_NET_TERMINALS;
use parameterized_fpga_debug::pr::{Placement, RoutedDesign};
use parameterized_fpga_debug::util::BitVec;

/// FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn placement_digest(p: &Placement) -> u64 {
    let mut h = Fnv::new();
    h.word(p.locs.len() as u64);
    for l in &p.locs {
        h.word(l.x as u64);
        h.word(l.y as u64);
        h.word(l.sub as u64);
    }
    h.word(p.cost.to_bits());
    h.word(p.moves as u64);
    h.0
}

fn routing_digest(r: &RoutedDesign) -> u64 {
    let mut h = Fnv::new();
    h.word(r.routes.len() as u64);
    for nr in &r.routes {
        h.word(nr.net as u64);
        h.word(nr.branches.len() as u64);
        for b in &nr.branches {
            h.word(b.alternative as u64);
            h.word(b.edges.len() as u64);
            for &(from, to) in &b.edges {
                h.word(from.0 as u64);
                h.word(to.0 as u64);
            }
        }
        let mut pins: Vec<(usize, u32)> = nr.sink_pins.iter().map(|(&b, p)| (b, p.0)).collect();
        pins.sort_unstable();
        h.word(pins.len() as u64);
        for (block, pin) in pins {
            h.word(block as u64);
            h.word(pin as u64);
        }
    }
    h.word(r.iterations as u64);
    h.word(r.wires_used as u64);
    h.word(r.success as u64);
    h.0
}

/// Specializations of 4 seeded parameter vectors, each produced twice
/// — by `try_specialize` and by `specialize_from_batch` starting from
/// the base bitstream — hashed in that order.
fn specialization_digest(scg: &Scg) -> u64 {
    let base = &scg.generalized().base;
    let n_params = scg.generalized().n_params;
    let mut scratch = SpecializeScratch::new();
    let mut seed = 0x5eed_u64;
    let mut h = Fnv::new();
    for _ in 0..4 {
        // splitmix64, one draw per parameter.
        let params: BitVec = (0..n_params)
            .map(|_| {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) & 1 == 1
            })
            .collect();
        let full = scg.try_specialize(&params).expect("specialize");
        let batch = scg.specialize_from_batch(base, &params, &mut scratch).expect("batch");
        for bits in [&full, &batch] {
            h.word(bits.len() as u64);
            for &w in bits.words() {
                h.word(w);
            }
        }
    }
    h.0
}

/// `(placement digest, routing digest, wires used, specialization
/// digest)`.
type Digests = (u64, u64, usize, u64);

/// Place and route `design` at paper instrumentation with `threads`
/// workers for the flow's parallel stages: its digests, and the
/// terminal count of its widest net (distinct blocks over sources and
/// sinks, as the placer counts them).
fn digests(design: &Network, threads: usize) -> (Digests, usize) {
    let (_, _, inst) =
        prepare_instrumented(design, &InstrumentConfig::paper(), PAPER_K).expect("instrument");
    assert!(inst.network.params().count() > 0, "design must carry tunable nets");
    let cfg = OfflineConfig { k: PAPER_K, threads, ..Default::default() };
    let off = offline(&inst, &cfg).expect("offline flow");
    let tp = off.tpar.as_ref().expect("place and route ran");
    assert!(tp.packed.n_tunable_nets() > 0, "no tunable nets reached the router");
    let scg = off.scg.as_ref().expect("offline flow built the SCG");
    let widest = tp
        .packed
        .nets
        .iter()
        .map(|n| {
            let mut blocks: Vec<usize> = n.sources.iter().map(|s| s.block).collect();
            blocks.extend(&n.sinks);
            blocks.sort_unstable();
            blocks.dedup();
            blocks.len()
        })
        .max()
        .unwrap_or(0);
    let got = (
        placement_digest(&tp.placement),
        routing_digest(&tp.routed),
        tp.routed.wires_used,
        specialization_digest(scg),
    );
    (got, widest)
}

/// Check `design` against `golden` at 1, 2 and 8 threads; the widest
/// net's terminal count.
fn check(name: &str, design: &Network, golden: Digests) -> usize {
    check_at(name, design, &[1, 2, 8], golden)
}

fn check_at(name: &str, design: &Network, threads: &[usize], golden: Digests) -> usize {
    let mut widest = 0;
    for &threads in threads {
        let (got, w) = digests(design, threads);
        widest = w;
        assert_eq!(
            got, golden,
            "{name} at {threads} threads: (placement, routing, wires, specialization) \
             digests {:#018x}, {:#018x}, {}, {:#018x} differ from the golden values",
            got.0, got.1, got.2, got.3
        );
    }
    widest
}

/// stereov's trace-multiplexer nets have more than
/// [`COUNTED_NET_TERMINALS`] terminals, so its placement digest also
/// pins the placer's counted bounding boxes.
#[test]
fn stereov_place_and_route_match_golden_digests() {
    let design = build("stereov.").expect("suite member");
    let widest = check(
        "stereov.",
        &design,
        (0x2eb0_6081_fa92_4779, 0x9a1a_789b_20a4_4773, 961, 0x1cd8_015d_6eec_3c71),
    );
    assert!(
        widest > COUNTED_NET_TERMINALS,
        "stereov's widest net has {widest} terminals: the counted path goes unpinned"
    );
}

/// The benchmark's own design: every pfbench workload builds diffeq1 at
/// paper instrumentation, so its wires and specializations are pinned
/// here too. Debug builds take seconds per flow, so this one runs at 1
/// and 8 threads only.
#[test]
fn diffeq1_place_and_route_match_golden_digests() {
    let design = build("diffeq1").expect("suite member");
    check_at(
        "diffeq1",
        &design,
        &[1, 8],
        (0x3d4e_4efe_ba5e_a918, 0x4bc3_4829_1e61_ca6f, 3065, 0xa583_9789_ab72_d889),
    );
}

#[test]
fn generated_place_and_route_match_golden_digests() {
    let design = generate(&GenParams {
        n_inputs: 10,
        n_outputs: 6,
        n_gates: 160,
        depth: 7,
        n_latches: 4,
        seed: 0x601d,
    });
    check(
        "gen 0x601d",
        &design,
        (0x19fd_8c4e_2343_d297, 0xd4dc_d367_e8c1_ea11, 603, 0xda7b_517b_a5c4_a5c5),
    );
}
