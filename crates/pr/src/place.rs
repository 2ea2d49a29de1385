//! TPlace: simulated-annealing placement (VPR-style).
//!
//! Blocks (CLBs and I/O pads) are assigned to grid slots minimizing the
//! sum over nets of half-perimeter wirelength (HPWL) scaled by the
//! standard fanout correction factor. The annealing schedule follows
//! VPR: automatic initial temperature from move-cost statistics,
//! adaptive cooling based on the acceptance rate, and a shrinking range
//! limit. Tunable nets contribute the bounding box over *all* their
//! alternative sources plus sinks — keeping the selectable signals close
//! is exactly what lets them share routing.

use crate::pack::{Block, PackedDesign};
use pfdbg_arch::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grid location: tile plus sub-slot (BLE-irrelevant; sub distinguishes
/// pad slots on I/O tiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Tile x.
    pub x: u16,
    /// Tile y.
    pub y: u16,
    /// Sub-slot within the tile (always 0 for CLBs; pad index for I/O).
    pub sub: u16,
}

/// A placement: block index → location.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Per-block location (same order as `PackedDesign::blocks`).
    pub locs: Vec<Loc>,
    /// Final bounding-box cost.
    pub cost: f64,
    /// Annealing moves attempted.
    pub moves: usize,
}

/// Placement configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlaceConfig {
    /// RNG seed (deterministic placements for reproducible experiments).
    pub seed: u64,
    /// Moves per temperature step, per block (VPR's `inner_num` ≈ 10
    /// scaled; we use `moves_per_block * n_blocks^(4/3)` overall).
    pub effort: f64,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig { seed: 0xF00D, effort: 1.0 }
    }
}

/// The classic VPR fanout correction for HPWL.
fn crossing_factor(terminals: usize) -> f64 {
    const Q: [f64; 46] = [
        1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493, 1.4974, 1.5455,
        1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015,
        2.0379, 2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583,
        2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625,
        2.6842,
    ];
    if terminals == 0 {
        0.0
    } else if terminals <= 45 {
        Q[terminals]
    } else {
        2.6842 + 0.02616 * (terminals - 45) as f64
    }
}

/// Nets with more terminals than this keep per-column and per-row
/// terminal counts and their bounding box: a move prices them from the
/// counts instead of rescanning every terminal. On the benchmark
/// designs only the trace-multiplexer nets cross it. Counting every
/// net instead placed diffeq1 about 2× slower: scanning a few
/// terminals is cheaper than keeping their count rows.
pub const COUNTED_NET_TERMINALS: usize = 16;

struct NetGeometry {
    /// Block terminals (sources' blocks + sinks), deduplicated.
    terminals: Vec<u32>,
    weight: f64,
}

/// A bounding box in tile coordinates, edges inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BBox {
    min_x: u16,
    max_x: u16,
    min_y: u16,
    max_y: u16,
}

impl BBox {
    /// The box of `terminals` under `locs` (`terminals` non-empty).
    fn scan(terminals: &[u32], locs: &[Loc]) -> BBox {
        let mut b = BBox { min_x: u16::MAX, max_x: 0, min_y: u16::MAX, max_y: 0 };
        for &t in terminals {
            let l = locs[t as usize];
            b.min_x = b.min_x.min(l.x);
            b.max_x = b.max_x.max(l.x);
            b.min_y = b.min_y.min(l.y);
            b.max_y = b.max_y.max(l.y);
        }
        b
    }

    /// Half-perimeter scaled by `weight`.
    fn cost(self, weight: f64) -> f64 {
        weight * ((self.max_x - self.min_x) as f64 + (self.max_y - self.min_y) as f64)
    }
}

/// Fanout-weighted half-perimeter of one net's bounding box.
fn bbox_cost(net: &NetGeometry, locs: &[Loc]) -> f64 {
    if net.terminals.is_empty() {
        return 0.0;
    }
    BBox::scan(&net.terminals, locs).cost(net.weight)
}

/// How many of a net's terminals sit in each grid column and row under
/// the committed placement, and the box they span — kept for nets with
/// more than [`COUNTED_NET_TERMINALS`] terminals.
#[derive(Debug, Clone, PartialEq)]
struct NetCounts {
    cols: Vec<u16>,
    rows: Vec<u16>,
    bbox: BBox,
}

impl NetCounts {
    fn new(terminals: &[u32], locs: &[Loc], width: usize, height: usize) -> NetCounts {
        let mut c = NetCounts {
            cols: vec![0; width],
            rows: vec![0; height],
            bbox: BBox::scan(terminals, locs),
        };
        for &t in terminals {
            let l = locs[t as usize];
            c.cols[l.x as usize] += 1;
            c.rows[l.y as usize] += 1;
        }
        c
    }

    /// The box after one terminal moves from `from` to `to`.
    fn moved_box(&self, from: Loc, to: Loc) -> BBox {
        let b = self.bbox;
        let (min_x, max_x) = moved_span(&self.cols, b.min_x, b.max_x, from.x, to.x);
        let (min_y, max_y) = moved_span(&self.rows, b.min_y, b.max_y, from.y, to.y);
        BBox { min_x, max_x, min_y, max_y }
    }

    /// Commit a move priced by [`NetCounts::moved_box`].
    fn apply(&mut self, from: Loc, to: Loc, bbox: BBox) {
        self.cols[from.x as usize] -= 1;
        self.cols[to.x as usize] += 1;
        self.rows[from.y as usize] -= 1;
        self.rows[to.y as usize] += 1;
        self.bbox = bbox;
    }
}

/// One axis of [`NetCounts::moved_box`]: the span `[lo, hi]` once a
/// terminal leaves coordinate `from` for `to`, given the terminal count
/// at each coordinate. The counts are read only when the terminal was
/// alone on an edge and moves inward, and then only between that edge
/// and `to`, which bounds the new edge.
fn moved_span(count: &[u16], lo: u16, hi: u16, from: u16, to: u16) -> (u16, u16) {
    let alone = count[from as usize] == 1;
    let lo = if from == lo && alone && to > from {
        (from + 1..to).find(|&c| count[c as usize] > 0).unwrap_or(to)
    } else {
        lo.min(to)
    };
    let hi = if from == hi && alone && to < from {
        (to + 1..from).rev().find(|&c| count[c as usize] > 0).unwrap_or(to)
    } else {
        hi.max(to)
    };
    (lo, hi)
}

/// Marks a free slot in [`SlotClass::occupant`].
const FREE: u32 = u32::MAX;

/// One block class (CLBs or pads): its blocks, the slots they may
/// occupy, and which block holds each slot.
struct SlotClass {
    blocks: Vec<usize>,
    slots: Vec<Loc>,
    /// Block in each slot, or [`FREE`].
    occupant: Vec<u32>,
}

/// A proposed move, already applied to [`Annealer::locs`]: block `a`
/// goes to slot `to` of its class, swapping with `b`, the slot's
/// occupant, if any. [`Annealer::commit`] or [`Annealer::revert`]
/// settles it.
struct Move {
    clb: bool,
    a: usize,
    to: u32,
    b: Option<usize>,
    /// Cost change of the move.
    delta: f64,
}

/// Annealing state with incremental bookkeeping: a slot → block
/// occupancy index per class and a per-net cost cache equal to
/// [`bbox_cost`] of the committed placement, so a move costs one scan
/// of its affected nets' after-state — or, for a net with
/// [`NetCounts`], a box update from the counts. Either way the cost is
/// the same expression over the same box, and sums over the cache add
/// the same values in the same order as a fresh scan would, so the
/// anneal makes the same decisions bit for bit.
struct Annealer {
    nets: Vec<NetGeometry>,
    /// Nets touching each block.
    nets_of_block: Vec<Vec<u32>>,
    clb: SlotClass,
    io: SlotClass,
    locs: Vec<Loc>,
    /// Each block's slot index within its class.
    slot_of: Vec<u32>,
    /// `bbox_cost` of every net under the committed `locs`.
    net_cost: Vec<f64>,
    /// Terminal counts of every net with more than
    /// [`COUNTED_NET_TERMINALS`] terminals, under the committed `locs`.
    counts: Vec<Option<NetCounts>>,
    /// Nets affected by the pending move (sorted, deduplicated) and
    /// their after-move costs.
    affected: Vec<u32>,
    after: Vec<f64>,
    /// The pending move's counted nets: net, the moved terminal's old
    /// and new location, and the net's new box.
    moved: Vec<(u32, Loc, Loc, BBox)>,
}

impl Annealer {
    /// Split `design`'s blocks into classes over `dev`'s slots and place
    /// them round-robin: the i-th block of each class in the i-th slot.
    fn for_design(design: &PackedDesign, dev: &Device) -> Result<Annealer, String> {
        let n_blocks = design.blocks.len();
        let clb_slots: Vec<Loc> =
            dev.clb_tiles().map(|(x, y)| Loc { x: x as u16, y: y as u16, sub: 0 }).collect();
        let io_slots: Vec<Loc> = dev
            .io_tiles()
            .flat_map(|(x, y)| {
                (0..dev.spec.io_capacity).map(move |s| Loc {
                    x: x as u16,
                    y: y as u16,
                    sub: s as u16,
                })
            })
            .collect();

        let clb_blocks: Vec<usize> =
            (0..n_blocks).filter(|&b| matches!(design.blocks[b], Block::Clb(_))).collect();
        let pad_blocks: Vec<usize> =
            (0..n_blocks).filter(|&b| !matches!(design.blocks[b], Block::Clb(_))).collect();
        if clb_blocks.len() > clb_slots.len() {
            return Err(format!(
                "design needs {} CLBs but device has {}",
                clb_blocks.len(),
                clb_slots.len()
            ));
        }
        if pad_blocks.len() > io_slots.len() {
            return Err(format!(
                "design needs {} pads but device has {}",
                pad_blocks.len(),
                io_slots.len()
            ));
        }

        // Net geometries.
        let nets: Vec<NetGeometry> = design
            .nets
            .iter()
            .map(|n| {
                let mut terminals: Vec<u32> = n.sources.iter().map(|s| s.block as u32).collect();
                for &s in &n.sinks {
                    terminals.push(s as u32);
                }
                terminals.sort_unstable();
                terminals.dedup();
                let weight = crossing_factor(terminals.len());
                NetGeometry { terminals, weight }
            })
            .collect();
        let mut nets_of_block: Vec<Vec<u32>> = vec![Vec::new(); n_blocks];
        for (ni, n) in nets.iter().enumerate() {
            for &t in &n.terminals {
                nets_of_block[t as usize].push(ni as u32);
            }
        }

        let class = |blocks: Vec<usize>, slots: Vec<Loc>| SlotClass {
            occupant: vec![FREE; slots.len()],
            blocks,
            slots,
        };
        let mut st = Annealer {
            nets,
            nets_of_block,
            clb: class(clb_blocks, clb_slots),
            io: class(pad_blocks, io_slots),
            locs: vec![Loc { x: 0, y: 0, sub: 0 }; n_blocks],
            slot_of: vec![0; n_blocks],
            net_cost: Vec::new(),
            counts: Vec::new(),
            affected: Vec::new(),
            after: Vec::new(),
            moved: Vec::new(),
        };
        for class in [&mut st.clb, &mut st.io] {
            for (i, &b) in class.blocks.iter().enumerate() {
                st.locs[b] = class.slots[i];
                st.slot_of[b] = i as u32;
                class.occupant[i] = b as u32;
            }
        }
        st.net_cost = st.nets.iter().map(|n| bbox_cost(n, &st.locs)).collect();
        st.counts = st
            .nets
            .iter()
            .map(|n| {
                (n.terminals.len() > COUNTED_NET_TERMINALS)
                    .then(|| NetCounts::new(&n.terminals, &st.locs, dev.width, dev.height))
            })
            .collect();
        Ok(st)
    }

    /// Total cost of the current `locs`, recomputed from scratch.
    fn total_cost(&self) -> f64 {
        self.nets.iter().map(|n| bbox_cost(n, &self.locs)).sum()
    }

    /// Draw a random move — a block and a slot of its class within the
    /// range limit — apply it to `locs` and price it. `None` when the
    /// draw is out of range or a no-op.
    fn propose(&mut self, rng: &mut StdRng, range: f64) -> Option<Move> {
        let use_clb =
            !self.clb.blocks.is_empty() && (self.io.blocks.is_empty() || rng.gen::<f64>() < 0.8);
        let class = if use_clb { &self.clb } else { &self.io };
        if class.blocks.is_empty() {
            return None;
        }
        let a = class.blocks[rng.gen_range(0..class.blocks.len())];
        let la = self.locs[a];
        let to = rng.gen_range(0..class.slots.len());
        let slot = class.slots[to];
        let dist = (slot.x as f64 - la.x as f64).abs() + (slot.y as f64 - la.y as f64).abs();
        if dist > range || slot == la {
            return None;
        }
        let b = match class.occupant[to] {
            FREE => None,
            b => Some(b as usize),
        };
        self.locs[a] = slot;
        if let Some(b) = b {
            self.locs[b] = la;
        }
        // Merge the two blocks' ascending net lists, pricing each net's
        // after-state. A net holding both swapped blocks keeps the same
        // set of terminal positions, so its bounding box and cost are
        // unchanged; any other net has exactly one terminal moved.
        self.affected.clear();
        self.after.clear();
        self.moved.clear();
        let of_a = &self.nets_of_block[a];
        let of_b: &[u32] = b.map_or(&[], |b| &self.nets_of_block[b]);
        let (mut i, mut j) = (0, 0);
        loop {
            let x = of_a.get(i).copied().unwrap_or(u32::MAX);
            let y = of_b.get(j).copied().unwrap_or(u32::MAX);
            let (ni, moved) = if x == y {
                if x == u32::MAX {
                    break;
                }
                (i, j) = (i + 1, j + 1);
                (x, None)
            } else if x < y {
                i += 1;
                (x, Some((la, slot)))
            } else {
                j += 1;
                (y, Some((slot, la)))
            };
            let net = ni as usize;
            let cost = match (moved, &self.counts[net]) {
                (None, _) => self.net_cost[net],
                (Some((from, to)), Some(counts)) => {
                    let bbox = counts.moved_box(from, to);
                    self.moved.push((ni, from, to, bbox));
                    bbox.cost(self.nets[net].weight)
                }
                (Some(_), None) => bbox_cost(&self.nets[net], &self.locs),
            };
            self.affected.push(ni);
            self.after.push(cost);
        }
        let before: f64 = self.affected.iter().map(|&ni| self.net_cost[ni as usize]).sum();
        let after: f64 = self.after.iter().sum();
        Some(Move { clb: use_clb, a, to: to as u32, b, delta: after - before })
    }

    /// Keep the pending move `mv`.
    fn commit(&mut self, mv: &Move) {
        let class = if mv.clb { &mut self.clb } else { &mut self.io };
        let from = self.slot_of[mv.a];
        self.slot_of[mv.a] = mv.to;
        class.occupant[mv.to as usize] = mv.a as u32;
        class.occupant[from as usize] = match mv.b {
            Some(b) => {
                self.slot_of[b] = from;
                b as u32
            }
            None => FREE,
        };
        for (&ni, &c) in self.affected.iter().zip(&self.after) {
            self.net_cost[ni as usize] = c;
        }
        for &(ni, from, to, bbox) in &self.moved {
            if let Some(counts) = &mut self.counts[ni as usize] {
                counts.apply(from, to, bbox);
            }
        }
    }

    /// Undo the pending move `mv`.
    fn revert(&mut self, mv: &Move) {
        let class = if mv.clb { &self.clb } else { &self.io };
        if let Some(b) = mv.b {
            self.locs[b] = class.slots[mv.to as usize];
        }
        self.locs[mv.a] = class.slots[self.slot_of[mv.a] as usize];
    }
}

/// Run simulated-annealing placement.
pub fn place(design: &PackedDesign, dev: &Device, cfg: &PlaceConfig) -> Result<Placement, String> {
    let mut st = Annealer::for_design(design, dev)?;
    let n_blocks = st.locs.len();
    let n_nets = st.nets.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cost: f64 = st.net_cost.iter().sum();
    if n_blocks == 0 || n_nets == 0 {
        return Ok(Placement { locs: st.locs, cost, moves: 0 });
    }

    // Move generator: pick a random block; swap with a random slot of its
    // class (occupied -> swap, free -> move) within the range limit.
    let grid_span = dev.width.max(dev.height) as f64;
    let mut range = grid_span;
    let moves_per_temp = ((cfg.effort * 10.0) * (n_blocks.max(8) as f64).powf(4.0 / 3.0)) as usize;

    // Initial temperature: std-dev of random move deltas (VPR).
    let mut deltas: Vec<f64> = Vec::new();
    for _ in 0..(n_blocks.max(16)) {
        if let Some(mv) = st.propose(&mut rng, range) {
            st.revert(&mv);
            deltas.push(mv.delta);
        }
    }
    let mut t = if deltas.is_empty() {
        1.0
    } else {
        let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
        (20.0 * var.sqrt()).max(1.0)
    };

    let exit_t = 0.005 * cost.max(1.0) / (n_nets.max(1) as f64);
    let mut total_moves = 0usize;
    while t > exit_t {
        let mut accepted = 0usize;
        let mut attempted = 0usize;
        for _ in 0..moves_per_temp {
            let Some(mv) = st.propose(&mut rng, range) else {
                continue;
            };
            attempted += 1;
            total_moves += 1;
            let accept = mv.delta <= 0.0 || rng.gen::<f64>() < (-mv.delta / t).exp();
            if accept {
                cost += mv.delta;
                accepted += 1;
                st.commit(&mv);
            } else {
                st.revert(&mv);
            }
        }
        let alpha = if attempted == 0 {
            0.5
        } else {
            let r = accepted as f64 / attempted as f64;
            // VPR's adaptive schedule.
            if r > 0.96 {
                0.5
            } else if r > 0.8 {
                0.9
            } else if r > 0.15 {
                0.95
            } else {
                0.8
            }
        };
        // Shrink the range limit toward keeping acceptance near 0.44.
        let r = if attempted == 0 { 0.0 } else { accepted as f64 / attempted as f64 };
        range = (range * (1.0 - 0.44 + r)).clamp(1.0, grid_span);
        t *= alpha;
    }

    // Recompute exactly to cancel floating-point drift accumulated by
    // the incremental updates (and sanity-check the bookkeeping).
    let exact = st.total_cost();
    debug_assert!(
        (exact - cost).abs() <= 1e-6 * exact.abs().max(1.0),
        "incremental cost drifted: {cost} vs {exact}"
    );
    Ok(Placement { locs: st.locs, cost: exact, moves: total_moves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{PRNet, SourceRef};
    use pfdbg_arch::{ArchSpec, TileKind};
    use proptest::prelude::*;

    /// A synthetic packed design: `n` CLBs in a chain plus 2 pads.
    fn chain_design(n: usize) -> PackedDesign {
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..n {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        blocks.push(Block::InPad("in".into()));
        blocks.push(Block::OutPad("out".into()));
        let mut nets = Vec::new();
        // in -> clb0 -> clb1 -> ... -> out
        nets.push(PRNet {
            name: "n_in".into(),
            sources: vec![SourceRef { block: n, ble: 0 }],
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![0],
            tunable: false,
        });
        for i in 0..n - 1 {
            nets.push(PRNet {
                name: format!("n{i}"),
                sources: vec![SourceRef { block: i, ble: 0 }],
                source_nodes: vec![],
                driver: pfdbg_netlist::NodeId(0),
                sinks: vec![i + 1],
                tunable: false,
            });
        }
        nets.push(PRNet {
            name: "n_out".into(),
            sources: vec![SourceRef { block: n - 1, ble: 0 }],
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![n + 1],
            tunable: false,
        });
        PackedDesign { blocks, clusters, nets, n_tcons: 0 }
    }

    #[test]
    fn placement_is_legal() {
        let d = chain_design(12);
        let dev = Device::new(ArchSpec::default(), 5, 5);
        let p = place(&d, &dev, &PlaceConfig::default()).unwrap();
        assert_eq!(p.locs.len(), d.blocks.len());
        // CLBs on CLB tiles, pads on IO tiles; no slot double-booked.
        let mut used = std::collections::HashSet::new();
        for (b, loc) in p.locs.iter().enumerate() {
            assert!(used.insert(*loc), "slot {loc:?} double-booked");
            match d.blocks[b] {
                Block::Clb(_) => {
                    assert_eq!(dev.tile(loc.x as usize, loc.y as usize), TileKind::Clb)
                }
                _ => assert_eq!(dev.tile(loc.x as usize, loc.y as usize), TileKind::Io),
            }
        }
    }

    #[test]
    fn annealing_beats_initial_assignment() {
        let d = chain_design(24);
        let dev = Device::new(ArchSpec::default(), 6, 6);
        // Cost of the naive round-robin start: compute by placing with
        // zero effort... instead compare against a random-seed variance:
        let p1 = place(&d, &dev, &PlaceConfig { seed: 1, effort: 1.0 }).unwrap();
        // A chain of 24 blocks on a 6x6 grid: optimal is ~1 per hop. The
        // anneal should get within 3x of that.
        let hops = d.nets.len() as f64;
        assert!(p1.cost < hops * 3.0, "placement cost {} vs ideal ~{hops}", p1.cost);
        assert!(p1.moves > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = chain_design(10);
        let dev = Device::new(ArchSpec::default(), 4, 4);
        let a = place(&d, &dev, &PlaceConfig { seed: 7, effort: 0.5 }).unwrap();
        let b = place(&d, &dev, &PlaceConfig { seed: 7, effort: 0.5 }).unwrap();
        assert_eq!(a.locs, b.locs);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn rejects_oversubscribed_device() {
        let d = chain_design(30);
        let dev = Device::new(ArchSpec::default(), 2, 2); // 4 CLB slots
        assert!(place(&d, &dev, &PlaceConfig::default()).is_err());
    }

    #[test]
    fn tunable_net_sources_pull_together() {
        // One tunable net with 4 alternative sources and one sink: the
        // cost function must include all sources in the bbox, so the
        // anneal brings them near the sink.
        let mut blocks = Vec::new();
        let mut clusters = Vec::new();
        for i in 0..5 {
            blocks.push(Block::Clb(i));
            clusters.push(Default::default());
        }
        let nets = vec![PRNet {
            name: "tn".into(),
            sources: (0..4).map(|b| SourceRef { block: b, ble: 0 }).collect(),
            source_nodes: vec![],
            driver: pfdbg_netlist::NodeId(0),
            sinks: vec![4],
            tunable: true,
        }];
        let d = PackedDesign { blocks, clusters, nets, n_tcons: 3 };
        let dev = Device::new(ArchSpec::default(), 8, 8);
        let p = place(&d, &dev, &PlaceConfig::default()).unwrap();
        // Bounding box of all five blocks should be small.
        let xs: Vec<u16> = p.locs.iter().map(|l| l.x).collect();
        let ys: Vec<u16> = p.locs.iter().map(|l| l.y).collect();
        let bbox = (xs.iter().max().unwrap() - xs.iter().min().unwrap()) as f64
            + (ys.iter().max().unwrap() - ys.iter().min().unwrap()) as f64;
        assert!(bbox <= 6.0, "tunable net spread out: bbox {bbox}");
    }

    /// `n_clb` CLBs and `n_pads` pads joined by `n_nets` nets over random
    /// block subsets, so moves hit shared nets, swaps and free slots
    /// alike. Every fifth net, the first included, is wide: more than
    /// [`COUNTED_NET_TERMINALS`] distinct terminals, so it keeps
    /// [`NetCounts`] (the design needs more blocks than that).
    fn random_design(n_clb: usize, n_pads: usize, n_nets: usize, seed: u64) -> PackedDesign {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut blocks: Vec<Block> = (0..n_clb).map(Block::Clb).collect();
        blocks.extend((0..n_pads).map(|p| Block::OutPad(format!("o{p}"))));
        let n_blocks = blocks.len();
        assert!(n_blocks > COUNTED_NET_TERMINALS, "too few blocks for a counted net");
        let nets = (0..n_nets)
            .map(|i| {
                let sources = (0..rng.gen_range(1..3usize))
                    .map(|_| SourceRef { block: rng.gen_range(0..n_clb), ble: 0 })
                    .collect();
                let sinks = if i % 5 == 0 {
                    // A random subset of distinct blocks (partial
                    // Fisher-Yates).
                    let mut all: Vec<usize> = (0..n_blocks).collect();
                    let n = rng.gen_range(COUNTED_NET_TERMINALS + 1..=n_blocks);
                    for k in 0..n {
                        all.swap(k, rng.gen_range(k..n_blocks));
                    }
                    all.truncate(n);
                    all
                } else {
                    (0..rng.gen_range(1..=3)).map(|_| rng.gen_range(0..n_blocks)).collect()
                };
                PRNet {
                    name: format!("n{i}"),
                    sources,
                    source_nodes: vec![],
                    driver: pfdbg_netlist::NodeId(0),
                    sinks,
                    tunable: false,
                }
            })
            .collect();
        PackedDesign { blocks, clusters: vec![Default::default(); n_clb], nets, n_tcons: 0 }
    }

    /// The cache equals `bbox_cost` recomputed from scratch, bit for
    /// bit, every counted net's counts and box equal a fresh scan of its
    /// terminals, and the occupancy index and `slot_of` agree with
    /// `locs`.
    fn assert_bookkeeping(st: &Annealer) {
        for (ni, net) in st.nets.iter().enumerate() {
            assert_eq!(
                st.net_cost[ni].to_bits(),
                bbox_cost(net, &st.locs).to_bits(),
                "cached cost of net {ni} is stale"
            );
            let counted = net.terminals.len() > COUNTED_NET_TERMINALS;
            assert_eq!(st.counts[ni].is_some(), counted, "net {ni} counted");
            if let Some(c) = &st.counts[ni] {
                let fresh = NetCounts::new(&net.terminals, &st.locs, c.cols.len(), c.rows.len());
                assert_eq!(c, &fresh, "counts of net {ni} are stale");
            }
        }
        for class in [&st.clb, &st.io] {
            for (i, &slot) in class.slots.iter().enumerate() {
                let holder = class.blocks.iter().copied().find(|&b| st.locs[b] == slot);
                assert_eq!(class.occupant[i], holder.map_or(FREE, |b| b as u32), "slot {i}");
            }
            for &b in &class.blocks {
                assert_eq!(class.slots[st.slot_of[b] as usize], st.locs[b], "block {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn cached_costs_and_occupancy_track_random_moves(
            n_clb in 17usize..24,
            n_pads in 0usize..16,
            n_nets in 1usize..30,
            seed in any::<u64>(),
        ) {
            let d = random_design(n_clb, n_pads, n_nets, seed);
            let dev = Device::new(ArchSpec::default(), 5, 5);
            let mut st = Annealer::for_design(&d, &dev).unwrap();
            assert_bookkeeping(&st);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..200 {
                let committed = st.locs.clone();
                let total_before = st.total_cost();
                let range = rng.gen_range(1.0..7.0);
                let Some(mv) = st.propose(&mut rng, range) else {
                    prop_assert_eq!(&st.locs, &committed);
                    continue;
                };
                let total_after = st.total_cost();
                prop_assert!(
                    (total_after - total_before - mv.delta).abs() <= 1e-9 * total_after.max(1.0),
                    "delta {} vs recomputed {}",
                    mv.delta,
                    total_after - total_before
                );
                if rng.gen_bool(0.5) {
                    st.commit(&mv);
                } else {
                    st.revert(&mv);
                    prop_assert_eq!(&st.locs, &committed);
                }
                assert_bookkeeping(&st);
            }
        }
    }
}
