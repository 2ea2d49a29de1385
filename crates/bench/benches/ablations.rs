//! Ablation benches for the design decisions called out in DESIGN.md:
//!
//! * **D2 route sharing** — tunable-net alternatives sharing wires vs
//!   exploded into exclusive nets,
//! * **D3 PConf representation** — BDD evaluation vs a naive
//!   re-simulation of each parameterized bit's mux tree,
//! * **D4 DPR granularity** — frame-diff partial reconfiguration vs a
//!   full-stream rewrite,
//! * **D5 priority-cut budget** — cut-list length vs mapping time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfdbg_arch::{build_rrg, ArchSpec, BitstreamLayout, Device};
use pfdbg_circuits::{generate, GenParams};
use pfdbg_core::{prepare_instrumented, InstrumentConfig, PAPER_K};
use pfdbg_map::cuts::{enumerate, CutConfig};
use pfdbg_map::map_parameterized_network;
use pfdbg_pconf::{BddManager, GeneralizedBuilder, Scg, SpecializeScratch};
use pfdbg_pr::{pack, place, route, PRNet, PackConfig, PlaceConfig, RouteConfig};
use pfdbg_synth::synthesize;
use pfdbg_util::BitVec;

fn small_design() -> pfdbg_netlist::Network {
    generate(&GenParams {
        n_inputs: 12,
        n_outputs: 8,
        n_gates: 80,
        depth: 6,
        n_latches: 4,
        seed: 31,
    })
}

/// D2: sharing on (tunable nets as-is) vs off (one exclusive net per
/// alternative source). Reports routing effort via the router call.
fn bench_route_sharing(c: &mut Criterion) {
    let design = small_design();
    let (_, _, inst) = prepare_instrumented(
        &design,
        &InstrumentConfig { n_ports: 2, max_signals: None, coverage: 1 },
        PAPER_K,
    )
    .expect("prepare");
    let mp = map_parameterized_network(&inst.network, PAPER_K).expect("tconmap");
    let pcfg = PackConfig { n_ble: 4, clb_inputs: 15 };
    let packed = pack(&mp.network, &mp.kinds, pcfg).expect("pack");

    // Exploded variant: each alternative becomes its own exclusive net.
    let mut exploded = packed.clone();
    let mut new_nets: Vec<PRNet> = Vec::new();
    for net in &exploded.nets {
        if net.tunable && net.sources.len() > 1 {
            for (i, (&src, &node)) in net.sources.iter().zip(&net.source_nodes).enumerate() {
                new_nets.push(PRNet {
                    name: format!("{}#{i}", net.name),
                    sources: vec![src],
                    source_nodes: vec![node],
                    driver: net.driver,
                    sinks: net.sinks.clone(),
                    tunable: false,
                });
            }
        } else {
            new_nets.push(net.clone());
        }
    }
    exploded.nets = new_nets;

    // A generous device so both variants route.
    let spec = ArchSpec { channel_width: 48, ..Default::default() };
    let dev = Device::auto_size(spec, packed.n_clbs().max(1), packed.n_pads(), 0.5);
    let rrg = build_rrg(&dev);
    let placement = place(&packed, &dev, &PlaceConfig::default()).expect("place");
    let placement2 = place(&exploded, &dev, &PlaceConfig::default()).expect("place");

    let mut g = c.benchmark_group("route_sharing");
    g.sample_size(10);
    g.bench_function("shared_tunable_nets", |b| {
        b.iter(|| {
            route(&packed, &placement, &dev, &rrg, &RouteConfig::default())
                .expect("route")
                .wires_used
        })
    });
    g.bench_function("exploded_exclusive_nets", |b| {
        b.iter(|| {
            route(&exploded, &placement2, &dev, &rrg, &RouteConfig::default())
                .expect("route")
                .wires_used
        })
    });
    g.finish();
}

/// D3: BDD-backed specialization vs naively re-deriving every bit by
/// enumerating its support assignment (what a tool without hash-consed
/// parameter functions would do).
fn bench_pconf_repr(c: &mut Criterion) {
    let dev = Device::new(ArchSpec { channel_width: 16, ..Default::default() }, 5, 5);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    let n_params = 20usize;
    let mut m = BddManager::new();
    let mut b = GeneralizedBuilder::new(&layout, n_params);
    let bus: Vec<u32> = (0..n_params as u32).collect();
    let mut funcs = Vec::new();
    for i in 0..4000usize {
        let s = i % (n_params - 4);
        let f = m.minterm(&bus[s..s + 4], i % 16);
        funcs.push((i, s, i % 16));
        b.set_func(&m, i, f);
    }
    let scg = Scg::new(m, b.build().expect("build"));
    let params: BitVec = (0..n_params).map(|i| i % 3 == 0).collect();

    let mut g = c.benchmark_group("pconf_repr");
    g.bench_function("bdd_eval", |b| b.iter(|| scg.try_specialize(&params).unwrap()));
    g.bench_function("naive_reencode", |b| {
        // The naive path: recompute each bit by decoding its select slice
        // from scratch (integer compare per bit — cheap here, but scales
        // with function complexity instead of BDD depth).
        b.iter(|| {
            let mut out = 0usize;
            for &(_, s, want) in &funcs {
                let mut v = 0usize;
                for j in 0..4 {
                    if params.get(s + j) {
                        v |= 1 << j;
                    }
                }
                out += usize::from(v == want);
            }
            out
        })
    });
    g.finish();
}

/// D4: partial (frame-diff) vs full-stream rewrite per turn.
fn bench_dpr_diff(c: &mut Criterion) {
    let dev = Device::new(ArchSpec { channel_width: 16, ..Default::default() }, 6, 6);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    let mut m = BddManager::new();
    let mut b = GeneralizedBuilder::new(&layout, 16);
    let bus: Vec<u32> = (0..16).collect();
    for i in 0..8000usize {
        let f = m.minterm(&bus[i % 12..i % 12 + 4], i % 16);
        b.set_func(&m, i, f);
    }
    let scg = Scg::new(m, b.build().expect("build"));
    let p0: BitVec = BitVec::zeros(16);
    let p1: BitVec = (0..16).map(|i| i == 3).collect();
    let base = scg.try_specialize(&p0).unwrap();
    let mut scratch = SpecializeScratch::new();

    let mut g = c.benchmark_group("dpr");
    g.bench_function("diff_changed_bits_only", |b| {
        b.iter(|| scg.specialize_diff_from_batch(&p0, &p1, &mut scratch).unwrap().len())
    });
    g.bench_function("full_bitstream_rebuild", |b| {
        b.iter(|| {
            let next = scg.try_specialize(&p1).unwrap();
            next.diff_frames(&base, &layout).len()
        })
    });
    g.finish();
}

/// D5: priority-cut list length — enumeration cost vs quality knob.
fn bench_cut_budget(c: &mut Criterion) {
    let design = generate(&GenParams {
        n_inputs: 16,
        n_outputs: 8,
        n_gates: 600,
        depth: 10,
        n_latches: 0,
        seed: 8,
    });
    let aig = synthesize(&design).expect("synthesis");
    let mut g = c.benchmark_group("priority_cuts_budget");
    for &budget in &[2usize, 8, 20] {
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            b.iter(|| {
                let cfg = CutConfig { k: 6, priority: budget, ..Default::default() };
                enumerate(&aig, &cfg).best_depth.values().copied().max()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_route_sharing, bench_pconf_repr, bench_dpr_diff, bench_cut_budget);
criterion_main!(benches);
