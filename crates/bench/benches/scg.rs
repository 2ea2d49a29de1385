//! Criterion benches for the Specialized Configuration Generator — the
//! operation bounding every debugging turn (paper: ≤ 50 µs). Measures
//! full specialization and incremental (diff) specialization over
//! generalized bitstreams with increasing numbers of parameterized bits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pfdbg_arch::{build_rrg, ArchSpec, BitstreamLayout, Device};
use pfdbg_pconf::{BddManager, GeneralizedBuilder, Scg, SpecializeScratch};
use pfdbg_util::BitVec;

/// A synthetic generalized bitstream with `n_bits` parameterized bits
/// over `n_params` parameters (mux-select-minterm-shaped functions, as
/// the real flow produces).
fn synthetic_scg(n_bits: usize, n_params: usize) -> Scg {
    let dev = Device::new(ArchSpec { channel_width: 16, ..Default::default() }, 6, 6);
    let rrg = build_rrg(&dev);
    let layout = BitstreamLayout::new(&dev, &rrg, 1312);
    assert!(layout.n_bits >= n_bits, "device too small for the bit budget");
    let mut m = BddManager::new();
    let mut b = GeneralizedBuilder::new(&layout, n_params);
    let bus: Vec<u32> = (0..n_params as u32).collect();
    for i in 0..n_bits {
        // Each bit on when a 4-bit slice of the bus equals a value —
        // the shape tcon_conditions produces for mux trees.
        let s = i % (n_params - 3);
        let slice = &bus[s..s + 4];
        let f = m.minterm(slice, i % 16);
        b.set_func(&m, i, f);
    }
    Scg::new(m, b.build().expect("builder"))
}

fn bench_specialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("scg_specialize");
    for &n_bits in &[500usize, 5_000, 20_000] {
        let scg = synthetic_scg(n_bits, 24);
        let params: BitVec = (0..24).map(|i| i % 3 == 0).collect();
        g.throughput(Throughput::Elements(n_bits as u64));
        g.bench_with_input(BenchmarkId::new("full", n_bits), &scg, |b, scg| {
            b.iter(|| scg.try_specialize(&params).unwrap())
        });
        let zeros = BitVec::zeros(24);
        let mut scratch = SpecializeScratch::new();
        g.bench_with_input(BenchmarkId::new("diff", n_bits), &scg, |b, scg| {
            b.iter(|| scg.specialize_diff_from_batch(&zeros, &params, &mut scratch).unwrap().len())
        });
    }
    g.finish();
}

fn bench_bdd_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd");
    g.bench_function("minterm_16", |b| {
        b.iter_with_large_drop(|| {
            let mut m = BddManager::new();
            let bus: Vec<u32> = (0..16).collect();
            (0..256).map(|v| m.minterm(&bus, v)).collect::<Vec<_>>()
        })
    });
    // Evaluation walk: the per-bit cost of the online stage.
    let mut m = BddManager::new();
    let bus: Vec<u32> = (0..16).collect();
    let f = m.minterm(&bus, 0xA5A5 & 0xFFFF);
    let asg: BitVec = (0..16).map(|i| i % 2 == 0).collect();
    g.bench_function("eval_minterm_16", |b| b.iter(|| m.eval(f, &asg)));
    g.finish();
}

criterion_group!(benches, bench_specialize, bench_bdd_ops);
criterion_main!(benches);
