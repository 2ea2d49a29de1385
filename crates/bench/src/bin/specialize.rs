//! Micro-benchmark for the **per-turn specialization budget** (§V.C.2):
//! the paper's online debug turn must produce the specialized
//! configuration in ≤ 50 µs of pure evaluation — the time to compute
//! every tunable bit and write it into configuration memory, excluding
//! output-bitstream allocation (which the online reconfigurator
//! amortizes away entirely after warmup).
//!
//! Two evaluators run over the same deterministic parameter sequence:
//!
//! * **serial** — the reference, `Scg::try_specialize`: one top-down
//!   BDD walk per tunable function. Its time is the whole call, so it
//!   includes cloning the base bitstream (about 21.6 KB on diffeq1);
//! * **batch** — the memoized path every turn runs: one linear sweep of
//!   the SCG's BDD node table evaluates every node exactly once, then
//!   the packed tunable words are read out of the per-node values. Its
//!   time is pure evaluation, `SpecializeTiming::eval`.
//!
//! Three scales: synthetic SCGs with 1k and 10k tunable bits (`t1k`,
//! `t10k`), and diffeq1 at paper instrumentation through the offline
//! flow (`d1`), the design the repository benchmark serves. Both
//! evaluators must be bit-identical turn by turn (asserted here, gated
//! in `check.sh`); the JSON reports each scale's SCG node count and
//! p50/p99 microseconds per turn of each, plus a provenance block.
//!
//! ```text
//! specialize [--turns N] [--out f.json]
//! ```

use pfdbg_arch::{build_rrg, ArchSpec, BitstreamLayout, Device};
use pfdbg_core::{prepare_instrumented, CompiledDesign, InstrumentConfig, OfflineConfig, PAPER_K};
use pfdbg_obs::jsonl::JsonValue;
use pfdbg_pconf::{BddManager, GeneralizedBuilder, Scg, SpecializeScratch};
use pfdbg_util::stats::percentile;
use pfdbg_util::table::Table;
use pfdbg_util::BitVec;
use std::time::Instant;

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1).cloned())
}

fn flag_usize(rest: &[String], name: &str, default: usize) -> usize {
    flag(rest, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} expects a number, got {v:?}"))
    })
}

/// Parameter count of the synthetic SCGs — the paper's debug turns
/// flip a handful of breakpoint/trace-select parameters, so the
/// parameter space stays small while the tunable fabric scales.
const N_PARAMS: usize = 32;

/// A synthetic SCG with `n_tunables` tunable configuration bits, each
/// a three-variable function over the shared parameter set (deep
/// enough that the per-function walk does real node-visiting work).
fn build_scg(n_tunables: usize) -> Scg {
    let mut side = 4;
    loop {
        let dev = Device::new(ArchSpec { channel_width: 8, ..Default::default() }, side, side);
        let rrg = build_rrg(&dev);
        let layout = BitstreamLayout::new(&dev, &rrg, 1312);
        if layout.empty_bitstream().len() < n_tunables {
            side += 2;
            continue;
        }
        let mut m = BddManager::new();
        let mut b = GeneralizedBuilder::new(&layout, N_PARAMS);
        for i in 0..n_tunables {
            let v1 = m.var((i % N_PARAMS) as u32);
            let v2 = m.var(((i * 7 + 3) % N_PARAMS) as u32);
            let v3 = m.var(((i * 13 + 5) % N_PARAMS) as u32);
            let pair = if i % 3 == 0 { m.and(v1, v2) } else { m.or(v1, v2) };
            let f = if i % 2 == 0 { m.and(pair, v3) } else { m.or(pair, v3) };
            b.set_func(&m, i, f);
        }
        return Scg::new(m, b.build().expect("synthetic gbs"));
    }
}

/// The SCG the offline flow builds for diffeq1 at paper
/// instrumentation.
fn diffeq1_scg() -> Scg {
    eprintln!("specialize: building diffeq1 through the offline flow...");
    let design = pfdbg_circuits::build("diffeq1").expect("suite member");
    let (_, _, inst) =
        prepare_instrumented(&design, &InstrumentConfig::paper(), PAPER_K).expect("instrument");
    let cfg = OfflineConfig { k: PAPER_K, ..Default::default() };
    CompiledDesign::compile(inst, &cfg).expect("offline flow").scg
}

/// Builds the SCG of one benchmark scale.
type ScaleBuilder = fn() -> Scg;

/// xorshift64 — a fixed-seed deterministic parameter stream, so every
/// run (and both evaluators within a run) sees the same turns.
fn next_rand(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// `n` parameter bits, one xorshift draw per 64.
fn rand_params(seed: &mut u64, n: usize) -> BitVec {
    let mut w = 0;
    (0..n)
        .map(|i| {
            if i % 64 == 0 {
                w = next_rand(seed);
            }
            (w >> (i % 64)) & 1 == 1
        })
        .collect()
}

struct ScaleResult {
    serial_us: Vec<f64>,
    batch_us: Vec<f64>,
    identical: bool,
}

/// Run `turns` turns of both evaluators over one SCG, recording the
/// time of each and checking bit-identity every turn.
fn bench_scale(scg: &Scg, turns: usize) -> ScaleResult {
    let n_params = scg.generalized().n_params;
    let mut scratch = SpecializeScratch::new();
    let mut seed = 0x9e3779b97f4a7c15u64;
    // Warmup: page in the node table and size every scratch buffer.
    for _ in 0..8 {
        let p = rand_params(&mut seed, n_params);
        let _ = scg.try_specialize(&p);
        let _ = scg.specialize_timed_batch(&p, &mut scratch);
    }
    let mut serial_us = Vec::with_capacity(turns);
    let mut batch_us = Vec::with_capacity(turns);
    let mut identical = true;
    for _ in 0..turns {
        let p = rand_params(&mut seed, n_params);
        let t0 = Instant::now();
        let bits_s = scg.try_specialize(&p).expect("parameter count matches");
        serial_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let (bits_b, tb) = scg.specialize_timed_batch(&p, &mut scratch);
        batch_us.push(tb.eval.as_secs_f64() * 1e6);
        identical &= bits_s == bits_b;
    }
    ScaleResult { serial_us, batch_us, identical }
}

fn main() {
    let obs = pfdbg_bench::obs_init();
    let rest = obs.rest().to_vec();
    let turns = flag_usize(&rest, "--turns", 1024).max(1);
    let out = flag(&rest, "--out").unwrap_or_else(|| "BENCH_specialize.json".into());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut fields: Vec<(String, JsonValue)> = vec![
        ("bench".into(), JsonValue::Str("specialize".into())),
        ("turns".into(), JsonValue::Num(turns as f64)),
        ("n_params".into(), JsonValue::Num(N_PARAMS as f64)),
        ("host_threads".into(), JsonValue::Num(host_threads as f64)),
    ];
    let scales: [(&str, ScaleBuilder); 3] =
        [("t1k", || build_scg(1_000)), ("t10k", || build_scg(10_000)), ("d1", diffeq1_scg)];
    let mut t = Table::new(["scale", "SCG nodes", "path", "p50 µs", "p99 µs", "bit-identical"]);
    let mut all_identical = true;
    for (tag, build) in scales {
        let scg = build();
        let n_tunables = scg.generalized().n_tunable();
        let nodes = scg.manager().n_nodes();
        eprintln!("specialize: {tag}: {n_tunables} tunable bits, {nodes} nodes, {turns} turns...");
        let r = bench_scale(&scg, turns);
        all_identical &= r.identical;
        let sp50 = percentile(&r.serial_us, 50.0).unwrap_or(f64::NAN);
        let sp99 = percentile(&r.serial_us, 99.0).unwrap_or(f64::NAN);
        let bp50 = percentile(&r.batch_us, 50.0).unwrap_or(f64::NAN);
        let bp99 = percentile(&r.batch_us, 99.0).unwrap_or(f64::NAN);
        let ok = if r.identical { "yes" } else { "NO" };
        let scale = format!("{tag} ({n_tunables} bits)");
        for (path, p50, p99) in [("serial", sp50, sp99), ("batch", bp50, bp99)] {
            t.row([
                scale.clone(),
                nodes.to_string(),
                path.into(),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
                ok.into(),
            ]);
        }
        fields.push((format!("{tag}_tunables"), JsonValue::Num(n_tunables as f64)));
        fields.push((format!("{tag}_nodes"), JsonValue::Num(nodes as f64)));
        fields.push((format!("{tag}_serial_p50_us"), JsonValue::Num(sp50)));
        fields.push((format!("{tag}_serial_p99_us"), JsonValue::Num(sp99)));
        fields.push((format!("{tag}_batch_p50_us"), JsonValue::Num(bp50)));
        fields.push((format!("{tag}_batch_p99_us"), JsonValue::Num(bp99)));
        fields.push((format!("{tag}_identical"), JsonValue::Num(f64::from(u8::from(r.identical)))));
    }
    println!("=== specialization pure-eval time per turn (paper budget: 50 µs) ===");
    print!("{}", t.render());
    if !all_identical {
        eprintln!("specialize: FAIL — batch output diverged from the reference (try_specialize)");
        std::process::exit(1);
    }

    let borrowed: Vec<(&str, JsonValue)> =
        fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let json = pfdbg_bench::with_provenance(&borrowed, host_threads);
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("{out}: {e}"));
    eprintln!("specialize: wrote {out}");
    obs.finish();
}
