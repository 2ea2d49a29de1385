//! What every workload sets up: the design, its instrumentation at the
//! paper's settings, and the offline flow — plus the per-stage split of
//! that flow, read from the spans it already emits.

use pfdbg_core::{
    offline, prepare_instrumented, InstrumentConfig, Instrumented, OfflineConfig, OfflineResult,
    PAPER_K,
};
use pfdbg_obs::SpanRecord;
use pfdbg_util::stats::median;
use std::time::Instant;

/// The instrumented design and how long instrumenting took.
pub fn instrument(design: &str) -> Result<(Instrumented, f64), String> {
    let nw = pfdbg_circuits::build(design).ok_or_else(|| format!("unknown design {design}"))?;
    let t0 = Instant::now();
    let (_, _, inst) = prepare_instrumented(&nw, &InstrumentConfig::paper(), PAPER_K)?;
    Ok((inst, t0.elapsed().as_secs_f64() * 1e3))
}

/// The paper's offline generic stage at the host's default thread
/// policy.
pub fn compile(inst: &Instrumented) -> Result<OfflineResult, String> {
    offline(inst, &OfflineConfig { k: PAPER_K, ..OfflineConfig::default() })
}

/// One from-source build of the compiled design.
pub struct Built {
    pub inst: Instrumented,
    pub off: OfflineResult,
    /// Wall time of the whole build (design, instrumentation, offline).
    pub seconds: f64,
    /// Wall time of the offline flow alone.
    pub offline_s: f64,
    pub instrument_ms: f64,
}

pub fn build(design: &str) -> Result<Built, String> {
    let t0 = Instant::now();
    let (inst, instrument_ms) = instrument(design)?;
    let t1 = Instant::now();
    let off = compile(&inst)?;
    let offline_s = t1.elapsed().as_secs_f64();
    Ok(Built { inst, off, seconds: t0.elapsed().as_secs_f64(), offline_s, instrument_ms })
}

/// Per-layer offline stages, named by the spans the flow emits.
pub const STAGES: [(&str, &[&str]); 5] = [
    ("map.tconmap_ms", &["offline.tconmap"]),
    ("pr.pack_ms", &["tpar.pack"]),
    ("pr.place_ms", &["tpar.place"]),
    ("pr.route_ms", &["tpar.route"]),
    (
        "pconf.genbits_ms",
        &["offline.layout", "offline.lut_bits", "offline.switch_bits", "offline.build_gbs"],
    ),
];

/// Per traced offline run — one per root `offline` span, in order —
/// the milliseconds of each stage in [`STAGES`] plus `offline_ms`.
pub fn stage_ms(spans: &[SpanRecord]) -> Vec<Vec<(&'static str, f64)>> {
    let mut runs: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for s in spans {
        let ms = s.dur.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        if s.name == "offline" && s.parent.is_none() {
            let mut run: Vec<(&'static str, f64)> = STAGES.iter().map(|(n, _)| (*n, 0.0)).collect();
            run.push(("offline_ms", ms));
            runs.push(run);
        } else if let Some(run) = runs.last_mut() {
            if let Some(i) = STAGES.iter().position(|(_, names)| names.contains(&s.name.as_str())) {
                run[i].1 += ms;
            }
        }
    }
    runs
}

/// Median over runs of one stage of [`stage_ms`].
pub fn stage_median(runs: &[Vec<(&'static str, f64)>], stage: &str) -> f64 {
    let xs: Vec<f64> =
        runs.iter().filter_map(|r| r.iter().find(|(n, _)| *n == stage).map(|(_, v)| *v)).collect();
    median(&xs).unwrap_or(f64::NAN)
}

/// Offline time the stage spans do not cover — the compile's own
/// reconciliation residual — as the median over runs.
pub fn unattributed_ms(runs: &[Vec<(&'static str, f64)>]) -> f64 {
    let residuals: Vec<f64> = runs
        .iter()
        .map(|run| {
            let (staged, total) = run.split_at(STAGES.len());
            total[0].1 - staged.iter().map(|(_, ms)| ms).sum::<f64>()
        })
        .collect();
    median(&residuals).unwrap_or(f64::NAN)
}
