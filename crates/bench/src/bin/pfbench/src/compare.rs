//! `pfbench compare BASE HEAD`: the parent-versus-change rule of the
//! choosing-metrics guide (§8), with each metric's regression bound
//! taken from `BENCHMARK.json`.
//!
//! Per workload and end-to-end metric it prints both sides' median and
//! quartiles and the pair win-rate (run i of HEAD against run i of BASE,
//! ties counting for neither), then a verdict:
//!
//! * **improved** — HEAD wins at least 9 pairs in 10 and the medians
//!   differ by more than BASE's own quartile spread;
//! * **regressed** — HEAD's median is worse by more than the bound;
//! * **unresolved** — BASE's spread is wider than the bound and HEAD does
//!   not beat every BASE run;
//! * **unchanged** — otherwise.

use crate::json::Json;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench_json: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", bench_json.display()))?;
    doc.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("entry without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("entry without bound")?;
            Ok(Declared { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// Untraced result records of a results file, in file order.
fn records(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if rec.get("traced") == Some(&Json::Bool(false)) {
            out.push(rec);
        }
    }
    Ok(out)
}

fn value(rec: &Json, metric: &str) -> Option<f64> {
    rec.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Median as Python's `statistics.median` computes it.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(xs,
/// n=4)` computes them (the "exclusive" method).
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn compare(base: &Path, head: &Path, bench_json: &Path) -> Result<(String, bool), String> {
    let metrics = declared(bench_json)?;
    let (base, head) = (records(base)?, records(head)?);
    let mut workloads: Vec<&str> = Vec::new();
    for rec in base.iter().chain(&head) {
        if let Some(w) = rec.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    let mut report = format!(
        "{:<13} {:<19} {:>26} {:>26} {:>8} {:>5} {:>6}  verdict\n",
        "workload",
        "metric",
        "base median [q1, q3]",
        "head median [q1, q3]",
        "gain",
        "wins",
        "bound"
    );
    let mut regressed = false;
    for w in workloads {
        let side = |recs: &[Json], m: &str| -> Vec<f64> {
            recs.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                .filter_map(|r| value(r, m))
                .collect()
        };
        for d in &metrics {
            let (b, h) = (side(&base, &d.name), side(&head, &d.name));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let better = |x: f64, y: f64| if d.lower_is_better { x < y } else { x > y };
            let pairs = b.len().min(h.len());
            let wins = (0..pairs).filter(|&i| better(h[i], b[i])).count();
            let (bs, hs) = (sorted(&b), sorted(&h));
            let (bm, hm) = (median(&bs), median(&hs));
            let ((bq1, bq3), (hq1, hq3)) = (quartiles(&bs), quartiles(&hs));
            let worse_by = if d.lower_is_better { (hm - bm) / bm } else { (bm - hm) / bm };
            let spread = (bq3 - bq1) / bm.abs();
            let all_better = better(hs[0], bs[bs.len() - 1]) && better(hs[hs.len() - 1], bs[0]);
            let verdict = if wins * 10 >= pairs * 9 && (hm - bm).abs() > bq3 - bq1 && worse_by < 0.0
            {
                "improved"
            } else if spread > d.bound && !all_better {
                "unresolved"
            } else if worse_by > d.bound {
                regressed = true;
                "regressed"
            } else {
                "unchanged"
            };
            report.push_str(&format!(
                "{w:<13} {:<19} {:>26} {:>26} {:>+7.2}% {:>5} {:>5.0}%  {verdict}\n",
                d.name,
                format!("{bm:.4} [{bq1:.4}, {bq3:.4}]"),
                format!("{hm:.4} [{hq1:.4}, {hq3:.4}]"),
                // `+ 0.0` prints an unchanged metric as +0.00%, not -0.00%.
                -100.0 * worse_by + 0.0,
                format!("{wins}/{pairs}"),
                100.0 * d.bound,
            ));
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
