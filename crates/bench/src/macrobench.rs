//! Macro-benchmark: timed end-to-end simulator runs (`bench_macro` binary).
//!
//! Times whole scheduler runs (state construction plus the controller loop)
//! and records the perf trajectory in `BENCH_<rev>.json` files, one timing
//! block per panel entry next to the machine-independent work counters.
//!
//! Wall times are measured on whatever machine runs the benchmark, so the
//! JSON is a diagnostic artifact, not a deterministic export. The
//! `check_sim_s` section is a flat map the CI regression gate re-reads with
//! a trivial scanner (no JSON dependency, see [`parse_check_map`]).

use crate::runner::{PolicyKind, RunConfig};
use sd_policy::{MaxSlowdown, SdPolicy, SdPolicyConfig};
use slurm_sim::{Controller, SimResult, SimState, StaticBackfill};
use std::fmt::Write as _;
use std::time::Instant;
use workload::PaperWorkload;

/// One panel entry: a named, timed configuration.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable name used as the regression-gate key (`W3 sd ci`, …).
    pub name: String,
    pub workload: PaperWorkload,
    pub policy: PolicyKind,
    pub scale: f64,
    pub seed: u64,
}

/// Timing of one entry over `iters` repetitions, plus its work counters.
#[derive(Debug, Clone)]
pub struct Timing {
    pub sim_s_min: f64,
    pub sim_s_mean: f64,
    pub sched_passes: u64,
    pub passes_skipped: u64,
    pub events: u64,
    pub peak_profile_len: usize,
}

/// A fully measured panel entry.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub entry: BenchEntry,
    pub jobs: usize,
    pub makespan: u64,
    pub mean_slowdown: f64,
    pub malleable_started: u64,
    pub timing: Timing,
}

/// The standard panel: W3/W4 under SD-Policy and the static baseline at
/// CI scale; `full` adds the paper-scale W3 and W4 runs.
pub fn panel(full: bool) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    let mut push = |name: &str, w: PaperWorkload, policy: PolicyKind, scale: f64| {
        out.push(BenchEntry {
            name: name.to_string(),
            workload: w,
            policy,
            scale,
            seed: 42,
        });
    };
    let sd = PolicyKind::Sd(MaxSlowdown::DynAvg);
    let st = PolicyKind::StaticBackfill;
    let w3 = PaperWorkload::W3Ricc;
    let w4 = PaperWorkload::W4Curie;
    push("W3 sd ci", w3, sd, w3.default_ci_scale());
    push("W3 static ci", w3, st, w3.default_ci_scale());
    push("W4 sd ci", w4, sd, w4.default_ci_scale());
    push("W4 static ci", w4, st, w4.default_ci_scale());
    if full {
        push("W3 sd full", w3, sd, 1.0);
        push("W3 static full", w3, st, 1.0);
        push("W4 sd full", w4, sd, 1.0);
        push("W4 static full", w4, st, 1.0);
    }
    out
}

/// Runs the simulation once against a pre-generated trace; only state
/// construction and the controller loop are inside the timer, so the wall
/// time measures the scheduler hot path, not workload generation.
fn run_once(entry: &BenchEntry, trace: &swf::Trace) -> (f64, SimResult) {
    let cfg = RunConfig::new(entry.workload, entry.policy)
        .with_scale(entry.scale)
        .with_seed(entry.seed);
    let slurm = cfg.slurm_config();
    let model = cfg.model.instantiate();
    let spec = entry.workload.cluster(entry.scale);
    let t0 = Instant::now();
    let state = SimState::new(spec, slurm, trace, model, cfg.sharing);
    let res = match entry.policy {
        PolicyKind::StaticBackfill => Controller::new(state, StaticBackfill).run(),
        PolicyKind::Sd(cutoff) => {
            let sd_cfg = SdPolicyConfig {
                max_slowdown: cutoff,
                ..SdPolicyConfig::default()
            };
            Controller::new(state, SdPolicy::new(sd_cfg)).run()
        }
    };
    (t0.elapsed().as_secs_f64(), res)
}

/// Measures one entry over `iters` repetitions; min and mean wall times are
/// reported. The counters are deterministic, so they come from the last run.
pub fn measure(entry: &BenchEntry, iters: usize) -> BenchResult {
    let trace = entry.workload.generate(entry.seed, entry.scale);
    let mut times = Vec::with_capacity(iters);
    let mut last = None;
    for _ in 0..iters.max(1) {
        let (s, res) = run_once(entry, &trace);
        times.push(s);
        last = Some(res);
    }
    let res = last.expect("at least one iteration");
    BenchResult {
        entry: entry.clone(),
        jobs: res.outcomes.len(),
        makespan: res.makespan,
        mean_slowdown: res.mean_slowdown(),
        malleable_started: res.stats.started_malleable,
        timing: Timing {
            sim_s_min: times.iter().copied().fold(f64::INFINITY, f64::min),
            sim_s_mean: times.iter().sum::<f64>() / times.len() as f64,
            sched_passes: res.stats.sched_passes,
            passes_skipped: res.stats.passes_skipped,
            events: res.stats.events_dispatched,
            peak_profile_len: res.stats.peak_profile_len,
        },
    }
}

fn fmt_secs(v: f64) -> String {
    format!("{v:.4}")
}

fn timing_json(m: &Timing) -> String {
    format!(
        "{{\"sim_s_min\": {}, \"sim_s_mean\": {}, \"sched_passes\": {}, \
         \"passes_skipped\": {}, \"events\": {}, \"peak_profile_len\": {}}}",
        fmt_secs(m.sim_s_min),
        fmt_secs(m.sim_s_mean),
        m.sched_passes,
        m.passes_skipped,
        m.events,
        m.peak_profile_len
    )
}

/// Renders the results as the `BENCH_<rev>.json` payload (fixed key order).
pub fn render_json(rev: &str, iters: usize, results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"rev\": \"{rev}\",");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"policy\": \"{}\", \
             \"scale\": {}, \"seed\": {}, \"jobs\": {}, \
             \"makespan\": {}, \"mean_slowdown\": {:.4}, \"malleable_started\": {},\n     \
             \"timing\": {}}}",
            r.entry.name,
            r.entry.workload.short(),
            r.entry.policy.label(),
            r.entry.scale,
            r.entry.seed,
            r.jobs,
            r.makespan,
            r.mean_slowdown,
            r.malleable_started,
            timing_json(&r.timing),
        );
        let _ = writeln!(out, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    // Flat map the CI regression gate re-reads without a JSON parser.
    let _ = writeln!(out, "  \"check_sim_s\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {}{}",
            r.entry.name,
            fmt_secs(r.timing.sim_s_min),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Extracts the `check_sim_s` map from a `BENCH_*.json` payload written by
/// [`render_json`] (line-oriented scan; no JSON dependency).
pub fn parse_check_map(payload: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut in_map = false;
    for line in payload.lines() {
        let t = line.trim();
        if t.starts_with("\"check_sim_s\"") {
            in_map = true;
            continue;
        }
        if !in_map {
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        let Some((key, value)) = t.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.push((key, v));
        }
    }
    out
}

/// Compares measured results against a committed baseline, normalised for
/// machine speed: the per-entry current/baseline ratios are scaled by their
/// median, so a uniformly slower (or faster) machine — a shared CI runner
/// vs the laptop that produced the baseline — cancels out, while a single
/// entry regressing relative to the others still exceeds `tolerance`.
/// A uniform algorithmic regression is not caught here; the
/// machine-independent work counters in the JSON (passes, events) show it.
/// Returns the regressions as human-readable lines (empty = pass).
pub fn check_regressions(
    results: &[BenchResult],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut bad_coverage = Vec::new();
    // A baseline entry with no matching measurement means the gate's
    // coverage silently shrank (panel rename/removal without regenerating
    // the baseline) — that is itself a failure, not a skip.
    for (name, _) in baseline {
        if !results.iter().any(|r| r.entry.name == *name) {
            bad_coverage.push(format!(
                "baseline entry `{name}` has no matching measurement — \
                 regenerate the baseline after changing the panel"
            ));
        }
    }
    let mut ratios: Vec<(usize, f64, f64)> = Vec::new(); // (result idx, base, ratio)
    for (i, r) in results.iter().enumerate() {
        if let Some((_, base)) = baseline.iter().find(|(k, _)| *k == r.entry.name) {
            if *base > 0.0 {
                ratios.push((i, *base, r.timing.sim_s_min / base));
            }
        }
    }
    if ratios.is_empty() {
        return bad_coverage;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, _, q)| q).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    // Lower median: conservative for even panel sizes (flags the upper half
    // rather than hiding it inside the factor).
    let machine_factor = sorted[(sorted.len() - 1) / 2];
    let mut bad = bad_coverage;
    for (i, base, ratio) in ratios {
        let limit = machine_factor * (1.0 + tolerance);
        if ratio > limit {
            let r = &results[i];
            bad.push(format!(
                "{}: {:.4}s is {:.2}× its baseline {:.4}s — more than {:.0}% over this \
                 machine's median factor {:.2}×",
                r.entry.name,
                r.timing.sim_s_min,
                ratio,
                base,
                tolerance * 100.0,
                machine_factor
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_names_are_unique_keys() {
        for full in [false, true] {
            let p = panel(full);
            let mut names: Vec<&str> = p.iter().map(|e| e.name.as_str()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), p.len());
        }
        assert_eq!(panel(false).len(), 4);
        assert_eq!(panel(true).len(), 8);
    }

    #[test]
    fn measure_reports_sane_timing_on_tiny_run() {
        let entry = BenchEntry {
            name: "tiny".into(),
            workload: PaperWorkload::W3Ricc,
            policy: PolicyKind::Sd(MaxSlowdown::DynAvg),
            scale: 0.02,
            seed: 7,
        };
        let r = measure(&entry, 2);
        assert!(r.jobs > 0);
        assert!(r.makespan > 0);
        let t = &r.timing;
        assert!(t.sim_s_min > 0.0 && t.sim_s_min <= t.sim_s_mean);
        assert!(t.sched_passes > 0 && t.events > 0);
        assert!(t.peak_profile_len > 0);
    }

    /// The committed baselines stay readable by `--check`: the CI file in
    /// the one-mode format, and the nightly full-panel file in the older
    /// two-mode format (same flat `check_sim_s` map).
    #[test]
    fn committed_baselines_parse() {
        let keys = |payload: &str| -> Vec<String> {
            parse_check_map(payload).into_iter().map(|(k, _)| k).collect()
        };
        let names = |full: bool| -> Vec<String> {
            panel(full).into_iter().map(|e| e.name).collect()
        };
        assert_eq!(keys(include_str!("../../../BENCH_baseline.json")), names(false));
        assert_eq!(keys(include_str!("../../../BENCH_pr5-full.json")), names(true));
    }

    #[test]
    fn json_roundtrips_through_check_map() {
        let entry = BenchEntry {
            name: "W3 sd ci".into(),
            workload: PaperWorkload::W3Ricc,
            policy: PolicyKind::StaticBackfill,
            scale: 0.02,
            seed: 1,
        };
        let timing = Timing {
            sim_s_min: 0.1234,
            sim_s_mean: 0.2,
            sched_passes: 10,
            passes_skipped: 2,
            events: 40,
            peak_profile_len: 9,
        };
        let res = BenchResult {
            entry,
            jobs: 5,
            makespan: 100,
            mean_slowdown: 1.5,
            malleable_started: 0,
            timing,
        };
        let mut other = res.clone();
        other.entry.name = "W3 static ci".into();
        other.timing.sim_s_min = 0.05;
        let both = vec![res.clone(), other.clone()];
        let json = render_json("abc123", 3, &both);
        assert!(json.contains("\"rev\": \"abc123\""));
        let map = parse_check_map(&json);
        assert_eq!(
            map,
            vec![
                ("W3 sd ci".to_string(), 0.1234),
                ("W3 static ci".to_string(), 0.05)
            ]
        );

        // Regression gate, machine-normalised at 25 % tolerance: identical
        // numbers pass, and so does a uniformly 2× slower machine…
        assert!(check_regressions(&both, &map, 0.25).is_empty());
        let slower_machine: Vec<BenchResult> = both
            .iter()
            .cloned()
            .map(|mut r| {
                r.timing.sim_s_min *= 2.0;
                r
            })
            .collect();
        assert!(
            check_regressions(&slower_machine, &map, 0.25).is_empty(),
            "uniform machine slowdown must not trip the gate"
        );
        // …but one entry regressing relative to the others fails.
        let mut one_bad = both.clone();
        one_bad[0].timing.sim_s_min = 0.2;
        let bad = check_regressions(&one_bad, &map, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("W3 sd ci"), "{bad:?}");

        // A baseline entry the panel no longer measures is a failure, not a
        // silent coverage loss.
        let mut stale = map.clone();
        stale.push(("W9 renamed ci".to_string(), 0.1));
        let bad = check_regressions(&both, &stale, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("W9 renamed ci"), "{bad:?}");
    }
}
