//! Golden fingerprints: committed digests of what the simulator produces,
//! so a refactor is checked against recorded behaviour instead of against a
//! second copy of the code.
//!
//! Each line of `tests/fixtures/golden.txt` pins one run (workload × policy,
//! seed 42, traced) with a readable job count and makespan plus three
//! FNV-1a-64 digests:
//!
//! * `result` — the canonical `SimResult`: every outcome, the makespan, the
//!   counters, and `energy_joules` by its bit pattern;
//! * `trace`  — the `render_virtual` decision stream (wall clock omitted);
//! * `export` — the campaign-export JSON row, with the Δ-vs-static columns.
//!
//! The CI panel (W1–W5 at `default_ci_scale()` under static and DynAVGSD)
//! runs in tier-1; the full-scale W3 panel is `#[ignore]`d and run in
//! release (`cargo test --release --test golden -- --include-ignored`).
//! On a mismatch the test prints the freshly computed lines of its panel,
//! ready to paste into the fixture once a behaviour change is intended.

use sd_sched::prelude::*;
use sd_sched::sched_metrics::{campaign_json, CampaignDeltas, CampaignRow};
use sd_sched::slurm_sim::{render_virtual, TraceRing};
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/golden.txt");
const SEED: u64 = 42;

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.0
    }
}

/// The canonical text of a result: outcomes, makespan, counters, energy bits.
fn canonical(res: &SimResult) -> String {
    let mut s = String::new();
    for o in &res.outcomes {
        let _ = writeln!(s, "{o:?}");
    }
    let _ = writeln!(s, "makespan={}", res.makespan);
    let _ = writeln!(s, "stats={:?}", res.stats);
    let _ = writeln!(s, "energy={:#018x}", res.energy_joules.to_bits());
    s
}

struct Run {
    result: SimResult,
    trace_digest: u64,
    cores: u64,
}

/// Runs one traced simulation.
fn run(w: PaperWorkload, scale: f64, sd: bool) -> Run {
    let cluster = w.cluster(scale);
    let cores = cluster.total_cores();
    let cfg = SlurmConfig::default();
    let mut state = if w == PaperWorkload::W5RealRun {
        let apps = PaperWorkload::generate_apps(SEED);
        SimState::with_apps(
            cluster,
            cfg,
            &apps,
            Box::new(AppAwareModel),
            SharingFactor::HALF,
        )
    } else {
        let trace = w.generate(SEED, scale);
        SimState::new(
            cluster,
            cfg,
            &trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
        )
    };
    let ring = Arc::new(TraceRing::new(1 << 16));
    state.attach_trace(ring.clone());
    let (result, trace_digest) = if sd {
        drive(Controller::new(state, SdPolicy::default()), &ring)
    } else {
        drive(Controller::new(state, StaticBackfill), &ring)
    };
    assert_eq!(
        result.leftover_pending + result.leftover_running,
        0,
        "{w:?}: run drained"
    );
    Run {
        result,
        trace_digest,
        cores,
    }
}

/// Runs the controller batch by batch, hashing the virtual-time stream as
/// it goes so the ring only ever holds one event batch.
fn drive<S: Scheduler>(mut ctl: Controller<S>, ring: &TraceRing) -> (SimResult, u64) {
    let mut hasher = Fnv::new();
    let mut cursor = 0;
    while let Some(t) = ctl.state.events.peek_time() {
        ctl.step_until(Some(t));
        let tail = ring.read_since(cursor, usize::MAX);
        assert_eq!(tail.dropped, 0, "an event batch overflowed the trace ring");
        hasher.write(render_virtual(&tail.events).as_bytes());
        cursor = tail.next;
    }
    (ctl.into_result(), hasher.0)
}

/// The fixture lines of one panel: static then DynAVGSD per workload.
fn panel(tag: &str, points: &[(PaperWorkload, f64)]) -> Vec<String> {
    let mut lines = Vec::new();
    for &(w, scale) in points {
        let base = run(w, scale, false);
        let base_summary = Summary::from_result("static", &base.result, base.cores);
        let sd = run(w, scale, true);
        let sd_label = SdPolicyConfig::default().label();
        for (label, r, baseline) in [
            ("static", &base, &base_summary),
            (sd_label.as_str(), &sd, &base_summary),
        ] {
            let summary = Summary::from_result(label, &r.result, r.cores);
            let row = CampaignRow {
                scenario: w.short().to_string(),
                variant: String::new(),
                seed: SEED,
                scale,
                deltas: Some(CampaignDeltas::against(&summary, baseline)),
                tenants: tenant_summaries(&r.result),
                summary,
            };
            lines.push(format!(
                "{tag} {} {label} jobs={} makespan={} result={:016x} trace={:016x} export={:016x}",
                w.short(),
                r.result.outcomes.len(),
                r.result.makespan,
                Fnv::of(canonical(&r.result).as_bytes()),
                r.trace_digest,
                Fnv::of(campaign_json(&[row]).as_bytes()),
            ));
        }
    }
    lines
}

fn check(tag: &str, got: Vec<String>) {
    let prefix = format!("{tag} ");
    let want: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
    if want != got {
        panic!(
            "golden fingerprints of the `{tag}` panel changed; if the change is \
             intended, replace its lines in tests/fixtures/golden.txt with:\n{}\n",
            got.join("\n")
        );
    }
}

#[test]
fn ci_panel_matches_golden() {
    let points: Vec<(PaperWorkload, f64)> = PaperWorkload::ALL
        .iter()
        .map(|&w| (w, w.default_ci_scale()))
        .collect();
    check("ci", panel("ci", &points));
}

#[test]
#[ignore = "full-scale W3: run in release"]
fn full_w3_panel_matches_golden() {
    check("full", panel("full", &[(PaperWorkload::W3Ricc, 1.0)]));
}
