//! The offline simulator workloads (`sim-w4-sd`, `sim-w3-sd`) and the
//! offline runs the serve workloads are checked against.

use crate::report::{check_ledger, Ctx, Report};
use crate::spans::Tracer;
use crate::stats::{median, print_latency, quantile, sorted, vm_hwm_mib};
use drom::SharingFactor;
use sd_policy::{SdPolicy, SdPolicyConfig};
use slurm_sim::{
    timing, Controller, DirtyFlags, IdealModel, Scheduler, SimResult, SimState, SlurmConfig,
};
use std::time::Instant;
use workload::PaperWorkload;

/// The configuration every workload simulates under: the paper's machine
/// for the workload at full scale, DynAVGSD, the ideal runtime model and a
/// sharing factor of one half. The full Curie trace needs the EASY pass
/// (`large_scale`); everything else uses the conservative profile.
pub fn slurm_config(wl: PaperWorkload) -> SlurmConfig {
    match wl {
        PaperWorkload::W4Curie => SlurmConfig::large_scale(),
        _ => SlurmConfig::default(),
    }
}

pub fn policy() -> SdPolicy {
    SdPolicy::new(SdPolicyConfig::default())
}

pub fn new_state(wl: PaperWorkload, trace: &swf::Trace) -> SimState {
    SimState::new(
        wl.cluster(1.0),
        slurm_config(wl),
        trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
    )
}

/// Wraps the policy to time every `Scheduler::schedule` call (one pass).
struct PassClock {
    inner: SdPolicy,
    pass_s: Vec<f64>,
    tracer: Option<Tracer>,
}

impl Scheduler for PassClock {
    fn schedule(&mut self, st: &mut SimState) {
        let t0 = Instant::now();
        self.inner.schedule(st);
        let t1 = Instant::now();
        self.pass_s.push((t1 - t0).as_secs_f64());
        if let Some(t) = &mut self.tracer {
            t.record("scheduler.pass", 0, t0, t1);
        }
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        self.inner.pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One timed simulation from a built state to the collected result.
pub struct SimRun {
    pub result: SimResult,
    /// `Controller::step_until(None)`: the whole event loop.
    pub loop_s: f64,
    /// `Controller::into_result`.
    pub collect_s: f64,
    /// Wall time of every scheduling pass, in order.
    pub pass_s: Vec<f64>,
}

impl SimRun {
    pub fn wall_s(&self) -> f64 {
        self.loop_s + self.collect_s
    }
}

/// Runs `state` to completion under DynAVGSD. With a tracer, records
/// `controller.loop` (with one `scheduler.pass` child per pass) and
/// `result.collect` spans.
pub fn run_state(state: SimState, mut tracer: Option<Tracer>) -> (SimRun, Option<Tracer>) {
    let loop_span = tracer.as_mut().map(|t| t.begin("controller.loop", 0));
    let mut ctl = Controller::new(
        state,
        PassClock {
            inner: policy(),
            pass_s: Vec::new(),
            tracer,
        },
    );
    let t0 = Instant::now();
    ctl.step_until(None);
    let loop_s = t0.elapsed().as_secs_f64();
    let mut tracer = ctl.scheduler.tracer.take();
    let pass_s = std::mem::take(&mut ctl.scheduler.pass_s);
    if let (Some(t), Some(id)) = (tracer.as_mut(), loop_span) {
        t.end(id);
    }
    let collect_span = tracer.as_mut().map(|t| t.begin("result.collect", 0));
    let t1 = Instant::now();
    let result = ctl.into_result();
    let collect_s = t1.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_mut(), collect_span) {
        t.end(id);
    }
    let run = SimRun {
        result,
        loop_s,
        collect_s,
        pass_s,
    };
    (run, tracer)
}

/// Every job completed exactly once and nothing was left behind.
pub fn check_complete(res: &SimResult, jobs: usize) -> Result<(), String> {
    if res.leftover_pending != 0 || res.leftover_running != 0 {
        return Err(format!(
            "{} jobs left pending and {} running",
            res.leftover_pending, res.leftover_running
        ));
    }
    let mut ids: Vec<u64> = res.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    if res.outcomes.len() != jobs || ids.len() != jobs {
        return Err(format!(
            "{} outcomes with {} distinct ids for {jobs} jobs",
            res.outcomes.len(),
            ids.len()
        ));
    }
    Ok(())
}

/// Bit-for-bit equality of two results, with the first difference named.
pub fn check_same(a: &SimResult, b: &SimResult) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let first = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .position(|(x, y)| x != y)
        .map_or("outcome count or aggregates".to_string(), |i| {
            format!("outcome #{i}")
        });
    Err(format!(
        "results differ at {first} (makespan {} vs {}, energy {} vs {})",
        a.makespan, b.makespan, a.energy_joules, b.energy_joules
    ))
}

/// What a run keeps of each result: the paper's outcome metrics and the
/// counters that only depend on the inputs.
pub struct Summary {
    slowdown: f64,
    response_s: f64,
    energy_kwh: f64,
    pub counters: Vec<(&'static str, u64)>,
}

impl Summary {
    pub fn of(r: &SimResult) -> Summary {
        Summary {
            slowdown: r.mean_slowdown(),
            response_s: r.mean_response(),
            energy_kwh: r.energy_kwh(),
            counters: stat_counters(r),
        }
    }
}

/// The paper's outcome metrics, averaged over the run's inputs. The fourth,
/// the makespan, is an exact counter instead (see [`stat_counters`]).
pub fn sched_metrics_mean(report: &mut Report, runs: &[Summary]) {
    let mean = |f: fn(&Summary) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    report.metric("sched.mean_slowdown", mean(|s| s.slowdown), "ratio");
    report.metric("sched.mean_response_s", mean(|s| s.response_s), "s");
    report.metric("sched.energy_kwh", mean(|s| s.energy_kwh), "kWh");
}

/// The input-determined counters summed over the run's inputs.
pub fn summed_counters(runs: &[Summary]) -> Vec<(&'static str, u64)> {
    let mut sum = runs[0].counters.clone();
    for r in &runs[1..] {
        for (acc, (_, v)) in sum.iter_mut().zip(&r.counters) {
            acc.1 += v;
        }
    }
    sum
}

/// Counters that only depend on the inputs (never on the machine). The
/// makespan is one: on W4 it is the same for every run seed (the last
/// completion does not depend on the order of simultaneous submissions), so
/// it is checked exactly here rather than reported as a timing.
pub fn stat_counters(res: &SimResult) -> Vec<(&'static str, u64)> {
    let s = &res.stats;
    vec![
        ("jobs", res.outcomes.len() as u64),
        ("makespan_s", res.makespan),
        ("events", s.events_dispatched),
        ("passes", s.sched_passes),
        ("passes_skipped", s.passes_skipped),
        ("malleable_started", s.started_malleable),
    ]
}

fn probe(rows: &[timing::FnTiming], name: &str) -> timing::FnTiming {
    rows.iter()
        .find(|r| r.name == name)
        .cloned()
        .unwrap_or_else(|| panic!("timing probe {name} is missing"))
}

/// A traced offline run: generation, state build and the simulation under
/// spans, with the simulator's own timing probes armed for their counts.
pub struct TracedSim {
    pub tracer: Tracer,
    pub run: SimRun,
    pub probes: Vec<timing::FnTiming>,
}

pub fn traced_run(make_trace: impl FnOnce() -> swf::Trace, wl: PaperWorkload) -> TracedSim {
    let mut tracer = Tracer::default();
    let g = tracer.begin("workload.generate", 0);
    let trace = make_trace();
    tracer.end(g);
    let b = tracer.begin("state.build", 0);
    let state = new_state(wl, &trace);
    tracer.end(b);
    drop(trace);
    timing::reset();
    timing::enable();
    let (run, tracer) = run_state(state, Some(tracer));
    timing::disable();
    TracedSim {
        tracer: tracer.expect("tracer handed back"),
        run,
        probes: timing::report(),
    }
}

impl TracedSim {
    /// [`stat_counters`] plus the probes' trial and `earliest_start` counts.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut c = stat_counters(&self.run.result);
        c.push(("trials", probe(&self.probes, "backfill_trial").count));
        c.push((
            "earliest_start_calls",
            probe(&self.probes, "earliest_start").count,
        ));
        c
    }

    /// The simulator layers' per-layer metrics.
    pub fn layer_metrics(&self, report: &mut Report) {
        let lt = self.tracer.layer_times();
        let get = |n: &str| lt.get(n).copied().unwrap_or_default();
        let st = &self.run.result.stats;
        let passes = self.run.pass_s.len() as f64;
        let pass_busy: f64 = self.run.pass_s.iter().sum();
        let pass_sorted = sorted(self.run.pass_s.clone());
        let trial = probe(&self.probes, "backfill_trial");
        let es = probe(&self.probes, "earliest_start");
        let started = (st.started_static + st.started_malleable) as f64;
        report.metric("workload.generate_s", get("workload.generate").total_s, "s");
        report.metric("state.build_s", get("state.build").total_s, "s");
        report.metric("controller.loop_s", self.run.loop_s, "s");
        report.metric("controller.dispatch_s", get("controller.loop").self_s, "s");
        report.metric("controller.events", st.events_dispatched as f64, "count");
        report.metric("backfill.passes", st.sched_passes as f64, "count");
        report.metric("backfill.passes_skipped", st.passes_skipped as f64, "count");
        report.metric("backfill.pass_busy_s", pass_busy, "s");
        report.metric(
            "backfill.pass_p50_us",
            quantile(&pass_sorted, 0.5) * 1e6,
            "us",
        );
        report.metric(
            "backfill.pass_p99_us",
            quantile(&pass_sorted, 0.99) * 1e6,
            "us",
        );
        report.metric("backfill.trials", trial.count as f64, "count");
        report.metric("backfill.trial_busy_s", trial.total_secs, "s");
        report.metric(
            "backfill.trials_per_pass",
            trial.count as f64 / passes.max(1.0),
            "ratio",
        );
        report.metric(
            "backfill.start_ratio",
            started / (trial.count as f64).max(1.0),
            "ratio",
        );
        report.metric("reservation.earliest_start_calls", es.count as f64, "count");
        report.metric("reservation.earliest_start_busy_s", es.total_secs, "s");
        report.metric(
            "sd_policy.malleable_started",
            st.started_malleable as f64,
            "count",
        );
        report.metric(
            "sd_policy.malleable_share",
            st.started_malleable as f64 / started.max(1.0),
            "ratio",
        );
        report.metric("sd_policy.unique_mates", st.unique_mates as f64, "count");
        report.metric("drom.shrinks", st.shrink_events as f64, "count");
        report.metric("drom.expands", st.expand_events as f64, "count");
        report.metric("drom.relocations", st.relocations as f64, "count");
        report.metric("result.collect_s", self.run.collect_s, "s");
    }
}

/// Repetitions per run at `--seconds 20` (scaled linearly). A fixed count,
/// not a time budget, so every machine simulates the same inputs.
fn reps_for(ctx: &Ctx, wl: PaperWorkload) -> usize {
    let nominal_rep_s = match wl {
        PaperWorkload::W4Curie => 20.0,
        _ => 2.5,
    };
    ((ctx.seconds / nominal_rep_s).round() as usize).max(1)
}

pub fn run(ctx: &Ctx, wl: PaperWorkload, report: &mut Report) {
    if ctx.trace {
        return run_traced(ctx, wl, report);
    }
    let mut setup_s = Vec::new();
    let mut jobs_per_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut runs = Vec::new();
    let mut peak_rss_mib = 0.0;
    for k in 0..reps_for(ctx, wl) {
        let r0 = Instant::now();
        let trace =
            crate::inputs::trace(wl, ctx.workload_seed, crate::inputs::variant(ctx.seed, k));
        let state = new_state(wl, &trace);
        setup_s.push(r0.elapsed().as_secs_f64());
        let n = trace.jobs.len();
        drop(trace);
        let (run, _) = run_state(state, None);
        report.ops(n as u64, 0);
        report.gate(
            "every job completes exactly once",
            check_complete(&run.result, n),
        );
        jobs_per_s.push(n as f64 / run.wall_s());
        pass_s.extend_from_slice(&run.pass_s);
        runs.push(Summary::of(&run.result));
        if k == 0 {
            // The first repetition's peak is the footprint of one
            // simulation; later ones only add the run's own bookkeeping.
            peak_rss_mib = vm_hwm_mib("self").unwrap_or(0.0);
        }
    }
    // Set-up is timed at least nine times so its median is steady.
    while setup_s.len() < 9 {
        let r0 = Instant::now();
        let trace = crate::inputs::trace(wl, ctx.workload_seed, ctx.seed);
        let state = new_state(wl, &trace);
        setup_s.push(r0.elapsed().as_secs_f64());
        drop((trace, state));
    }
    let pass_s = sorted(pass_s);
    println!("repetitions {}  setups {}", runs.len(), setup_s.len());
    print_latency(
        "op",
        &pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        0.0,
    );
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("sim.jobs_per_s", median(&jobs_per_s), "jobs/s");
    report.metric("op.p50_ms", quantile(&pass_s, 0.5) * 1e3, "ms");
    report.metric("op.p99_ms", quantile(&pass_s, 0.99) * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mib, "MiB");
    sched_metrics_mean(report, &runs);
    check_ledger(report, ctx, "untraced", &summed_counters(&runs));
}

fn run_traced(ctx: &Ctx, wl: PaperWorkload, report: &mut Report) {
    let trace = crate::inputs::trace(wl, ctx.workload_seed, ctx.seed);
    let jobs = trace.jobs.len();
    let (plain, _) = run_state(new_state(wl, &trace), None);
    drop(trace);
    let traced = traced_run(|| crate::inputs::trace(wl, ctx.workload_seed, ctx.seed), wl);
    report.ops(2 * jobs as u64, 0);
    report.gate(
        "every job completes exactly once",
        check_complete(&plain.result, jobs),
    );
    report.gate(
        "traced result equals untraced result",
        check_same(&plain.result, &traced.run.result),
    );
    traced.layer_metrics(report);
    report.metric(
        "trace.overhead_s",
        traced.run.wall_s() - plain.wall_s(),
        "s",
    );
    check_ledger(report, ctx, "traced", &traced.counters());
    crate::layers::run_service_probe(ctx, wl, report, traced.tracer);
}
