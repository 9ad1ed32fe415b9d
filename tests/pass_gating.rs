//! Pass gating (`Scheduler::pass_needed`, DESIGN.md §9) must be
//! *behaviourally invisible*: skipping a pass is only allowed when running
//! it would have changed nothing. The oracle is the same scheduler wrapped
//! in [`Ungated`], which runs a pass after every event batch that changed
//! the system: both must produce bit-identical schedules, and every skipped
//! pass must account for exactly one pass the ungated run performed.

use sd_sched::prelude::*;
use sd_sched::slurm_sim::DirtyFlags;

/// Forwards a scheduler but never lets the controller skip a pass.
struct Ungated<S>(S);

impl<S: Scheduler> Scheduler for Ungated<S> {
    fn schedule(&mut self, st: &mut SimState) {
        self.0.schedule(st)
    }

    fn pass_needed(&self, _st: &SimState, _dirty: DirtyFlags) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn run<S: Scheduler>(
    w: PaperWorkload,
    scale: f64,
    seed: u64,
    self_check: bool,
    scheduler: S,
) -> SimResult {
    let cfg = SlurmConfig {
        self_check,
        ..SlurmConfig::default()
    };
    run_trace(
        w.cluster(scale),
        cfg,
        &w.generate(seed, scale),
        Box::new(IdealModel),
        SharingFactor::HALF,
        scheduler,
    )
}

fn assert_gating_invisible(w: PaperWorkload, scale: f64, seed: u64, sd: bool) {
    let (gated, ungated) = if sd {
        (
            run(w, scale, seed, false, SdPolicy::default()),
            run(w, scale, seed, false, Ungated(SdPolicy::default())),
        )
    } else {
        (
            run(w, scale, seed, false, StaticBackfill),
            run(w, scale, seed, false, Ungated(StaticBackfill)),
        )
    };
    assert_eq!(
        gated.outcomes, ungated.outcomes,
        "{w:?} sd={sd} seed={seed}: outcomes diverged"
    );
    assert_eq!(gated.makespan, ungated.makespan, "{w:?} sd={sd} makespan");
    assert_eq!(
        gated.energy_joules.to_bits(),
        ungated.energy_joules.to_bits(),
        "{w:?} sd={sd} energy"
    );
    // Gating only *skips* no-op passes — it never adds or reorders work.
    assert_eq!(ungated.stats.passes_skipped, 0, "the oracle never gates");
    assert_eq!(
        gated.stats.sched_passes + gated.stats.passes_skipped,
        ungated.stats.sched_passes,
        "{w:?} sd={sd}: every ungated pass is either run or provably skipped"
    );
    assert!(
        gated.stats.passes_skipped > 0,
        "{w:?} sd={sd}: gating should fire on a drained-queue workload"
    );
}

#[test]
fn w3_sd_policy_gating_matches_ungated() {
    for seed in [1, 42] {
        assert_gating_invisible(PaperWorkload::W3Ricc, 0.05, seed, true);
    }
}

#[test]
fn w3_static_gating_matches_ungated() {
    for seed in [1, 42] {
        assert_gating_invisible(PaperWorkload::W3Ricc, 0.05, seed, false);
    }
}

#[test]
fn w4_both_policies_gating_matches_ungated() {
    assert_gating_invisible(PaperWorkload::W4Curie, 0.01, 42, true);
    assert_gating_invisible(PaperWorkload::W4Curie, 0.01, 42, false);
}

#[test]
fn w1_both_policies_gating_matches_ungated() {
    assert_gating_invisible(PaperWorkload::W1Cirne, 0.05, 7, true);
    assert_gating_invisible(PaperWorkload::W1Cirne, 0.05, 7, false);
}

/// The multi-tenant layer must be *inert* when it cannot bind: a
/// single-tenant registry with unlimited quotas under fair-share ordering is
/// bit-identical to the default (untenanted, FIFO) configuration — every
/// job maps to the same tenant, so `usage/weight` ties on every comparison
/// and the stable sort preserves FIFO order, while unlimited quotas never
/// block a backfill trial.
#[test]
fn single_tenant_fair_share_is_bit_identical_to_untenanted() {
    let w = PaperWorkload::W3Ricc;
    // Stamp every job with tenant 1 and hold the trace fixed: the claim is
    // that the *configuration* is inert, and a trace whose users map to a
    // single registry slot is exactly the degenerate case.
    let trace = w.model(0.05).with_tenant_mix(1, 0.0).generate(42);
    let tenanted_cfg = SlurmConfig {
        tenants: TenantRegistry::equal_weights(1, Quota::UNLIMITED),
        queue_policy: QueuePolicy::FairShare { half_life: 3600 },
        ..SlurmConfig::default()
    };
    let plain = run_trace(
        w.cluster(0.05),
        SlurmConfig::default(),
        &trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
        SdPolicy::default(),
    );
    let tenanted = run_trace(
        w.cluster(0.05),
        tenanted_cfg,
        &trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
        SdPolicy::default(),
    );
    // Outcomes carry the tenant label, so compare the schedule itself.
    let key = |r: &SimResult| {
        r.outcomes
            .iter()
            .map(|o| (o.id, o.submit, o.start, o.end, o.nodes, o.procs))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&plain), key(&tenanted), "schedule diverged");
    assert_eq!(plain.makespan, tenanted.makespan);
    assert_eq!(plain.energy_joules, tenanted.energy_joules);
    assert_eq!(
        plain.stats.started_malleable,
        tenanted.stats.started_malleable
    );
    assert_eq!(tenanted.stats.quota_skipped, 0, "unlimited quota never blocks");
}

/// The cached availability profile is re-validated against a full rebuild
/// after every mutation when `self_check` is on — run a malleability-heavy
/// workload end-to-end with the tripwire armed.
#[test]
fn self_check_validates_profile_cache_end_to_end() {
    let res = run(PaperWorkload::W3Ricc, 0.02, 7, true, SdPolicy::default());
    assert_eq!(res.leftover_pending, 0);
    assert!(res.stats.started_malleable > 0, "malleable path exercised");
    assert!(res.stats.relocations > 0, "relocation path exercised");
}
