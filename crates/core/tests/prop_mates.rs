//! Property tests for mate selection (Eqs. 1–3): the heuristic must respect
//! every constraint and, for m ≤ 2, be *optimal* over the candidate list;
//! the policy's feasibility-first path must equal the reference one.

use cluster::JobId;
use drom::SharingFactor;
use proptest::prelude::*;
use sd_policy::mates::{
    collect_candidates, pick_mates, Candidate, MatePool, MateScratch, Selection,
};
use sd_policy::penalty::{mate_penalty, shrink_increase};
use sd_policy::SdPolicyConfig;
use simkit::SimTime;
use slurm_sim::MateEntry;

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((1u32..8, 0u32..1000), 1..24).prop_map(|raw| {
        let mut v: Vec<Candidate> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (w, p))| Candidate {
                id: JobId(i as u64 + 1),
                weight: w,
                penalty: p as f64 / 10.0,
            })
            .collect();
        v.sort_by(|a, b| a.penalty.partial_cmp(&b.penalty).unwrap());
        v
    })
}

/// Brute force: all subsets of size ≤ m with Σw = target, min Σp.
fn brute_force(cands: &[Candidate], target: u32, m: usize) -> Option<f64> {
    let n = cands.len();
    let mut best: Option<f64> = None;
    for mask in 1u32..(1 << n.min(20)) {
        if (mask.count_ones() as usize) > m {
            continue;
        }
        let mut w = 0u32;
        let mut p = 0.0;
        for (i, c) in cands.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += c.weight;
                p += c.penalty;
            }
        }
        if w == target && best.is_none_or(|b| p < b) {
            best = Some(p);
        }
    }
    best
}

proptest! {
    /// The default (m = 2) search finds the brute-force optimum whenever one
    /// exists, and never fabricates a solution when none does.
    #[test]
    fn pair_search_is_optimal(cands in arb_candidates(), target in 1u32..12) {
        let cfg = SdPolicyConfig::default();
        let picked = pick_mates(&cands, target, 0, &cfg);
        let best = brute_force(&cands, target, 2);
        match (picked, best) {
            (Some(sel), Some(b)) => {
                prop_assert!((sel.performance_impact - b).abs() < 1e-9,
                    "heuristic {} vs optimum {}", sel.performance_impact, b);
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!("mismatch: {got:?} vs {want:?}")));
            }
        }
    }

    /// Every selection satisfies the structural constraints: Σw = W,
    /// |mates| ≤ m, distinct mates, PI = Σ penalties.
    #[test]
    fn selections_respect_constraints(
        cands in arb_candidates(),
        target in 1u32..12,
        m in 1usize..4,
    ) {
        let cfg = SdPolicyConfig { max_mates: m, ..SdPolicyConfig::default() };
        if let Some(sel) = pick_mates(&cands, target, 0, &cfg) {
            prop_assert!(sel.mates.len() <= m);
            let mut ids = sel.mates.clone();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), sel.mates.len(), "mates distinct");
            let (w, p): (u32, f64) = sel
                .mates
                .iter()
                .map(|id| {
                    let c = cands.iter().find(|c| c.id == *id).unwrap();
                    (c.weight, c.penalty)
                })
                .fold((0, 0.0), |(aw, ap), (w, p)| (aw + w, ap + p));
            prop_assert_eq!(w + sel.free_nodes, target, "Σ weights = W (Eq. 3)");
            prop_assert!((p - sel.performance_impact).abs() < 1e-9, "PI = Σ p (Eq. 1)");
        }
    }

    /// Larger m never yields a worse optimum (search-space monotonicity).
    #[test]
    fn more_mates_never_worse(cands in arb_candidates(), target in 1u32..12) {
        let pi = |m: usize| {
            pick_mates(
                &cands,
                target,
                0,
                &SdPolicyConfig { max_mates: m, ..SdPolicyConfig::default() },
            )
            .map(|s| s.performance_impact)
        };
        if let (Some(p2), Some(p3)) = (pi(2), pi(3)) {
            prop_assert!(p3 <= p2 + 1e-9, "m=3 ({p3}) worse than m=2 ({p2})");
        }
        if let (Some(p1), Some(p2)) = (pi(1), pi(2)) {
            prop_assert!(p2 <= p1 + 1e-9);
        }
    }
}

// ----------------------------------------------------------------------
// Feasibility-first selection ≡ collect_candidates + pick_mates
// ----------------------------------------------------------------------

/// One malleable trial's inputs: an owned pool plus the query.
#[derive(Debug, Clone)]
struct Trial {
    entries: Vec<MateEntry>,
    now: SimTime,
    full: u32,
    sharing: f64,
    idle_nodes: u32,
    latest_req_end: Option<SimTime>,
    mall_wall: u64,
    cutoff: f64,
    target: u32,
    cfg: SdPolicyConfig,
}

impl Trial {
    fn pool(&self) -> MatePool<'_> {
        MatePool {
            entries: &self.entries,
            now: self.now,
            full: self.full,
            sharing: SharingFactor::new(self.sharing),
            idle_nodes: self.idle_nodes,
            latest_req_end: self.latest_req_end,
        }
    }

    fn reference(&self) -> Option<Selection> {
        let cands = collect_candidates(&self.pool(), self.mall_wall, self.cutoff, &self.cfg);
        pick_mates(&cands, self.target, self.idle_nodes, &self.cfg)
    }
}

/// Pools of up to 300 entries (the scan reads at most 4 × cap of them), so
/// more than 64 filtered candidates are common and truncation is exercised.
fn arb_pool() -> impl Strategy<Value = Vec<MateEntry>> {
    prop::collection::vec(
        (0u64..5_000, 1u64..20_000, 0u64..40_000, 1u32..9, 1u32..5),
        0..300,
    )
    .prop_map(|raw| {
        let mut v: Vec<MateEntry> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (wait, req_time, end_offset, weight, ranks))| MateEntry {
                base: (wait + req_time) as f64 / req_time as f64,
                id: JobId(i as u64 + 1),
                wait,
                req_time,
                req_end: SimTime(1_000 + end_offset),
                weight,
                ranks_per_node: ranks,
            })
            .collect();
        v.sort_by(|a, b| a.base.partial_cmp(&b.base).unwrap().then(a.id.cmp(&b.id)));
        v
    })
}

fn arb_trial() -> impl Strategy<Value = Trial> {
    (
        arb_pool(),
        (0usize..3, 0.25f64..0.75, 0u32..6),
        (0u8..3, 0u64..40_000),
        (1u64..20_000, 0u8..3, 1u32..14),
        (1usize..4, any::<bool>(), 0usize..3),
    )
        .prop_map(|(entries, machine, prune, query, cfg)| {
            let ((full, sharing, idle_nodes), (prune, horizon)) = (machine, prune);
            let ((mall_wall, cut, target), (m, free, cap)) = (query, cfg);
            Trial {
                entries,
                now: SimTime(1_000),
                full: [8, 16, 48][full],
                sharing,
                idle_nodes,
                latest_req_end: match prune {
                    0 => Some(SimTime::MAX), // never prunes
                    1 => None,               // idle machine
                    _ => Some(SimTime(1_000 + horizon)),
                },
                mall_wall,
                cutoff: [f64::INFINITY, 3.0, 1.5][cut as usize],
                target,
                cfg: SdPolicyConfig {
                    max_mates: m,
                    include_free_nodes: free,
                    candidate_cap: [64, 8, 2][cap],
                    ..SdPolicyConfig::default()
                },
            }
        })
}

/// The paper's `filter_and_sort` written out entry by entry, with none of
/// the scan's shortcuts (the cut-off break on the base penalty, the
/// per-ranks memo of the runtime increase).
fn plain_filter_and_sort(t: &Trial) -> Vec<Candidate> {
    let new_end = t.now.after(t.mall_wall);
    if t.latest_req_end.is_none_or(|latest| latest < new_end) {
        return Vec::new();
    }
    let sharing = SharingFactor::new(t.sharing);
    let scan_limit = t.cfg.candidate_cap.saturating_mul(4).max(16);
    let mut out: Vec<Candidate> = t
        .entries
        .iter()
        .take(scan_limit)
        .filter(|e| e.req_end >= new_end)
        .filter_map(|e| {
            let keep = sharing.keep_cores(t.full, e.ranks_per_node);
            if keep >= t.full {
                return None;
            }
            let increase = shrink_increase(keep as f64 / t.full as f64, t.mall_wall);
            let penalty = mate_penalty(e.wait, increase, e.req_time);
            (penalty < t.cutoff).then_some(Candidate { id: e.id, weight: e.weight, penalty })
        })
        .collect();
    out.sort_by(|a, b| a.penalty.partial_cmp(&b.penalty).unwrap().then(a.id.cmp(&b.id)));
    out.truncate(t.cfg.candidate_cap);
    out
}

proptest! {
    /// The scan's shortcuts change nothing: the candidate list equals the
    /// plain entry-by-entry filter, sort and truncation.
    #[test]
    fn collect_candidates_equals_the_plain_filter(t in arb_trial()) {
        let got = collect_candidates(&t.pool(), t.mall_wall, t.cutoff, &t.cfg);
        prop_assert_eq!(got, plain_filter_and_sort(&t));
    }

    /// The policy's fast path returns exactly the reference selection, for
    /// m ∈ {1, 2, 3}, with and without idle nodes, with truncation, and
    /// across a sequence of trials sharing one scratch — so a pruned trial
    /// after one that left candidates in the buffer must not see them.
    #[test]
    fn feasibility_first_equals_collect_then_pick(
        trials in prop::collection::vec(arb_trial(), 1..5),
    ) {
        let mut scratch = MateScratch::default();
        for t in &trials {
            let got = scratch.select(&t.pool(), t.mall_wall, t.cutoff, t.target, &t.cfg);
            prop_assert_eq!(got, t.reference());
        }
    }
}
