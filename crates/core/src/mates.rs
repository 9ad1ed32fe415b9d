//! Mate selection — the paper's Eqs. 1–3 and Listing 2.
//!
//! Minimise the Performance Impact `PI = Σ xᵢ·pᵢ` (Eq. 1) subject to
//! `pᵢ < P` (Eq. 2, the MAX_SLOWDOWN cut-off) and `Σ xᵢ·wᵢ = W` (Eq. 3,
//! whole-node weights). Selecting mates is NP-complete; the paper's
//! heuristic sorts candidates by penalty, truncates to `nm`, and tries
//! combinations of at most `m` mates (with `m = 2` found optimal).
//!
//! For `m ≤ 2` the exact optimum over the truncated list is found in
//! `O(nm)` by bucketing candidates per weight (the best pair for a weight
//! split is always the two lowest-penalty candidates of the buckets). For
//! `m ≥ 3` a bounded depth-first search over the buckets is used.
//!
//! The policy runs [`MateScratch::select`], which returns exactly what
//! [`collect_candidates`] followed by [`pick_mates`] returns but checks the
//! weight constraint first: almost every trial fails there, before any
//! sort (DESIGN.md §9, "mate-selection fast path").

use crate::config::SdPolicyConfig;
use crate::penalty::{mate_penalty, shrink_increase};
use cluster::JobId;
use drom::SharingFactor;
use simkit::SimTime;
use slurm_sim::{timing, MateEntry, SimState};
use std::collections::BTreeMap;

/// A scored candidate mate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub id: JobId,
    /// Whole nodes the mate occupies (its weight `wᵢ`).
    pub weight: u32,
    /// Eq. 4 penalty for the concrete co-schedule being considered.
    pub penalty: f64,
}

/// The chosen mate set (plus optional idle nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub mates: Vec<JobId>,
    /// Idle nodes included toward the weight constraint (0 unless
    /// `include_free_nodes` is on).
    pub free_nodes: u32,
    /// The objective value `PI` (Eq. 1).
    pub performance_impact: f64,
}

/// Everything mate selection reads from the simulator. [`MatePool::of`]
/// borrows it from a [`SimState`]; tests build one over a synthetic pool.
#[derive(Debug, Clone, Copy)]
pub struct MatePool<'a> {
    /// Eligible mates, ascending by `(base, id)`
    /// ([`SimState::eligible_mates`]). Each `base` is the Eq. 4 penalty
    /// without its increase term, computed as `(wait + req) / req`, so it
    /// never exceeds the entry's full penalty.
    pub entries: &'a [MateEntry],
    pub now: SimTime,
    /// Cores per node.
    pub full: u32,
    pub sharing: SharingFactor,
    /// Completely idle nodes (the `include_free_nodes` budget).
    pub idle_nodes: u32,
    /// Latest requested end among *all* running jobs (a superset of the
    /// pool), `None` when idle. When it falls short of the new job's end the
    /// finish-inside constraint rejects every entry, so the scan is skipped.
    /// `Some(SimTime::MAX)` never prunes.
    pub latest_req_end: Option<SimTime>,
}

impl<'a> MatePool<'a> {
    /// The pool of `st`. Only incremental mode uses the running-by-end
    /// prune; the legacy path keeps the unconditional scan as the perf
    /// baseline (the outcome is identical either way).
    pub fn of(st: &'a SimState) -> MatePool<'a> {
        MatePool {
            entries: st.eligible_mates(),
            now: st.now,
            full: st.spec().node.cores(),
            sharing: st.sharing(),
            idle_nodes: st.cluster.empty_node_count(),
            latest_req_end: if st.cfg.incremental {
                st.latest_running_req_end()
            } else {
                Some(SimTime::MAX)
            },
        }
    }

    /// Appends every entry that passes the finish-inside and cut-off
    /// filters to `out` (cleared first, also when the scan is pruned), in
    /// pool order: unsorted and untruncated.
    fn scan(&self, mall_wall: u64, cutoff: f64, cfg: &SdPolicyConfig, out: &mut Vec<Candidate>) {
        out.clear();
        let new_end = self.now.after(mall_wall);
        if self.latest_req_end.is_none_or(|latest| latest < new_end) {
            return;
        }
        let full = self.full;
        // The pool is sorted by base penalty ((wait+req)/req); the full Eq. 4
        // penalty adds increase/req, so pool order is a good (not perfect)
        // visiting order. We scan a bounded multiple of the cap, score
        // exactly, then sort and truncate — the paper's sort-then-truncate.
        // The pool entries carry every filter/score input (denormalised at
        // insertion), so the scan never touches the job table.
        let scan_limit = cfg.candidate_cap.saturating_mul(4).max(16);
        // The runtime increase depends on the entry only through its ranks
        // per node, which jobs mostly share: score it once per run of equal
        // values. `None`: the mate keeps every core, nothing can be freed.
        let increase_for = |ranks: u32| {
            let keep = self.sharing.keep_cores(full, ranks);
            (keep < full).then(|| shrink_increase(keep as f64 / full as f64, mall_wall))
        };
        let mut last: Option<(u32, Option<u64>)> = None;
        for e in self.entries.iter().take(scan_limit) {
            // The base penalty bounds the full one from below, so once the
            // ascending base reaches the cut-off no later entry passes Eq. 2.
            if e.base >= cutoff {
                break;
            }
            // Finish-inside-mate constraint (requested-time based, §3.2.4).
            if e.req_end < new_end {
                continue;
            }
            let increase = match last {
                Some((ranks, increase)) if ranks == e.ranks_per_node => increase,
                _ => {
                    let increase = increase_for(e.ranks_per_node);
                    last = Some((e.ranks_per_node, increase));
                    increase
                }
            };
            let Some(increase) = increase else {
                continue; // nothing can be freed
            };
            let p = mate_penalty(e.wait, increase, e.req_time);
            if p >= cutoff {
                continue;
            }
            out.push(Candidate {
                id: e.id,
                weight: e.weight,
                penalty: p,
            });
        }
    }
}

/// Sorts scanned candidates by `(penalty, id)` and keeps the `cap` best.
fn sort_and_truncate(cands: &mut Vec<Candidate>, cap: usize) {
    cands.sort_by(|a, b| {
        a.penalty
            .partial_cmp(&b.penalty)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    cands.truncate(cap);
}

/// Collects, filters and scores candidate mates for a job needing
/// `mall_wall` seconds of co-residency (paper: `filter_and_sort`).
///
/// Filters applied, in order:
/// * eligibility (running, malleable, full width, not already sharing) —
///   pre-maintained by the simulator's mate pool;
/// * the finish-inside constraint: the new job's requested end
///   (`now + mall_wall`) must not exceed the mate's requested end;
/// * the cut-off `pᵢ < P` (Eq. 2);
/// * the `nm` cap on the candidate list.
pub fn collect_candidates(
    pool: &MatePool,
    mall_wall: u64,
    cutoff: f64,
    cfg: &SdPolicyConfig,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    pool.scan(mall_wall, cutoff, cfg, &mut out);
    sort_and_truncate(&mut out, cfg.candidate_cap);
    out
}

/// Reusable buffers of [`MateScratch::select`], kept by the policy between
/// trials so a trial allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct MateScratch {
    candidates: Vec<Candidate>,
    /// Bitset of candidate weights seen by the pre-check.
    seen: Vec<u64>,
}

impl MateScratch {
    /// Feasibility-first mate selection: returns exactly what
    /// `pick_mates(&collect_candidates(pool, …), target, pool.idle_nodes,
    /// cfg)` returns. After the scan it checks whether any set of at most
    /// `max_mates` filtered candidates meets the weight constraint; if none
    /// does, no subset of the filtered list does either — and the truncated
    /// list is such a subset — so the trial fails before the sort.
    pub fn select(
        &mut self,
        pool: &MatePool,
        mall_wall: u64,
        cutoff: f64,
        target: u32,
        cfg: &SdPolicyConfig,
    ) -> Option<Selection> {
        let free = free_node_budget(target, pool.idle_nodes, cfg);
        {
            let _scan = timing::scope(&timing::MATE_SCAN);
            pool.scan(mall_wall, cutoff, cfg, &mut self.candidates);
            let lo = target.saturating_sub(free);
            if !weights_can_sum(&self.candidates, lo, target, cfg.max_mates, &mut self.seen) {
                return None;
            }
        }
        let _select = timing::scope(&timing::MATE_SELECT);
        sort_and_truncate(&mut self.candidates, cfg.candidate_cap);
        pick_mates(&self.candidates, target, pool.idle_nodes, cfg)
    }
}

/// Whether some set of at most `max_mates` candidates has weights summing
/// to a need in `lo..=hi` — Eq. 3, widened to the needs idle nodes allow.
/// Exact for `max_mates ≤ 2`: one pass that remembers the weights seen so
/// far in the bitset `seen` and stops at the first single or pair that
/// fits. Larger `max_mates` is not pre-checked and answers `true`.
fn weights_can_sum(
    cands: &[Candidate],
    lo: u32,
    hi: u32,
    max_mates: usize,
    seen: &mut Vec<u64>,
) -> bool {
    match max_mates {
        0 => return false,
        1 | 2 => {}
        _ => return true,
    }
    seen.clear();
    seen.resize(hi as usize / 64 + 1, 0);
    for c in cands {
        let w = c.weight;
        if w > hi {
            continue;
        }
        if w >= lo {
            return true; // a single mate
        }
        // A pair with an earlier candidate: a seen weight in
        // `lo - w ..= hi - w` (no underflow: `w < lo <= hi` here).
        if max_mates == 2 && any_bit(seen, lo - w, hi - w) {
            return true;
        }
        seen[w as usize / 64] |= 1 << (w % 64);
    }
    false
}

/// Whether any bit in `lo..=hi` of the bitset is set.
fn any_bit(bits: &[u64], lo: u32, hi: u32) -> bool {
    let (lo, hi) = (lo as usize, hi as usize);
    (lo / 64..=hi / 64).any(|i| {
        let mut word = bits[i];
        if i == lo / 64 {
            word &= u64::MAX << (lo % 64);
        }
        if i == hi / 64 {
            word &= u64::MAX >> (63 - hi % 64);
        }
        word != 0
    })
}

/// Idle nodes a selection for `target` may count toward Eq. 3: none unless
/// `include_free_nodes`, and never all of them (at least one mate shares).
fn free_node_budget(target: u32, free_nodes_available: u32, cfg: &SdPolicyConfig) -> u32 {
    if cfg.include_free_nodes {
        free_nodes_available.min(target.saturating_sub(1))
    } else {
        0
    }
}

/// Finds the minimum-PI combination of ≤ `max_mates` candidates whose
/// weights sum to exactly `target` (Eq. 3), optionally topping up with idle
/// nodes. Returns `None` when no combination exists.
pub fn pick_mates(
    candidates: &[Candidate],
    target: u32,
    free_nodes_available: u32,
    cfg: &SdPolicyConfig,
) -> Option<Selection> {
    if target == 0 || candidates.is_empty() {
        return None;
    }
    let free = free_node_budget(target, free_nodes_available, cfg);
    let mut best: Option<Selection> = None;
    // Using f idle nodes reduces the weight the mates must cover. Prefer
    // more idle nodes first (less shrink impact), but still compare by PI.
    for used_free in (0..=free).rev() {
        let need = target - used_free;
        let found = match cfg.max_mates {
            0 => None,
            1 => best_single(candidates, need),
            2 => best_pair(candidates, need),
            m => best_combo(candidates, need, m),
        };
        if let Some((mates, pi)) = found {
            let better = match &best {
                None => true,
                Some(b) => pi < b.performance_impact,
            };
            if better {
                best = Some(Selection {
                    mates,
                    free_nodes: used_free,
                    performance_impact: pi,
                });
            }
        }
    }
    best
}

/// Cheapest single candidate of exactly the needed weight (m = 1).
fn best_single(candidates: &[Candidate], need: u32) -> Option<(Vec<JobId>, f64)> {
    candidates
        .iter()
        .filter(|c| c.weight == need)
        .map(|c| (vec![c.id], c.penalty))
        .next() // list is penalty-sorted
}

/// Exact minimum over singles and pairs: bucket candidates by weight; the
/// optimal pair for a split (w, need−w) is the cheapest candidate of each
/// bucket (or the two cheapest of the same bucket when w = need−w).
fn best_pair(candidates: &[Candidate], need: u32) -> Option<(Vec<JobId>, f64)> {
    // weight → up to two cheapest candidates (list is penalty-sorted).
    let mut buckets: BTreeMap<u32, [Option<&Candidate>; 2]> = BTreeMap::new();
    for c in candidates {
        let slot = buckets.entry(c.weight).or_insert([None, None]);
        if slot[0].is_none() {
            slot[0] = Some(c);
        } else if slot[1].is_none() {
            slot[1] = Some(c);
        }
    }
    let mut best: Option<(Vec<JobId>, f64)> = None;
    let mut consider = |mates: Vec<JobId>, pi: f64| {
        if best.as_ref().is_none_or(|(_, b)| pi < *b) {
            best = Some((mates, pi));
        }
    };
    // Singles.
    if let Some([Some(c), _]) = buckets.get(&need) {
        consider(vec![c.id], c.penalty);
    }
    // Pairs.
    for (&w1, slot1) in buckets.range(..=need / 2) {
        let w2 = need - w1;
        if w2 < w1 {
            continue;
        }
        if w1 == w2 {
            if let [Some(a), Some(b)] = slot1 {
                consider(vec![a.id, b.id], a.penalty + b.penalty);
            }
        } else if let (Some(a), Some([Some(b), _])) = (slot1[0], buckets.get(&w2)) {
            consider(vec![a.id, b.id], a.penalty + b.penalty);
        }
    }
    best
}

/// Bounded DFS for `m ≥ 3` (ablation configurations): candidates are
/// penalty-sorted, so the first complete combination per branch is cheap and
/// pruning on the running PI keeps the search small for `nm ≤ 64`.
fn best_combo(candidates: &[Candidate], need: u32, max_mates: usize) -> Option<(Vec<JobId>, f64)> {
    fn dfs(
        cands: &[Candidate],
        start: usize,
        need: u32,
        left: usize,
        acc: &mut Vec<JobId>,
        acc_pi: f64,
        best: &mut Option<(Vec<JobId>, f64)>,
    ) {
        if need == 0 {
            if best.as_ref().is_none_or(|(_, b)| acc_pi < *b) {
                *best = Some((acc.clone(), acc_pi));
            }
            return;
        }
        if left == 0 || start >= cands.len() {
            return;
        }
        if let Some((_, b)) = best {
            if acc_pi >= *b {
                return; // prune: penalties are non-negative
            }
        }
        for i in start..cands.len() {
            let c = &cands[i];
            if c.weight > need {
                continue;
            }
            acc.push(c.id);
            dfs(cands, i + 1, need - c.weight, left - 1, acc, acc_pi + c.penalty, best);
            acc.pop();
        }
    }
    let mut best = None;
    let mut acc = Vec::with_capacity(max_mates);
    dfs(candidates, 0, need, max_mates, &mut acc, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, weight: u32, penalty: f64) -> Candidate {
        Candidate {
            id: JobId(id),
            weight,
            penalty,
        }
    }

    fn cfg() -> SdPolicyConfig {
        SdPolicyConfig::default()
    }

    #[test]
    fn single_exact_weight_preferred_when_cheapest() {
        let cands = vec![cand(1, 4, 1.5), cand(2, 2, 1.0), cand(3, 2, 1.1)];
        let sel = pick_mates(&cands, 4, 0, &cfg()).unwrap();
        // Single (p=1.5) vs pair 2+3 (p=2.1): single wins.
        assert_eq!(sel.mates, vec![JobId(1)]);
        assert!((sel.performance_impact - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pair_beats_expensive_single() {
        let cands = vec![cand(1, 4, 9.0), cand(2, 2, 1.0), cand(3, 2, 1.1)];
        let sel = pick_mates(&cands, 4, 0, &cfg()).unwrap();
        assert_eq!(sel.mates, vec![JobId(2), JobId(3)]);
        assert!((sel.performance_impact - 2.1).abs() < 1e-12);
    }

    #[test]
    fn same_weight_pair_uses_two_cheapest() {
        let cands = vec![cand(1, 3, 2.0), cand(2, 3, 1.0), cand(3, 3, 3.0)];
        // Candidates must be penalty-sorted (collect_candidates guarantees).
        let mut sorted = cands.clone();
        sorted.sort_by(|a, b| a.penalty.partial_cmp(&b.penalty).unwrap());
        let sel = pick_mates(&sorted, 6, 0, &cfg()).unwrap();
        assert_eq!(sel.mates.len(), 2);
        assert!(sel.mates.contains(&JobId(2)) && sel.mates.contains(&JobId(1)));
        assert!((sel.performance_impact - 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_combination_returns_none() {
        let cands = vec![cand(1, 3, 1.0), cand(2, 3, 1.0)];
        assert!(pick_mates(&cands, 5, 0, &cfg()).is_none());
        assert!(pick_mates(&cands, 7, 0, &cfg()).is_none());
        assert!(pick_mates(&[], 2, 0, &cfg()).is_none());
    }

    #[test]
    fn mates_never_exceed_two_by_default() {
        let cands = vec![cand(1, 1, 0.1), cand(2, 1, 0.1), cand(3, 1, 0.1)];
        // Needs 3 × weight-1 mates but m=2 → impossible.
        assert!(pick_mates(&cands, 3, 0, &cfg()).is_none());
    }

    #[test]
    fn three_mates_found_when_m_is_three() {
        let cands = vec![cand(1, 1, 0.1), cand(2, 1, 0.2), cand(3, 1, 0.3), cand(4, 2, 5.0)];
        let cfg3 = SdPolicyConfig {
            max_mates: 3,
            ..cfg()
        };
        let sel = pick_mates(&cands, 3, 0, &cfg3).unwrap();
        assert_eq!(sel.mates, vec![JobId(1), JobId(2), JobId(3)]);
        assert!((sel.performance_impact - 0.6).abs() < 1e-12);
    }

    #[test]
    fn dfs_matches_pair_search_for_m2() {
        let cands = vec![
            cand(1, 2, 1.3),
            cand(2, 3, 1.7),
            cand(3, 5, 2.0),
            cand(4, 2, 2.5),
            cand(5, 3, 0.9),
        ];
        let mut sorted = cands.clone();
        sorted.sort_by(|a, b| a.penalty.partial_cmp(&b.penalty).unwrap());
        let pair = best_pair(&sorted, 5).unwrap();
        let combo = best_combo(&sorted, 5, 2).unwrap();
        assert!((pair.1 - combo.1).abs() < 1e-12);
    }

    #[test]
    fn free_nodes_reduce_required_weight() {
        let cands = vec![cand(1, 2, 1.0)];
        let with_free = SdPolicyConfig {
            include_free_nodes: true,
            ..cfg()
        };
        // Target 4, only a weight-2 mate: impossible without free nodes…
        assert!(pick_mates(&cands, 4, 0, &cfg()).is_none());
        // …possible with 2 idle nodes.
        let sel = pick_mates(&cands, 4, 2, &with_free).unwrap();
        assert_eq!(sel.free_nodes, 2);
        assert_eq!(sel.mates, vec![JobId(1)]);
    }

    fn entry(id: u64, weight: u32) -> MateEntry {
        MateEntry {
            base: 1.0,
            id: JobId(id),
            wait: 0,
            req_time: 1_000,
            req_end: SimTime(10_000),
            weight,
            ranks_per_node: 1,
        }
    }

    fn pool(entries: &[MateEntry], latest_req_end: Option<SimTime>) -> MatePool<'_> {
        MatePool {
            entries,
            now: SimTime(0),
            full: 8,
            sharing: SharingFactor::HALF,
            idle_nodes: 0,
            latest_req_end,
        }
    }

    #[test]
    fn pruned_scan_after_a_hit_sees_no_stale_candidates() {
        let entries = [entry(1, 2), entry(2, 2)];
        let mut scratch = MateScratch::default();
        let all = pool(&entries, Some(SimTime::MAX));
        let hit = scratch.select(&all, 100, f64::INFINITY, 4, &cfg());
        assert_eq!(hit.map(|s| s.mates), Some(vec![JobId(1), JobId(2)]));
        // No running job ends late enough: the prune fires, and the
        // candidates the first trial left in the buffer must not leak in.
        for latest in [None, Some(SimTime(50))] {
            let p = pool(&entries, latest);
            assert_eq!(scratch.select(&p, 100, f64::INFINITY, 4, &cfg()), None);
        }
    }

    #[test]
    fn select_truncates_like_collect_candidates() {
        // 100 weight-1 candidates pass every filter; penalty rises with id.
        let entries: Vec<MateEntry> =
            (1..=100).map(|i| MateEntry { wait: i * 10, ..entry(i, 1) }).collect();
        let p = pool(&entries, Some(SimTime::MAX));
        assert_eq!(collect_candidates(&p, 100, f64::INFINITY, &cfg()).len(), 64);
        let sel = MateScratch::default().select(&p, 100, f64::INFINITY, 2, &cfg());
        assert_eq!(sel.map(|s| s.mates), Some(vec![JobId(1), JobId(2)]));
    }

    #[test]
    fn weight_precheck_is_exact_up_to_pairs() {
        let cands = [cand(1, 3, 0.0), cand(2, 5, 0.0), cand(3, 5, 0.0)];
        let mut buf = Vec::new();
        let mut can = |lo, hi, m| weights_can_sum(&cands, lo, hi, m, &mut buf);
        assert!(!can(1, 1, 0), "no mates allowed");
        assert!(can(5, 5, 1));
        assert!(!can(8, 8, 1));
        assert!(can(8, 8, 2));
        assert!(can(10, 10, 2), "two distinct candidates of one weight");
        assert!(!can(6, 6, 2), "3 + 3 would reuse one candidate");
        assert!(!can(13, 13, 2));
        assert!(can(13, 13, 3), "m >= 3 is not pre-checked");
        assert!(!can(6, 7, 2));
        assert!(can(6, 8, 2), "a need in the idle-node range");
    }

    #[test]
    fn free_nodes_cannot_cover_everything() {
        // At least one mate must participate (otherwise it's a static start).
        let with_free = SdPolicyConfig {
            include_free_nodes: true,
            ..cfg()
        };
        let cands = vec![cand(1, 2, 1.0)];
        let sel = pick_mates(&cands, 2, 10, &with_free).unwrap();
        assert_eq!(sel.free_nodes, 0, "free nodes capped at target-1");
        assert_eq!(sel.mates, vec![JobId(1)]);
    }
}
