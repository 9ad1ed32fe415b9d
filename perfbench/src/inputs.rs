//! The generated inputs every workload runs on.
//!
//! The job trace is the paper workload at full scale, generated from the
//! workload seed (default 42). The run seed then only chooses the order of
//! submissions that share an instant, which SWF leaves arbitrary: every run
//! seed gives an equally valid input with the same offered load. A fresh
//! trace per run seed would swing the simulated work by about 2× (the
//! backlog of a saturated machine depends on the realisation), which would
//! bury every change the benchmark exists to show.

use simkit::DetRng;
use workload::PaperWorkload;

pub fn trace(wl: PaperWorkload, workload_seed: u64, seed: u64) -> swf::Trace {
    let mut trace = wl.generate(workload_seed, 1.0);
    let mut rng = DetRng::new(seed);
    let jobs = &mut trace.jobs;
    let mut start = 0;
    while start < jobs.len() {
        let end = start
            + jobs[start..]
                .iter()
                .take_while(|j| j.submit == jobs[start].submit)
                .count();
        // Fisher–Yates over the run of equal submit instants.
        for i in (start + 1..end).rev() {
            let k = start + (rng.next_u64() % (i - start + 1) as u64) as usize;
            jobs.swap(i, k);
        }
        start = end;
    }
    trace
}

/// The run seed of repetition `k`: the run seed itself for the first, then
/// well-spread values so neighbouring run seeds share no inputs.
pub fn variant(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_ties_only_reorder() {
        let a = trace(PaperWorkload::W3Ricc, 42, 1);
        let b = trace(PaperWorkload::W3Ricc, 42, 1);
        let c = trace(PaperWorkload::W3Ricc, 42, 2);
        assert_eq!(a.jobs, b.jobs);
        assert_ne!(a.jobs, c.jobs, "W3 has simultaneous submissions to reorder");
        let submits = |t: &swf::Trace| t.jobs.iter().map(|j| j.submit).collect::<Vec<_>>();
        assert_eq!(submits(&a), submits(&c));
        let mut ids_a: Vec<u64> = a.jobs.iter().map(|j| j.job_id).collect();
        let mut ids_c: Vec<u64> = c.jobs.iter().map(|j| j.job_id).collect();
        ids_a.sort_unstable();
        ids_c.sort_unstable();
        assert_eq!(ids_a, ids_c);
    }
}
