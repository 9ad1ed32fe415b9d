//! The controller (slurmctld equivalent): the simulation main loop.
//!
//! Event-driven: the clock jumps between event instants; all events sharing
//! an instant are dispatched as one batch, then the scheduler runs once —
//! mirroring how slurmctld coalesces work per scheduling cycle while keeping
//! the simulation deterministic.

use crate::backfill::Scheduler;
use crate::result::SimResult;
use crate::state::SimState;

/// Drives a [`SimState`] with a [`Scheduler`] until no events remain.
pub struct Controller<S: Scheduler> {
    pub state: SimState,
    pub scheduler: S,
}

impl<S: Scheduler> Controller<S> {
    pub fn new(state: SimState, scheduler: S) -> Self {
        Controller { state, scheduler }
    }

    /// Runs to completion and returns the collected results.
    pub fn run(mut self) -> SimResult {
        self.step_until(None);
        self.into_result()
    }

    /// Processes event batches in order while their instant is `<= limit`
    /// (`None` = until the event queue drains). This is the *entire* main
    /// loop: [`Controller::run`] is `step_until(None)` + result collection,
    /// and the online service (`sd-serve`) advances its virtual clock through
    /// the very same code path — which is what makes a scripted live session
    /// bit-identical to the offline replay of the same workload.
    pub fn step_until(&mut self, limit: Option<simkit::SimTime>) {
        while let Some(t) = self.state.events.peek_time() {
            if limit.is_some_and(|l| t > l) {
                break;
            }
            let mut changed = false;
            while self.state.events.peek_time() == Some(t) {
                let ev = self.state.events.pop().expect("peeked event exists");
                self.state.now = t;
                changed |= self.state.dispatch(ev.payload);
            }
            if changed {
                let dirty = self.state.take_dirty();
                self.gated_pass(dirty);
            }
        }
    }

    /// One scheduler pass, bracketed by `pass_begin`/`pass_end` trace
    /// events when tracing is armed. `wall_ns` lives only in these two
    /// events; the virtual-time stream stays deterministic.
    fn run_pass(&mut self) {
        let _pass = crate::timing::scope(&crate::timing::SCHED_PASS);
        let st = &mut self.state;
        if st.trace.active() {
            let pass = st.stats.sched_passes + 1;
            let before = st.stats.started_static + st.stats.started_malleable;
            st.trace.emit(
                st.now.secs(),
                sd_trace::TraceKind::PassBegin { pass, wall_ns: st.trace.wall_ns() },
            );
            self.scheduler.schedule(&mut self.state);
            let st = &mut self.state;
            let started =
                (st.stats.started_static + st.stats.started_malleable - before) as u32;
            st.trace.emit(
                st.now.secs(),
                sd_trace::TraceKind::PassEnd { pass, wall_ns: st.trace.wall_ns(), started },
            );
        } else {
            self.scheduler.schedule(&mut self.state);
        }
        self.state.stats.sched_passes += 1;
    }

    /// Runs one scheduling pass outside the event loop (same gating as the
    /// in-loop passes). The online service uses this after out-of-band queue
    /// changes (a cancellation) so the scheduler sees them without an event.
    pub fn pass_now(&mut self) {
        let dirty = self.state.take_dirty();
        if dirty != crate::state::DirtyFlags::default() {
            self.gated_pass(dirty);
        }
    }

    /// Pass gating: skips the pass when the scheduler proves it could not
    /// act on what changed. Callers consume the dirty flags either way, so
    /// they always cover exactly the batches since the last pass
    /// opportunity.
    fn gated_pass(&mut self, dirty: crate::state::DirtyFlags) {
        if self.scheduler.pass_needed(&self.state, dirty) {
            self.run_pass();
        } else {
            self.state.stats.passes_skipped += 1;
        }
    }

    /// Whether every event has been processed (nothing left to simulate).
    pub fn idle(&self) -> bool {
        self.state.events.is_empty()
    }

    /// Finishes the run: collects outcomes, energy and counters.
    pub fn into_result(self) -> SimResult {
        SimResult::from_state(self.state, self.scheduler.name())
    }
}

/// One-call convenience: build the state, run the scheduler, return results.
pub fn run_trace<S: Scheduler>(
    spec: cluster::ClusterSpec,
    cfg: crate::config::SlurmConfig,
    trace: &swf::Trace,
    rate_model: Box<dyn crate::rate::RateModel>,
    sharing: drom::SharingFactor,
    scheduler: S,
) -> SimResult {
    let state = SimState::new(spec, cfg, trace, rate_model, sharing);
    Controller::new(state, scheduler).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::StaticBackfill;
    use crate::config::SlurmConfig;
    use crate::rate::WorstCaseModel;
    use cluster::ClusterSpec;
    use drom::SharingFactor;
    use swf::{SwfJob, Trace};

    fn trace(jobs: Vec<SwfJob>) -> Trace {
        Trace::new(Default::default(), jobs)
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> SwfJob {
        SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn small_spec() -> ClusterSpec {
        let mut s = ClusterSpec::ricc();
        s.nodes = 8;
        s
    }

    #[test]
    fn every_job_completes_exactly_once() {
        let jobs: Vec<SwfJob> = (1..=50)
            .map(|i| job(i, i * 7, 50 + i * 3, 1 + i % 4, 200 + i * 3))
            .collect();
        let res = run_trace(
            small_spec(),
            SlurmConfig::default(),
            &trace(jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            StaticBackfill,
        );
        assert_eq!(res.outcomes.len(), 50);
        let mut ids: Vec<u64> = res.outcomes.iter().map(|o| o.id.0).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 50);
        assert_eq!(res.leftover_pending, 0);
        assert_eq!(res.leftover_running, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let jobs: Vec<SwfJob> = (1..=80)
            .map(|i| job(i, (i * 13) % 500, 30 + (i * 17) % 300, 1 + i % 5, 400))
            .collect();
        let run = || {
            run_trace(
                small_spec(),
                SlurmConfig::default(),
                &trace(jobs.clone()),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
                StaticBackfill,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.energy_joules, b.energy_joules);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn makespan_spans_first_submit_to_last_end() {
        let res = run_trace(
            small_spec(),
            SlurmConfig::default(),
            &trace(vec![job(1, 100, 50, 1, 100), job(2, 200, 100, 1, 200)]),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            StaticBackfill,
        );
        assert_eq!(res.first_submit.secs(), 100);
        assert_eq!(res.last_end.secs(), 300);
        assert_eq!(res.makespan, 200);
    }

    #[test]
    fn empty_trace_is_fine() {
        let res = run_trace(
            small_spec(),
            SlurmConfig::default(),
            &trace(vec![]),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            StaticBackfill,
        );
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.makespan, 0);
    }
}
