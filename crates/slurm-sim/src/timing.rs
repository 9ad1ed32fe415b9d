//! Opt-in per-function hot-path timing attribution.
//!
//! The OAR simulator's `auto_bench_fct` idiom: every hot function gets a
//! cheap global counter + wall-time accumulator, always compiled in but dormant
//! until enabled (one relaxed atomic load per probe when off). Enable with
//! [`enable`] or the `SD_TIMING` environment variable; `run_scenario
//! --timing` prints the report. It attributes a pass's wall time to
//! `earliest_start`, the backfill trials, mate selection and the quota
//! checks instead of one opaque total.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Windowed-profiling refcount: each `/v1/profile?seconds=N` window (or a
/// long-lived service arming at boot) holds one count. Probes fire while
/// either the static switch or any window is armed.
static ARMED: AtomicU32 = AtomicU32::new(0);

/// Turns probes on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns probes off (accumulated totals are kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Arms a profiling window; probes fire until the matching [`disarm`].
/// Nestable (refcounted) — concurrent `/v1/profile` windows compose.
pub fn arm() {
    ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Releases one [`arm`] window.
pub fn disarm() {
    let prev = ARMED.fetch_sub(1, Ordering::Relaxed);
    debug_assert!(prev > 0, "disarm without a matching arm");
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || ARMED.load(Ordering::Relaxed) > 0
}

/// Enables probes when the `SD_TIMING` environment variable is set.
pub fn init_from_env() {
    if std::env::var_os("SD_TIMING").is_some_and(|v| v != "0") {
        enable();
    }
}

/// One instrumented function: invocation count + summed wall nanoseconds.
pub struct FnTimer {
    name: &'static str,
    count: AtomicU64,
    nanos: AtomicU64,
}

impl FnTimer {
    const fn new(name: &'static str) -> FnTimer {
        FnTimer {
            name,
            count: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> FnTiming {
        FnTiming {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            total_secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// `Profile::earliest_start` queries (the linear sweep both hot paths
/// share).
pub static EARLIEST_START: FnTimer = FnTimer::new("earliest_start");
/// One per pending job examined by a backfill pass (static trial +
/// flexible/malleable fallback together).
pub static BACKFILL_TRIAL: FnTimer = FnTimer::new("backfill_trial");
/// Per-entry tenant quota admission checks.
pub static QUOTA_CHECK: FnTimer = FnTimer::new("quota_check");
/// Fair-share prefix reorders (decay + stable sort).
pub static FAIR_SHARE_SORT: FnTimer = FnTimer::new("fair_share_sort");
/// One whole scheduler pass (the controller's `run_pass`) — the root frame
/// every finer-grained probe nests under.
pub static SCHED_PASS: FnTimer = FnTimer::new("sched_pass");
/// SD-Policy mate-pool scans: the candidate filter plus the weight
/// feasibility pre-check (one per malleable trial that reaches mate
/// selection).
pub static MATE_SCAN: FnTimer = FnTimer::new("mate_scan");
/// Sort, truncation and combination search — only for scans that passed
/// the pre-check.
pub static MATE_SELECT: FnTimer = FnTimer::new("mate_select");
/// Exclusive whole-node starts (`SimState::start_static`): placement, node
/// launches, release and energy bookkeeping.
pub static STATIC_START: FnTimer = FnTimer::new("static_start");
/// One simulation event (`SimState::dispatch`): submits and completions,
/// outside any scheduler pass.
pub static EVENT_DISPATCH: FnTimer = FnTimer::new("event_dispatch");

const ALL: [&FnTimer; 9] = [
    &SCHED_PASS,
    &EARLIEST_START,
    &BACKFILL_TRIAL,
    &MATE_SCAN,
    &MATE_SELECT,
    &STATIC_START,
    &EVENT_DISPATCH,
    &QUOTA_CHECK,
    &FAIR_SHARE_SORT,
];

/// RAII probe: measures from construction to drop when timing is enabled,
/// and is a no-op (no clock read) when disabled.
pub struct TimedScope {
    armed: Option<(Instant, &'static FnTimer)>,
}

impl Drop for TimedScope {
    fn drop(&mut self) {
        if let Some((start, timer)) = self.armed.take() {
            timer.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a timed scope over `timer` (no-op unless [`enabled`]).
pub fn scope(timer: &'static FnTimer) -> TimedScope {
    TimedScope {
        armed: enabled().then(|| (Instant::now(), timer)),
    }
}

/// A snapshot row of one instrumented function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnTiming {
    pub name: &'static str,
    pub count: u64,
    pub total_secs: f64,
}

impl FnTiming {
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs * 1e6 / self.count as f64
        }
    }
}

/// Snapshots every instrumented function (fixed, deterministic order).
pub fn report() -> Vec<FnTiming> {
    ALL.iter().map(|t| t.snapshot()).collect()
}

/// `after - before` over two [`report`] snapshots (a profiling window).
/// Panics if the snapshots are not index-aligned [`report`] outputs.
pub fn delta(before: &[FnTiming], after: &[FnTiming]) -> Vec<FnTiming> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| {
            assert_eq!(a.name, b.name, "delta over unlike snapshots");
            FnTiming {
                name: a.name,
                count: a.count.saturating_sub(b.count),
                total_secs: (a.total_secs - b.total_secs).max(0.0),
            }
        })
        .collect()
}

/// The nominal call hierarchy of each probe, root-first, for
/// collapsed-stack export. "Nominal" because probes measure inclusive wall
/// time wherever they fire: `earliest_start` also runs outside backfill
/// trials, but attributing each probe to its dominant caller keeps the
/// flamegraph honest for the hot path that matters (the `backfill_trial`
/// wall).
pub fn stack_frames(name: &str) -> &'static [&'static str] {
    match name {
        "sched_pass" => &["sd", "sched_pass"],
        "fair_share_sort" => &["sd", "sched_pass", "fair_share_sort"],
        "quota_check" => &["sd", "sched_pass", "quota_check"],
        "backfill_trial" => &["sd", "sched_pass", "backfill_trial"],
        "earliest_start" => &["sd", "sched_pass", "backfill_trial", "earliest_start"],
        "mate_scan" => &["sd", "sched_pass", "backfill_trial", "mate_scan"],
        "mate_select" => &["sd", "sched_pass", "backfill_trial", "mate_select"],
        "static_start" => &["sd", "sched_pass", "backfill_trial", "static_start"],
        "event_dispatch" => &["sd", "event_dispatch"],
        _ => &["sd", "other"],
    }
}

/// Maps a [`report`]/[`delta`] snapshot onto `(stack, self_micros)` rows
/// for collapsed-stack rendering: each probe's value is its inclusive wall
/// time minus its direct children's (clamped at zero — probes measure
/// independently, so a child can slightly exceed its nominal parent).
pub fn stack_rows(rows: &[FnTiming]) -> Vec<(Vec<&'static str>, u64)> {
    let totals: Vec<(&'static [&'static str], u64)> = rows
        .iter()
        .map(|r| (stack_frames(r.name), (r.total_secs * 1e6) as u64))
        .collect();
    totals
        .iter()
        .map(|(frames, total)| {
            let children: u64 = totals
                .iter()
                .filter(|(f, _)| f.len() == frames.len() + 1 && f.starts_with(frames))
                .map(|(_, v)| *v)
                .sum();
            (frames.to_vec(), total.saturating_sub(children))
        })
        .collect()
}

/// Zeroes all counters (e.g. between scenario runs).
pub fn reset() {
    for t in ALL {
        t.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The switches are process-global and other tests in this binary run
    // scheduler passes concurrently, which fire the real probes while the
    // switch is on. Exact counts are therefore taken on a probe only this
    // test uses; every switch assertion stays in one test so parallel
    // threads can't interleave enable/arm windows.
    static PROBE: FnTimer = FnTimer::new("test_probe");

    #[test]
    fn probes_accumulate_only_when_enabled() {
        disable();
        PROBE.reset();
        drop(scope(&PROBE));
        assert_eq!(PROBE.snapshot().count, 0, "dormant when off");

        enable();
        for _ in 0..3 {
            drop(scope(&PROBE));
        }
        assert_eq!(PROBE.snapshot().count, 3);
        assert!(PROBE.snapshot().total_secs >= 0.0);
        let names: Vec<&str> = report().iter().map(|r| r.name).collect();
        assert_eq!(names, ALL.map(|t| t.name));
        assert_eq!(names.len(), 9);

        disable();
        PROBE.reset();
        assert_eq!(PROBE.snapshot(), FnTiming { name: "test_probe", count: 0, total_secs: 0.0 });

        // Windowed arming: probes fire while any arm() window is open.
        assert!(!enabled());
        arm();
        assert!(enabled());
        drop(scope(&PROBE));
        disarm();
        assert!(!enabled());
        drop(scope(&PROBE));
        assert_eq!(PROBE.snapshot().count, 1, "only the armed window");
        reset();
    }

    #[test]
    fn stack_rows_subtract_children_and_stay_rooted() {
        // Synthetic snapshot: pass 100 ms, trials 60 ms, earliest 20 ms.
        let rows = vec![
            FnTiming { name: "sched_pass", count: 1, total_secs: 0.100 },
            FnTiming { name: "backfill_trial", count: 10, total_secs: 0.060 },
            FnTiming { name: "earliest_start", count: 10, total_secs: 0.020 },
        ];
        let stacks = stack_rows(&rows);
        let find = |suffix: &str| {
            stacks
                .iter()
                .find(|(f, _)| f.last() == Some(&suffix))
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(find("sched_pass"), 40_000, "pass self = 100 - 60 ms");
        assert_eq!(find("backfill_trial"), 40_000, "trial self = 60 - 20 ms");
        assert_eq!(find("earliest_start"), 20_000);
        assert!(stacks.iter().all(|(f, _)| f[0] == "sd"));
        // Every timer has a hierarchy entry (no frame falls back to other).
        for r in report() {
            assert_ne!(stack_frames(r.name), ["sd", "other"], "{}", r.name);
        }
    }
}
