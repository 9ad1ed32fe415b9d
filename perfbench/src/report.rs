//! The run's result: metrics, correctness gates and the final JSON line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Everything a workload needs besides its own inputs.
pub struct Ctx {
    pub workload: String,
    /// Orders simultaneous submissions (see `inputs`).
    pub seed: u64,
    /// Generates the job trace.
    pub workload_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sd_serve` executable the serve workloads spawn.
    pub serve_bin: PathBuf,
    /// Scratch directory for WAL directories, span files and the counter
    /// ledger.
    pub out: PathBuf,
}

#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// One correctness gate; a failed gate counts as a failed operation.
    pub fn gate(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable lines, one per metric, then every failed gate.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }

    /// The machine-read last line of standard output.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Exact work counters must repeat across runs of one seed: the first run
/// with given arguments records them under `out`, later runs with the same
/// arguments compare against the record.
pub fn check_ledger(report: &mut Report, ctx: &Ctx, kind: &str, counters: &[(&str, u64)]) {
    let line: String = counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let dir = ctx.out.join("counters");
    let path = dir.join(format!(
        "{}-w{}-s{}-t{}-{kind}.txt",
        ctx.workload, ctx.workload_seed, ctx.seed, ctx.seconds
    ));
    let outcome = match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => Ok(()),
        Ok(prev) => Err(format!(
            "counters changed for this seed: was [{}], now [{line}]",
            prev.trim()
        )),
        Err(_) => write_ledger(&dir, &path, &line),
    };
    report.gate(
        &format!("{kind} counters repeat across runs of seed {}", ctx.seed),
        outcome,
    );
    println!("counters[{kind}] {line}");
}

fn write_ledger(dir: &Path, path: &Path, line: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(path, format!("{line}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.metric("setup_s", 0.25, "s");
        r.gate("ok", Ok(()));
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.gate("bad", Err("boom".into()));
        assert!(!r.correct());
    }
}
