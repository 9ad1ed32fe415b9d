//! Order statistics over raw samples and process memory readings.

/// Sorts `v` ascending (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Exact nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (midpoint of the two middle samples for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Prints one latency line: sample count, p50/p90/p99 and an optional
/// rate. These lines are for people; the JSON carries the metrics.
pub fn print_latency(what: &str, ms: &[f64], per_s: f64) {
    if ms.is_empty() {
        return;
    }
    let s = sorted(ms.to_vec());
    println!(
        "{what}: n={} p50={:.4} ms p90={:.4} ms p99={:.4} ms{}",
        s.len(),
        quantile(&s, 0.5),
        quantile(&s, 0.9),
        quantile(&s, 0.99),
        if per_s > 0.0 {
            format!(" rate={per_s:.1}/s")
        } else {
            String::new()
        }
    );
}

/// Peak resident set size (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status`; `None` when the process or field is gone.
pub fn vm_hwm_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
