//! Macro-benchmark driver: times end-to-end W3/W4 scheduler runs and writes
//! the perf trajectory to `BENCH_<rev>.json`.
//!
//! ```sh
//! cargo run --release --bin bench_macro                      # CI panel
//! cargo run --release --bin bench_macro -- --full            # + paper scale
//! cargo run --release --bin bench_macro -- --check BENCH_baseline.json
//! ```
//!
//! `--check` exits 1 if any entry's wall time regresses more than the
//! tolerance (default 25 %) over the committed baseline, normalised for
//! machine speed.

use sd_bench::macrobench::{check_regressions, measure, panel, parse_check_map, render_json};
use sd_bench::{CliArgs, CliError, USAGE};
use sched_metrics::Table;

const EXTRA_USAGE: &str = "bench_macro — timed macro-benchmark of the scheduler hot path

  --iters <n>          repetitions per entry (default 3)
  --rev <label>        revision label for the output file (default: git HEAD)
  --check <file>       fail (exit 1) on >tolerance wall regression vs file
  --tolerance <pct>    regression tolerance percentage (default 25)
";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{EXTRA_USAGE}\n{USAGE}");
    std::process::exit(2);
}

struct BenchCli {
    iters: usize,
    rev: Option<String>,
    check: Option<String>,
    tolerance: f64,
    common: CliArgs,
}

fn parse_cli() -> BenchCli {
    let mut iters = 3usize;
    let mut rev = None;
    let mut check = None;
    let mut tolerance = 25.0;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match a.as_str() {
            "--iters" => {
                iters = value("--iters")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --iters"));
                if iters == 0 {
                    fail("--iters must be at least 1");
                }
            }
            "--rev" => rev = Some(value("--rev")),
            "--check" => check = Some(value("--check")),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --tolerance"));
            }
            _ => rest.push(a),
        }
    }
    let common = match CliArgs::parse(rest) {
        Ok(c) => c,
        Err(CliError::Help) => {
            println!("{EXTRA_USAGE}\n{USAGE}");
            std::process::exit(0);
        }
        Err(CliError::Bad(msg)) => fail(&msg),
    };
    common.require_supported("bench_macro", &["--out"]);
    BenchCli {
        iters,
        rev,
        check,
        tolerance,
        common,
    }
}

fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "dev".to_string())
}

fn main() {
    let cli = parse_cli();
    let rev = cli.rev.clone().unwrap_or_else(git_short_rev);
    let entries = panel(cli.common.full);

    eprintln!(
        "bench_macro: {} entries × {} iters (rev {rev})",
        entries.len(),
        cli.iters
    );
    let mut results = Vec::with_capacity(entries.len());
    for e in &entries {
        eprint!("  {} …", e.name);
        let r = measure(e, cli.iters);
        eprintln!(" {:.3}s", r.timing.sim_s_min);
        results.push(r);
    }

    let mut t = Table::new(&[
        "entry", "jobs", "events", "passes", "skipped", "peak-prof", "min(s)", "mean(s)",
    ]);
    for r in &results {
        let m = &r.timing;
        t.row(vec![
            r.entry.name.clone(),
            format!("{}", r.jobs),
            format!("{}", m.events),
            format!("{}", m.sched_passes),
            format!("{}", m.passes_skipped),
            format!("{}", m.peak_profile_len),
            format!("{:.3}", m.sim_s_min),
            format!("{:.3}", m.sim_s_mean),
        ]);
    }
    println!("{}", t.render());

    let payload = render_json(&rev, cli.iters, &results);
    let out = cli
        .common
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{rev}.json"));
    std::fs::write(&out, &payload).unwrap_or_else(|e| fail(&format!("writing {out}: {e}")));
    eprintln!("wrote {out}");

    let mut failed = false;
    if let Some(path) = &cli.check {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        let baseline = parse_check_map(&text);
        if baseline.is_empty() {
            fail(&format!("{path} has no check_sim_s section"));
        }
        for line in check_regressions(&results, &baseline, cli.tolerance / 100.0) {
            eprintln!("FAIL: {line}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
