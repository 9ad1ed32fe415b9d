//! `perfbench` — end-to-end and per-layer benchmark of the simulator and
//! `sd-serve`. See `README.md` in this directory for the workloads, the
//! metric glossary and the layer map.
//!
//! ```sh
//! perfbench --workload sim-w3-sd --seed 42 --seconds 20 --trace 0 \
//!     --serve-bin target/release/sd_serve --out perfbench/out
//! ```
//!
//! Prints one line per metric, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! correctness gate failed and 2 on bad arguments.

mod inputs;
mod layers;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod wire;

use report::{Ctx, Report};
use std::path::PathBuf;
use workload::PaperWorkload;

const WORKLOADS: [&str; 4] = [
    "sim-w4-sd",
    "sim-w3-sd",
    "serve-ingest-wal",
    "serve-session",
];

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: perfbench --workload <{}> [--seed N] [--workload-seed N] [--seconds S] [--trace 0|1] \
         --serve-bin <path> --out <dir>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut workload = None;
    let mut seed = 42u64;
    let mut workload_seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut serve_bin = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--workload-seed" => {
                workload_seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("bad --workload-seed"))
            }
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Ctx {
        workload,
        seed,
        workload_seed,
        seconds,
        trace,
        serve_bin: serve_bin.unwrap_or_else(|| usage("--serve-bin is required")),
        out: out.unwrap_or_else(|| usage("--out is required")),
    }
}

fn main() {
    let ctx = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        usage(&format!("cannot create {}: {e}", ctx.out.display()));
    }
    let mut report = Report::default();
    match ctx.workload.as_str() {
        "sim-w4-sd" => sim::run(&ctx, PaperWorkload::W4Curie, &mut report),
        "sim-w3-sd" => sim::run(&ctx, PaperWorkload::W3Ricc, &mut report),
        "serve-ingest-wal" => serve::run(&ctx, serve::Mode::IngestWal, &mut report),
        "serve-session" => serve::run(&ctx, serve::Mode::Session, &mut report),
        _ => unreachable!("workload validated in parse_args"),
    }
    report.print_table();
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
