//! The service layers, timed one call at a time in this process: the
//! traced run replays the workload's submissions through `sd_serve::http`,
//! `sd_serve::json`/`proto`, `sd_durable::DurableStore` and an in-process
//! `sd_serve::Engine`, with a span around each call.

use crate::report::{Ctx, Report};
use crate::serve::{self, submit_request, ServerCounters, Timed};
use crate::sim::{self, check_complete};
use crate::spans::Tracer;
use crate::stats::{quantile, sorted};
use crate::wire::render;
use drom::SharingFactor;
use sd_durable::{DurableStore, FsyncPolicy};
use sd_serve::durable::WalCmd;
use sd_serve::engine::{ClockMode, Command, Engine};
use sd_serve::http::{self, Response};
use sd_serve::proto::{self, SubmitRequest};
use sd_serve::Json;
use slurm_sim::{IdealModel, SimState};
use std::sync::mpsc;
use std::time::Instant;
use workload::PaperWorkload;

/// Jobs the sim workloads push through the service layers in their traced
/// run (their end-to-end path has no service; this keeps every per-layer
/// metric measured on every workload).
const PROBE_JOBS: usize = 2_000;

/// Per-call wall times (seconds) of every layer the replay drove.
pub struct Layers {
    parse: Vec<f64>,
    decode: Vec<f64>,
    append: Vec<f64>,
    submit: Vec<f64>,
    encode: Vec<f64>,
    advance: Vec<f64>,
    stats: Vec<f64>,
    pub records: u64,
    pub bytes: u64,
}

fn mean_us(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64 * 1e6
}

impl Layers {
    /// Reports the service-layer metrics. `loopback_ms` are the submit
    /// latencies the client measured over the wire; what the in-process
    /// layers do not explain of their mean is `wire.other_us`.
    pub fn metrics(
        &self,
        report: &mut Report,
        loopback_ms: &[f64],
        server: &ServerCounters,
        wal: bool,
    ) {
        let advance = sorted(self.advance.clone());
        let in_process = mean_us(&self.parse)
            + mean_us(&self.decode)
            + mean_us(&self.submit)
            + mean_us(&self.encode)
            + if wal { mean_us(&self.append) } else { 0.0 };
        let loopback_us = loopback_ms.iter().sum::<f64>() / loopback_ms.len().max(1) as f64 * 1e3;
        report.metric("http.parse_us", mean_us(&self.parse), "us");
        report.metric("json.decode_us", mean_us(&self.decode), "us");
        report.metric("http.encode_us", mean_us(&self.encode), "us");
        report.metric("engine.submit_us", mean_us(&self.submit), "us");
        report.metric("engine.advance_p50_us", quantile(&advance, 0.5) * 1e6, "us");
        report.metric(
            "engine.advance_p99_us",
            quantile(&advance, 0.99) * 1e6,
            "us",
        );
        report.metric("engine.stats_us", mean_us(&self.stats), "us");
        report.metric("durable.append_us", mean_us(&self.append), "us");
        report.metric("durable.records", self.records as f64, "count");
        report.metric("durable.bytes", self.bytes as f64, "bytes");
        report.metric("wire.other_us", loopback_us - in_process, "us");
        report.metric("server.requests", server.requests as f64, "count");
        report.metric("server.non2xx", server.non2xx as f64, "count");
    }
}

/// One request/reply round trip to the engine thread.
fn call<T>(
    tx: &mpsc::Sender<Command>,
    build: impl FnOnce(mpsc::Sender<T>) -> Command,
) -> Result<T, String> {
    let (rtx, rrx) = mpsc::channel();
    tx.send(build(rtx))
        .map_err(|_| "engine stopped".to_string())?;
    rrx.recv().map_err(|_| "engine dropped a reply".to_string())
}

/// Replays `jobs` as a session (advance, submit, a stats read every tenth
/// step) through the in-process layers, appending each submission to a
/// fresh `DurableStore` with fsync `always` (the durable write path of
/// serve-ingest-wal), so `durable.append_us` is measured on every workload.
/// Failures become failed gates.
pub fn replay(
    ctx: &Ctx,
    wl: PaperWorkload,
    jobs: &[swf::SwfJob],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<Layers> {
    let out = replay_inner(ctx, wl, jobs, tracer);
    report.ops(
        jobs.len() as u64,
        u64::from(out.is_err()) * jobs.len() as u64,
    );
    match out {
        Ok(l) => Some(l),
        Err(e) => {
            report.gate("in-process layer replay", Err(e));
            None
        }
    }
}

fn replay_inner(
    ctx: &Ctx,
    wl: PaperWorkload,
    jobs: &[swf::SwfJob],
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let dir = ctx.out.join(format!("layers-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) =
        DurableStore::open(&dir, FsyncPolicy::Always).map_err(|e| format!("open store: {e}"))?;
    let state = SimState::new_online(
        wl.cluster(1.0),
        sim::slurm_config(wl),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let engine = Engine::new(state, Box::new(sim::policy()), ClockMode::Virtual);
    let (tx, rx) = mpsc::channel();
    let engine_thread = std::thread::spawn(move || engine.run(rx));
    let mut l = Layers {
        parse: Vec::new(),
        decode: Vec::new(),
        append: Vec::new(),
        submit: Vec::new(),
        encode: Vec::new(),
        advance: Vec::new(),
        stats: Vec::new(),
        records: 0,
        bytes: 0,
    };
    let time =
        |tracer: &mut Tracer, name: &'static str, req: u64, v: &mut Vec<f64>, t0: Instant| {
            let t1 = Instant::now();
            tracer.record(name, req, t0, t1);
            v.push((t1 - t0).as_secs_f64());
        };
    let outcome = (|| -> Result<(), String> {
        for (i, j) in jobs.iter().enumerate() {
            let req = i as u64 + 1;
            let sub = submit_request(j);
            let raw = render("POST", "/v1/jobs", &sub.encode().render());
            let root = tracer.begin("request", req);
            let to = sub.submit.unwrap_or(0).saturating_sub(1);
            let t0 = Instant::now();
            call(&tx, |reply| Command::Advance { to, reply })?.map_err(|e| e.to_string())?;
            time(tracer, "engine.advance", req, &mut l.advance, t0);

            let t0 = Instant::now();
            let parsed = http::read_request(&mut &raw[..])
                .map_err(|e| e.to_string())?
                .ok_or("empty request")?;
            time(tracer, "http.parse", req, &mut l.parse, t0);

            let t0 = Instant::now();
            let decoded = proto::body_json(&parsed.body).and_then(|v| SubmitRequest::decode(&v))?;
            time(tracer, "json.decode", req, &mut l.decode, t0);

            let t0 = Instant::now();
            store
                .append(req, &WalCmd::Submit(decoded.clone()).encode())
                .map_err(|e| format!("append: {e}"))?;
            time(tracer, "durable.append", req, &mut l.append, t0);

            let t0 = Instant::now();
            let ack = call(&tx, |reply| Command::Submit {
                req: decoded,
                reply,
            })?
            .map_err(|e| e.to_string())?;
            time(tracer, "engine.submit", req, &mut l.submit, t0);

            let t0 = Instant::now();
            let mut wire = Vec::with_capacity(64);
            Response::json(
                201,
                &Json::obj().set("id", ack.id).set("submit", ack.submit),
            )
            .write_to(&mut wire, false)
            .map_err(|e| format!("encode: {e}"))?;
            time(tracer, "http.encode", req, &mut l.encode, t0);

            if (i + 1) % 10 == 0 {
                let t0 = Instant::now();
                call(&tx, |reply| Command::Stats { reply })?;
                time(tracer, "engine.stats", req, &mut l.stats, t0);
            }
            tracer.end(root);
        }
        call(&tx, |reply| Command::Drain { reply })?.map_err(|e| e.to_string())?;
        let res = call(&tx, |reply| Command::Result { reply })?;
        check_complete(&res, jobs.len())
    })();
    drop(tx);
    let engine = engine_thread.join();
    l.records = store.wal_records_written();
    l.bytes = store.wal_bytes();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;
    engine.map_err(|_| "engine thread panicked".to_string())?;
    Ok(l)
}

/// The sim workloads' service-layer probe: the first [`PROBE_JOBS`] jobs
/// of the trace through the in-process layers and, over loopback, through
/// a spawned `sd-serve` for the same machine.
pub fn run_service_probe(ctx: &Ctx, wl: PaperWorkload, report: &mut Report, sim_tracer: Tracer) {
    let trace = crate::inputs::trace(wl, ctx.workload_seed, ctx.seed);
    let jobs = &trace.jobs[..PROBE_JOBS.min(trace.jobs.len())];
    let mut tracer = Tracer::default();
    let layers = replay(ctx, wl, jobs, &mut tracer, report);
    let loopback = serve::probe(ctx, wl, jobs);
    report.ops(
        jobs.len() as u64,
        u64::from(loopback.is_err()) * jobs.len() as u64,
    );
    match (layers, loopback) {
        (Some(l), Ok((calls, metrics))) => {
            let ms: Vec<f64> = calls.iter().map(Timed::ms).collect();
            l.metrics(report, &ms, &ServerCounters::parse(&metrics), false);
            for c in &calls {
                tracer.record(c.name, c.req, c.start, c.end);
            }
        }
        (_, Err(e)) => report.gate("loopback probe", Err(e)),
        (None, Ok(_)) => {}
    }
    report.metric(
        "trace.spans",
        (tracer.len() + sim_tracer.len()) as f64,
        "count",
    );
    finish(ctx, &[("sim", &sim_tracer), ("service", &tracer)]);
}

/// Writes each recorder's spans to `<out>/spans-<workload>-<seed>-<part>.jsonl`
/// and prints every layer's self time.
pub fn finish(ctx: &Ctx, tracers: &[(&str, &Tracer)]) {
    println!(
        "{:<24} {:>10} {:>14} {:>14}",
        "span", "count", "total_s", "self_s"
    );
    for (part, t) in tracers {
        for (name, lt) in t.layer_times() {
            println!(
                "{name:<24} {:>10} {:>14.6} {:>14.6}",
                lt.count, lt.total_s, lt.self_s
            );
        }
        let path = ctx
            .out
            .join(format!("spans-{}-{}-{part}.jsonl", ctx.workload, ctx.seed));
        match t.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
