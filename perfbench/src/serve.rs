//! The loopback service workloads (`serve-ingest-wal`, `serve-session`):
//! a spawned `sd-serve` process driven over HTTP by this process.

use crate::report::{check_ledger, Ctx, Report};
use crate::sim::{self, check_complete, check_same};
use crate::spans::Tracer;
use crate::stats::{median, print_latency, quantile, sorted, vm_hwm_mib};
use crate::wire::{render, Conn};
use sd_serve::proto::{self, SubmitRequest};
use sd_serve::Json;
use slurm_sim::SimResult;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::PaperWorkload;

/// Both serve workloads replay the full-scale W3 trace.
pub const WL: PaperWorkload = PaperWorkload::W3Ricc;

/// How long a server may take to boot or to exit after `/v1/shutdown`
/// before the run counts it as hung.
const WATCHDOG: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Two closed-loop connections submit the trace with virtual
    /// timestamps under `--wal --wal-fsync always`, then one drain.
    IngestWal,
    /// One closed-loop connection replays the trace as a live session:
    /// advance to each submit instant minus one, submit, and poll
    /// `/v1/stats` every tenth step.
    Session,
}

/// The submission the service receives for one trace record.
pub fn submit_request(j: &swf::SwfJob) -> SubmitRequest {
    SubmitRequest {
        procs: j.procs().expect("generated jobs have processor counts"),
        req_time: j.requested_time().unwrap_or(0),
        run_time: j.runtime().expect("generated jobs have runtimes"),
        submit: Some(j.submit.max(0) as u64),
        malleable: None,
        trace_id: Some(j.job_id),
        tenant: Some(j.user.max(0) as u64),
        project: Some(j.group.max(0) as u64),
    }
}

/// The trace an offline run builds from submissions in service order:
/// exactly the records the engine derives from each request.
pub fn offline_trace(reqs: &[&SubmitRequest]) -> swf::Trace {
    let jobs = reqs
        .iter()
        .map(|r| {
            r.to_swf(
                r.trace_id.expect("trace ids are always sent"),
                r.submit.unwrap_or(0),
            )
        })
        .collect();
    swf::Trace::new(Default::default(), jobs)
}

/// A spawned `sd-serve`; killed and reaped on drop if still running.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Server {
    /// Spawns the service and waits until `/healthz` answers; returns the
    /// server and the seconds that took.
    pub fn spawn(ctx: &Ctx, cluster: &str, wal: Option<&Path>) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(&ctx.serve_bin);
        cmd.args([
            "--port",
            "0",
            "--workers",
            "2",
            "--cluster",
            cluster,
            "--scale",
            "1",
        ])
        .args(["--log-level", "error"]);
        if let Some(dir) = wal {
            cmd.arg("--wal").arg(dir).args(["--wal-fsync", "always"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.serve_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Forwards the first line and keeps draining, so the service never
        // writes into a closed pipe.
        let pump = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            while matches!(r.read_line(&mut line), Ok(n) if n > 0) {
                let _ = tx.send(std::mem::take(&mut line));
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(pump),
        };
        let line = rx
            .recv_timeout(WATCHDOG)
            .map_err(|_| "sd-serve never reported its address".to_string())?;
        server.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line from sd-serve: {line:?}"))?;
        loop {
            let healthy = Conn::connect(server.addr)
                .ok()
                .and_then(|mut c| c.call("GET", "/healthz", "").ok())
                .is_some_and(|(status, _)| status == 200);
            if healthy {
                return Ok((server, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > WATCHDOG {
                return Err("sd-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(&self.child.id().to_string())
    }

    /// Posts `/v1/shutdown`, reads the final result in full and waits for
    /// the process to exit; a process still alive after the watchdog is
    /// killed and reported as hung.
    pub fn shutdown(mut self) -> Result<SimResult, String> {
        let res = Conn::connect(self.addr)
            .map_err(|e| format!("connect for shutdown: {e}"))
            .and_then(|mut c| expect_ok(c.call("POST", "/v1/shutdown", ""), 200))
            .and_then(|body| decode_result(&body));
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return res,
                Ok(Some(status)) => return Err(format!("sd-serve exited with {status}")),
                Ok(None) if t0.elapsed() > WATCHDOG => {
                    return Err("sd-serve hung after /v1/shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for sd-serve: {e}")),
            }
        }
    }

    /// `GET /metrics`, as text.
    pub fn metrics(&self) -> Result<String, String> {
        let mut c = Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let body = expect_ok(c.call("GET", "/metrics", ""), 200)?;
        String::from_utf8(body).map_err(|_| "metrics are not UTF-8".into())
    }

    /// Drains the virtual clock and fetches the full result.
    pub fn drain_and_fetch(&self) -> Result<SimResult, String> {
        let mut c = Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        expect_ok(c.call("POST", "/v1/drain", ""), 200)?;
        decode_result(&expect_ok(c.call("GET", "/v1/result", ""), 200)?)
    }
}

fn expect_ok(r: Result<(u16, Vec<u8>), String>, want: u16) -> Result<Vec<u8>, String> {
    match r? {
        (s, body) if s == want => Ok(body),
        (s, body) => Err(format!("HTTP {s}: {}", String::from_utf8_lossy(&body))),
    }
}

fn decode_result(body: &[u8]) -> Result<SimResult, String> {
    proto::decode_result(&proto::body_json(body)?)
}

/// One sample value from a Prometheus text exposition.
pub fn scrape(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// One client request, timed from send to response.
pub struct Timed {
    pub name: &'static str,
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What one loopback repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub jobs: usize,
    /// First request sent → drained result received.
    pub wall_s: f64,
    /// Wall of the submit phase only.
    pub submit_wall_s: f64,
    /// Every request in send order per connection.
    pub calls: Vec<Timed>,
    /// Per-step latency (session) or per-submit latency (ingest), ms.
    pub op_ms: Vec<f64>,
    pub result: SimResult,
    /// Request indices in the order the service applied them.
    pub order: Vec<usize>,
    /// Offline run of the same submissions in service order, and its wall
    /// from built state to result.
    pub reference: SimResult,
    pub reference_wall_s: f64,
    pub rss_mib: f64,
    pub metrics: String,
}

/// Submits `reqs` over `conns` closed-loop connections (request `i` goes to
/// connection `i % conns`); returns the calls and, per ack id, the request
/// index.
pub fn ingest(
    addr: SocketAddr,
    reqs: &[SubmitRequest],
    conns: usize,
) -> Result<(Vec<Timed>, Vec<usize>), String> {
    let bodies: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| render("POST", "/v1/jobs", &r.encode().render()))
        .collect();
    let per_conn: Vec<Result<Vec<(Timed, u64)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                let bodies = &bodies;
                s.spawn(move || {
                    let mut c = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    for i in (k..bodies.len()).step_by(conns) {
                        let start = Instant::now();
                        let body = expect_ok(c.send(&bodies[i]), 201)?;
                        let end = Instant::now();
                        let id = proto::body_json(&body)?
                            .get("id")
                            .and_then(Json::as_u64)
                            .ok_or("ack without an id")?;
                        out.push((
                            Timed {
                                name: "client.submit",
                                req: i as u64 + 1,
                                start,
                                end,
                            },
                            id,
                        ));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut calls = Vec::with_capacity(reqs.len());
    let mut by_id = vec![usize::MAX; reqs.len()];
    for r in per_conn {
        for (t, id) in r? {
            let slot = by_id
                .get_mut(id as usize - 1)
                .ok_or_else(|| format!("ack id {id} out of range"))?;
            if *slot != usize::MAX {
                return Err(format!("ack id {id} given twice"));
            }
            *slot = t.req as usize - 1;
            calls.push(t);
        }
    }
    Ok((calls, by_id))
}

/// Replays `reqs` as a live session over one connection.
fn session(addr: SocketAddr, reqs: &[SubmitRequest]) -> Result<(Vec<Timed>, Vec<f64>), String> {
    let mut c = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut calls = Vec::with_capacity(reqs.len() * 2 + reqs.len() / 10);
    let mut step_ms = Vec::with_capacity(reqs.len());
    let stats = render("GET", "/v1/stats", "");
    for (i, r) in reqs.iter().enumerate() {
        let req = i as u64 + 1;
        let submit = r.submit.expect("virtual timestamps are always sent");
        let advance = render(
            "POST",
            "/v1/clock/advance",
            &format!("{{\"to\": {}}}", submit.saturating_sub(1)),
        );
        let job = render("POST", "/v1/jobs", &r.encode().render());
        let step = Instant::now();
        let mut timed = |name, raw: &[u8], want| -> Result<Vec<u8>, String> {
            let start = Instant::now();
            let body = expect_ok(c.send(raw), want)?;
            calls.push(Timed {
                name,
                req,
                start,
                end: Instant::now(),
            });
            Ok(body)
        };
        timed("client.advance", &advance, 200)?;
        let ack = timed("client.submit", &job, 201)?;
        if (i + 1) % 10 == 0 {
            timed("client.stats", &stats, 200)?;
        }
        step_ms.push(step.elapsed().as_secs_f64() * 1e3);
        let id = proto::body_json(&ack)?.get("id").and_then(Json::as_u64);
        if id != Some(req) {
            return Err(format!("step {req} acknowledged as {id:?}"));
        }
    }
    Ok((calls, step_ms))
}

/// Submits `jobs` over one connection to a fresh `sd-serve` for `wl`'s
/// machine (no WAL), drains, and returns the submit calls and `/metrics`.
pub fn probe(
    ctx: &Ctx,
    wl: PaperWorkload,
    jobs: &[swf::SwfJob],
) -> Result<(Vec<Timed>, String), String> {
    let cluster = if wl == PaperWorkload::W4Curie {
        "w4"
    } else {
        "w3"
    };
    let reqs: Vec<SubmitRequest> = jobs.iter().map(submit_request).collect();
    let (server, _) = Server::spawn(ctx, cluster, None)?;
    let (calls, _) = ingest(server.addr, &reqs, 1)?;
    check_complete(&server.drain_and_fetch()?, jobs.len())?;
    let metrics = server.metrics()?;
    server.shutdown()?;
    Ok((calls, metrics))
}

/// Flushes dirty pages left by earlier work (a build, a previous
/// repetition's checkpoints) so they do not compete with the measured
/// fsyncs. Best effort: without a `sync` program the run goes on.
fn settle_disk() {
    let _ = Command::new("sync").status();
}

/// One full repetition: spawn, replay, drain, fetch, scrape, shut down,
/// then the offline reference run of the same submissions.
pub fn rep(ctx: &Ctx, mode: Mode, trace: &swf::Trace, tag: &str) -> Result<Rep, String> {
    let reqs: Vec<SubmitRequest> = trace.jobs.iter().map(submit_request).collect();
    let wal = (mode == Mode::IngestWal)
        .then(|| ctx.out.join(format!("wal-{}-{tag}", std::process::id())));
    if let Some(dir) = &wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    settle_disk();
    let (server, setup_s) = Server::spawn(ctx, "w3", wal.as_deref())?;
    let t0 = Instant::now();
    let (calls, op_ms, order) = match mode {
        Mode::IngestWal => {
            let (calls, by_id) = ingest(server.addr, &reqs, 2)?;
            let op_ms = calls.iter().map(Timed::ms).collect();
            (calls, op_ms, by_id)
        }
        Mode::Session => {
            let (calls, step_ms) = session(server.addr, &reqs)?;
            (calls, step_ms, (0..reqs.len()).collect())
        }
    };
    let submit_wall_s = t0.elapsed().as_secs_f64();
    let result = server.drain_and_fetch()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics = server.metrics()?;
    let rss_mib = server.peak_rss_mib().unwrap_or(0.0);
    let last = server.shutdown()?;
    if let Some(dir) = &wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    check_same(&result, &last)
        .map_err(|e| format!("shutdown result differs from the drained one: {e}"))?;
    let ordered: Vec<&SubmitRequest> = order.iter().map(|&i| &reqs[i]).collect();
    let (reference, _) = sim::run_state(sim::new_state(WL, &offline_trace(&ordered)), None);
    Ok(Rep {
        setup_s,
        jobs: reqs.len(),
        wall_s,
        submit_wall_s,
        calls,
        op_ms,
        result,
        order,
        reference_wall_s: reference.wall_s(),
        reference: reference.result,
        rss_mib,
        metrics,
    })
}

/// Repetitions per run at `--seconds 20` (scaled linearly). A fixed count,
/// not a time budget, so every machine replays the same inputs. On a
/// 2-core x86-64 box an ingest repetition takes about 6 s and a session
/// one 6–15 s.
fn reps_for(ctx: &Ctx, mode: Mode) -> usize {
    let nominal_rep_s = match mode {
        Mode::IngestWal => 6.5,
        Mode::Session => 10.0,
    };
    ((ctx.seconds / nominal_rep_s).round() as usize).max(1)
}

pub fn run(ctx: &Ctx, mode: Mode, report: &mut Report) {
    if ctx.trace {
        return run_traced(ctx, mode, report);
    }
    let mut setup_s = Vec::new();
    let mut op_ms = Vec::new();
    let (mut submit_ms, mut read_ms) = (Vec::new(), Vec::new());
    let mut jobs_per_s = Vec::new();
    let (mut jobs, mut submit_wall) = (0usize, 0.0);
    let mut rss = Vec::new();
    let mut runs = Vec::new();
    let mut wal_records = 0;
    for k in 0..reps_for(ctx, mode) {
        let trace =
            crate::inputs::trace(WL, ctx.workload_seed, crate::inputs::variant(ctx.seed, k));
        let n = trace.jobs.len() as u64;
        let r = match rep(ctx, mode, &trace, &format!("s{}-r{k}", ctx.seed)) {
            Ok(r) => r,
            Err(e) => {
                report.ops(n, n);
                report.gate("repetition completes", Err(e));
                continue;
            }
        };
        report.ops(r.calls.len() as u64, 0);
        report.gate(
            "every job completes exactly once",
            check_complete(&r.result, r.jobs),
        );
        report.gate(
            "served result equals the offline run in service order",
            check_same(&r.result, &r.reference),
        );
        setup_s.push(r.setup_s);
        jobs += r.jobs;
        jobs_per_s.push(r.jobs as f64 / r.wall_s);
        submit_wall += r.submit_wall_s;
        op_ms.extend_from_slice(&r.op_ms);
        for c in &r.calls {
            match c.name {
                "client.submit" => submit_ms.push(c.ms()),
                "client.stats" => read_ms.push(c.ms()),
                _ => {}
            }
        }
        rss.push(r.rss_mib);
        wal_records += scrape(&r.metrics, "sd_serve_wal_records_written_total");
        runs.push(sim::Summary::of(&r.result));
    }
    // Set-up is timed at least five times so its median is steady, each
    // time as the repetitions booted (a fresh WAL directory for ingest).
    let wal = (mode == Mode::IngestWal)
        .then(|| ctx.out.join(format!("wal-{}-setup", std::process::id())));
    while !setup_s.is_empty() && setup_s.len() < 5 {
        if let Some(dir) = &wal {
            let _ = std::fs::remove_dir_all(dir);
        }
        match Server::spawn(ctx, "w3", wal.as_deref()).and_then(|(s, t)| s.shutdown().map(|_| t)) {
            Ok(t) => setup_s.push(t),
            Err(e) => report.gate("extra set-up", Err(e)),
        }
    }
    if let Some(dir) = &wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    if runs.is_empty() {
        return;
    }
    let op_ms = sorted(op_ms);
    println!(
        "repetitions {}  ops timed {}  setups {}",
        runs.len(),
        op_ms.len(),
        setup_s.len()
    );
    print_latency("op", &op_ms, 0.0);
    print_latency("submit", &submit_ms, jobs as f64 / submit_wall);
    print_latency("read", &read_ms, 0.0);
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("sim.jobs_per_s", median(&jobs_per_s), "jobs/s");
    report.metric("op.p50_ms", quantile(&op_ms, 0.5), "ms");
    report.metric("op.p99_ms", quantile(&op_ms, 0.99), "ms");
    report.metric("peak_rss_mb", median(&rss), "MiB");
    sim::sched_metrics_mean(report, &runs);
    let requests = ("requests", (submit_ms.len() + read_ms.len()) as u64);
    let counters = match mode {
        Mode::IngestWal => vec![
            ("jobs", jobs as u64),
            requests,
            ("wal_records", wal_records),
        ],
        // Session submissions arrive in trace order, so the whole schedule
        // repeats exactly.
        Mode::Session => {
            let mut c = sim::summed_counters(&runs);
            c.push(requests);
            c
        }
    };
    check_ledger(report, ctx, "untraced", &counters);
}

/// The traced run: one repetition whose client calls become spans (the
/// client times every call in untraced runs too, so this costs nothing
/// extra), a traced offline run of the same submissions in the order the
/// service applied them (the simulator layers; its wall against the
/// untraced reference run is the tracing overhead), and the in-process
/// replay of the service layers.
fn run_traced(ctx: &Ctx, mode: Mode, report: &mut Report) {
    let trace = crate::inputs::trace(WL, ctx.workload_seed, ctx.seed);
    // Created first: client spans are recorded relative to its epoch.
    let mut tracer = Tracer::default();
    let traced = match rep(ctx, mode, &trace, &format!("s{}-traced", ctx.seed)) {
        Ok(r) => r,
        Err(e) => {
            let n = trace.jobs.len() as u64;
            report.ops(n, n);
            report.gate("repetition completes", Err(e));
            return;
        }
    };
    report.ops(traced.calls.len() as u64, 0);
    report.gate(
        "every job completes exactly once",
        check_complete(&traced.result, traced.jobs),
    );
    report.gate(
        "served result equals the offline run in service order",
        check_same(&traced.result, &traced.reference),
    );
    let mut layer_tracer = Tracer::default();
    for c in &traced.calls {
        tracer.record(c.name, c.req, c.start, c.end);
    }
    // The simulator layers, from a traced offline run of the same
    // submissions in the order the service applied them.
    let sim = sim::traced_run(
        || {
            let trace = crate::inputs::trace(WL, ctx.workload_seed, ctx.seed);
            let reqs: Vec<SubmitRequest> = trace.jobs.iter().map(submit_request).collect();
            offline_trace(&traced.order.iter().map(|&i| &reqs[i]).collect::<Vec<_>>())
        },
        WL,
    );
    report.gate(
        "traced result equals untraced result",
        check_same(&sim.run.result, &traced.reference),
    );
    sim.layer_metrics(report);
    let loopback: Vec<f64> = traced
        .calls
        .iter()
        .filter(|c| c.name == "client.submit")
        .map(Timed::ms)
        .collect();
    let server = ServerCounters::parse(&traced.metrics);
    let mut counters = sim.counters();
    counters.push(("requests", server.requests));
    let layers = crate::layers::replay(ctx, WL, &trace.jobs, &mut layer_tracer, report);
    if let Some(l) = &layers {
        l.metrics(report, &loopback, &server, mode == Mode::IngestWal);
        counters.push(("wal_records", l.records));
        counters.push(("wal_bytes", l.bytes));
    }
    report.metric(
        "trace.overhead_s",
        sim.run.wall_s() - traced.reference_wall_s,
        "s",
    );
    report.metric(
        "trace.spans",
        (tracer.len() + layer_tracer.len() + sim.tracer.len()) as f64,
        "count",
    );
    if mode == Mode::IngestWal {
        // Two connections make the apply order, and so the schedule's
        // counters, vary between runs; only the order-free ones repeat.
        counters.retain(|(k, _)| matches!(*k, "jobs" | "requests" | "wal_records" | "wal_bytes"));
    }
    check_ledger(report, ctx, "traced", &counters);
    crate::layers::finish(
        ctx,
        &[
            ("client", &tracer),
            ("service", &layer_tracer),
            ("sim", &sim.tracer),
        ],
    );
}

/// Request counts from the service's own `/metrics`.
pub struct ServerCounters {
    pub requests: u64,
    pub non2xx: u64,
}

impl ServerCounters {
    pub fn parse(text: &str) -> ServerCounters {
        let class = |c: &str| {
            scrape(
                text,
                &format!("sd_serve_http_requests_total{{class=\"{c}\"}}"),
            )
        };
        let (ok, c4, c5) = (class("2xx"), class("4xx"), class("5xx"));
        ServerCounters {
            requests: ok + c4 + c5,
            non2xx: c4 + c5,
        }
    }
}
