//! Canonical serialization of [`SimState`] for crash-tolerant serving
//! (DESIGN.md §14).
//!
//! [`SimState::checkpoint_bytes`] captures every order-sensitive primary
//! structure field-for-field (floats via `to_bits`, so the round trip is
//! bit-exact); [`SimState::restore`] rebuilds the derived indices
//! (running sets, release counts, the availability cache, pass scratch)
//! canonically and re-validates the whole state. Configuration that the
//! caller re-supplies on restart (cluster spec, scheduler config, rate
//! model, sharing factor) is *not* serialized — a small fingerprint guards
//! against restoring a checkpoint under a different configuration.
//!
//! The codec is a tiny hand-rolled little-endian byte format, deliberately
//! dependency-free: `sd-durable` frames and checksums whatever bytes it is
//! given, and this module owns what those bytes mean.

use super::*;
use cluster::cpumask::CpuMask;
use cluster::NodeOccupancy;
use drom::node::ResidentSnapshot;
use drom::registry::ProcessEntry;
use drom::DromHandle;
use workload::AppId;

const MAGIC: u32 = 0x5344_5353; // "SDSS"
const VERSION: u32 = 3;

// ----------------------------------------------------------------------
// Byte codec
// ----------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.0);
    }
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn opt_time(&mut self, v: Option<SimTime>) {
        self.opt_u64(v.map(|t| t.0));
    }
    fn mask(&mut self, m: &CpuMask) {
        self.u32(m.width() as u32);
        self.len(m.words().len());
        for &w in m.words() {
            self.u64(w);
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() - self.pos < n {
            return Err(format!(
                "checkpoint truncated: need {n} bytes at offset {}",
                self.pos
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn time(&mut self) -> Result<SimTime, String> {
        Ok(SimTime(self.u64()?))
    }
    /// Length prefix, sanity-capped so corrupt bytes can't trigger a huge
    /// allocation (every element is ≥ 1 byte, so a valid length never
    /// exceeds the remaining input).
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        let left = (self.data.len() - self.pos) as u64;
        if n > left {
            return Err(format!("length {n} exceeds remaining {left} bytes"));
        }
        Ok(n as usize)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }
    fn opt_time(&mut self) -> Result<Option<SimTime>, String> {
        Ok(self.opt_u64()?.map(SimTime))
    }
    fn mask(&mut self) -> Result<CpuMask, String> {
        let width = self.u32()? as usize;
        let n = self.len()?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.u64()?);
        }
        CpuMask::from_words(width, &words).ok_or_else(|| "malformed CPU mask".into())
    }
    fn finish(self) -> Result<(), String> {
        if self.pos != self.data.len() {
            return Err(format!(
                "{} trailing bytes after checkpoint payload",
                self.data.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn app_to_u8(a: AppId) -> u8 {
    match a {
        AppId::Pils => 0,
        AppId::Stream => 1,
        AppId::CoreNeuron => 2,
        AppId::Nest => 3,
        AppId::Alya => 4,
    }
}

fn app_from_u8(b: u8) -> Result<AppId, String> {
    Ok(match b {
        0 => AppId::Pils,
        1 => AppId::Stream,
        2 => AppId::CoreNeuron,
        3 => AppId::Nest,
        4 => AppId::Alya,
        _ => return Err(format!("unknown AppId tag {b}")),
    })
}

// ----------------------------------------------------------------------
// Encode
// ----------------------------------------------------------------------

impl SimState {
    /// Serializes the full simulator state into a canonical byte image.
    /// Cold path only (checkpoints between batches) — never called from
    /// the scheduling hot loop.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(MAGIC);
        w.u32(VERSION);
        // Configuration fingerprint (checked on restore).
        w.u32(self.spec.nodes);
        w.u32(self.spec.node.cores());
        w.u32(self.cfg.tenants.len() as u32);

        w.time(self.now);

        // Job table (index == id - 1).
        w.len(self.jobs.len());
        for job in &self.jobs {
            let s = &job.spec;
            w.u64(s.id.0);
            w.time(s.submit);
            w.u32(s.req_nodes);
            w.u64(s.req_procs);
            w.u64(s.req_time);
            w.u64(s.static_runtime);
            w.bool(s.malleable);
            w.u32(s.ranks_per_node);
            match s.app {
                None => w.u8(0xFF),
                Some(a) => w.u8(app_to_u8(a)),
            }
            w.u32(s.tenant);
            w.u32(s.project);
            match &job.state {
                JobState::Pending => w.u8(0),
                JobState::Running(r) => {
                    w.u8(1);
                    w.time(r.start);
                    w.len(r.nodes.len());
                    for &n in &r.nodes {
                        w.u32(n.0);
                    }
                    for &c in &r.cores {
                        w.u32(c);
                    }
                    w.u32(r.full_cores);
                    w.f64(r.work_done);
                    w.f64(r.rate);
                    w.time(r.last_banked);
                    w.u64(r.end_gen);
                    w.time(r.req_end);
                    w.len(r.mates.len());
                    for &m in &r.mates {
                        w.u64(m.0);
                    }
                    w.len(r.lent_to.len());
                    for &m in &r.lent_to {
                        w.u64(m.0);
                    }
                    w.bool(r.ever_shrunk);
                    w.bool(r.malleable_backfilled);
                    w.f64(r.energy_weight);
                }
                JobState::Done => w.u8(2),
                JobState::Cancelled => w.u8(3),
            }
        }

        // Pending queue, FIFO order (re-pushed on restore; nothing depends
        // on absolute slot sequence numbers).
        w.len(self.queue.len());
        for e in self.queue.prefix(usize::MAX) {
            w.u64(e.job.0);
            w.u32(e.req_nodes);
            w.u64(e.req_time);
            w.u32(e.tslot);
        }

        // Event queue: live entries with their sequence numbers (ties at
        // the same instant are FIFO by seq, so seqs must survive).
        let (events, next_seq) = self.events.snapshot();
        w.len(events.len());
        for (t, ev, seq) in events {
            w.time(t);
            match ev {
                Event::Submit(j) => {
                    w.u8(0);
                    w.u64(j.0);
                }
                Event::End { job, gen } => {
                    w.u8(1);
                    w.u64(job.0);
                    w.u64(gen);
                }
            }
            w.u64(seq);
        }
        w.u64(next_seq);

        // Mate pool, in its maintained `(base, id)` order.
        w.len(self.mate_pool.len());
        for e in &self.mate_pool {
            w.f64(e.base);
            w.u64(e.id.0);
            w.u64(e.wait);
            w.u64(e.req_time);
            w.time(e.req_end);
            w.u32(e.weight);
            w.u32(e.ranks_per_node);
        }

        // Cluster occupancy, per node.
        w.len(self.cluster.occupancies().len());
        for occ in self.cluster.occupancies() {
            w.len(occ.jobs.len());
            for &(j, c) in &occ.jobs {
                w.u64(j.0);
                w.u32(c);
            }
        }

        // DROM registry.
        let (entries, next_handle) = self.drom.snapshot();
        w.len(entries.len());
        for e in &entries {
            w.u64(e.handle.0);
            w.u64(e.job.0);
            w.u32(e.node.0);
            w.mask(&e.current);
            match &e.pending {
                None => w.bool(false),
                Some(m) => {
                    w.bool(true);
                    w.mask(m);
                }
            }
        }
        w.u64(next_handle);

        // Node managers.
        w.len(self.node_mgrs.len());
        for nm in &self.node_mgrs {
            let residents = nm.snapshot();
            w.len(residents.len());
            for r in &residents {
                w.u64(r.job.0);
                w.mask(&r.mask);
                w.bool(r.malleable);
                w.opt_u64(r.handle.map(|h| h.0));
                w.opt_u64(r.lender.map(|j| j.0));
            }
        }

        // Release map (counts/busy re-derived on restore).
        w.len(self.releases.node_releases().len());
        for &rel in self.releases.node_releases() {
            w.opt_time(rel);
        }

        // Stats.
        w.u64(self.stats.started_static);
        w.u64(self.stats.started_malleable);
        w.u64(self.stats.unique_mates);
        w.u64(self.stats.shrink_events);
        w.u64(self.stats.expand_events);
        w.u64(self.stats.relocations);
        w.u64(self.stats.sched_passes);
        w.u64(self.stats.passes_skipped);
        w.u64(self.stats.cancelled);
        w.u64(self.stats.quota_skipped);
        w.u64(self.stats.events_dispatched);
        w.u64(self.stats.peak_profile_len as u64);

        // Dirty flags (a checkpoint can land between a dispatch and its
        // pass; the pending pass gate must survive).
        w.bool(self.dirty.queue);
        w.bool(self.dirty.capacity);

        // Outcomes.
        w.len(self.outcomes.len());
        for o in &self.outcomes {
            w.u64(o.id.0);
            w.time(o.submit);
            w.time(o.start);
            w.time(o.end);
            w.u32(o.nodes);
            w.u64(o.procs);
            w.u64(o.req_time);
            w.u64(o.static_runtime);
            w.bool(o.malleable_backfilled);
            w.bool(o.was_mate);
            match o.app {
                None => w.u8(0xFF),
                Some(a) => w.u8(app_to_u8(a)),
            }
            w.u32(o.tenant);
        }

        // Energy meter + incremental weighted-busy accumulator.
        let (last_time, meter_busy, joules, started) = self.meter.snapshot();
        w.time(last_time);
        w.f64(meter_busy);
        w.f64(joules);
        w.bool(started);
        w.f64(self.weighted_busy);

        // Tenant accounting.
        w.len(self.tenant_usage.len());
        for u in &self.tenant_usage {
            w.u32(u.running_width);
            w.u64(u.committed_node_seconds);
            w.f64(u.usage);
            w.time(u.last_decay);
            w.u64(u.submitted);
            w.u64(u.started);
            w.u64(u.completed);
            w.u64(u.quota_skipped);
        }

        w.time(self.first_submit);
        w.time(self.last_end);
        w.buf
    }

    // ------------------------------------------------------------------
    // Decode
    // ------------------------------------------------------------------

    /// Rebuilds a state from [`SimState::checkpoint_bytes`] output plus the
    /// re-supplied configuration. Derived structures (running indices,
    /// release counts, the availability cache, pass scratch) are rebuilt
    /// canonically, and the result passes [`SimState::deep_validate`].
    pub fn restore(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
        bytes: &[u8],
    ) -> Result<SimState, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err("not a SimState checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        // Fingerprint: the checkpoint must describe the same machine and
        // the same scheduling configuration the caller is restarting with.
        let (nodes, cores) = (r.u32()?, r.u32()?);
        if nodes != spec.nodes || cores != spec.node.cores() {
            return Err(format!(
                "checkpoint is for a {nodes}×{cores} machine, config says {}×{}",
                spec.nodes,
                spec.node.cores()
            ));
        }
        let tenant_count = r.u32()? as usize;
        if tenant_count != cfg.tenants.len() {
            return Err(format!(
                "checkpoint has {tenant_count} tenants, config registers {}",
                cfg.tenants.len()
            ));
        }

        let mut st = SimState::new_online(spec, cfg, rate_model, sharing);
        st.now = r.time()?;

        // Job table.
        let njobs = r.len()?;
        let mut jobs = Vec::with_capacity(njobs);
        for i in 0..njobs {
            let id = JobId(r.u64()?);
            if id.0 != i as u64 + 1 {
                return Err(format!("job table out of order: slot {i} holds {id}"));
            }
            let spec = JobSpec {
                id,
                submit: r.time()?,
                req_nodes: r.u32()?,
                req_procs: r.u64()?,
                req_time: r.u64()?,
                static_runtime: r.u64()?,
                malleable: r.bool()?,
                ranks_per_node: r.u32()?,
                app: match r.u8()? {
                    0xFF => None,
                    b => Some(app_from_u8(b)?),
                },
                tenant: r.u32()?,
                project: r.u32()?,
            };
            let state = match r.u8()? {
                0 => JobState::Pending,
                1 => {
                    let start = r.time()?;
                    let width = r.len()?;
                    let mut nodes = Vec::with_capacity(width);
                    for _ in 0..width {
                        nodes.push(NodeId(r.u32()?));
                    }
                    let mut cores = Vec::with_capacity(width);
                    for _ in 0..width {
                        cores.push(r.u32()?);
                    }
                    let full_cores = r.u32()?;
                    let work_done = r.f64()?;
                    let rate = r.f64()?;
                    let last_banked = r.time()?;
                    let end_gen = r.u64()?;
                    let req_end = r.time()?;
                    let mut mates = Vec::with_capacity(r.len()?);
                    for _ in 0..mates.capacity() {
                        mates.push(JobId(r.u64()?));
                    }
                    let mut lent_to = Vec::with_capacity(r.len()?);
                    for _ in 0..lent_to.capacity() {
                        lent_to.push(JobId(r.u64()?));
                    }
                    JobState::Running(RunningJob {
                        start,
                        nodes,
                        cores,
                        full_cores,
                        work_done,
                        rate,
                        last_banked,
                        end_gen,
                        req_end,
                        mates,
                        lent_to,
                        ever_shrunk: r.bool()?,
                        malleable_backfilled: r.bool()?,
                        energy_weight: r.f64()?,
                    })
                }
                2 => JobState::Done,
                3 => JobState::Cancelled,
                b => return Err(format!("unknown job state tag {b}")),
            };
            jobs.push(Job { spec, state });
        }
        st.jobs = jobs;

        // Pending queue (re-pushed: slot seqs normalise, order preserved).
        let nqueue = r.len()?;
        let mut queue = PendingQueue::new();
        for _ in 0..nqueue {
            let job = JobId(r.u64()?);
            let (req_nodes, req_time, tslot) = (r.u32()?, r.u64()?, r.u32()?);
            queue.push(job, req_nodes, req_time, tslot);
        }
        st.queue = queue;

        // Event queue.
        let nevents = r.len()?;
        let mut entries = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let t = r.time()?;
            let ev = match r.u8()? {
                0 => Event::Submit(JobId(r.u64()?)),
                1 => Event::End {
                    job: JobId(r.u64()?),
                    gen: r.u64()?,
                },
                b => return Err(format!("unknown event tag {b}")),
            };
            entries.push((t, ev, r.u64()?));
        }
        st.events = EventQueue::from_snapshot(entries, r.u64()?);

        // Mate pool.
        let nmates = r.len()?;
        let mut mate_pool = Vec::with_capacity(nmates);
        for _ in 0..nmates {
            mate_pool.push(MateEntry {
                base: r.f64()?,
                id: JobId(r.u64()?),
                wait: r.u64()?,
                req_time: r.u64()?,
                req_end: r.time()?,
                weight: r.u32()?,
                ranks_per_node: r.u32()?,
            });
        }
        st.mate_pool = mate_pool;

        // Cluster occupancy.
        let nnodes = r.len()?;
        let mut occs = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let njobs = r.len()?;
            let mut occ_jobs = Vec::with_capacity(njobs);
            let mut used = 0u32;
            for _ in 0..njobs {
                let j = JobId(r.u64()?);
                let c = r.u32()?;
                used += c;
                occ_jobs.push((j, c));
            }
            occs.push(NodeOccupancy {
                jobs: occ_jobs,
                cores_used: used,
            });
        }
        st.cluster = ClusterState::from_occupancies(st.spec.clone(), occs)?;

        // DROM registry.
        let nentries = r.len()?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let handle = DromHandle(r.u64()?);
            let job = JobId(r.u64()?);
            let node = NodeId(r.u32()?);
            let current = r.mask()?;
            let pending = if r.bool()? { Some(r.mask()?) } else { None };
            entries.push(ProcessEntry {
                handle,
                job,
                node,
                current,
                pending,
            });
        }
        st.drom = DromRegistry::from_snapshot(entries, r.u64()?)?;

        // Node managers.
        let nmgrs = r.len()?;
        if nmgrs != st.spec.nodes as usize {
            return Err(format!(
                "checkpoint has {nmgrs} node managers, machine has {}",
                st.spec.nodes
            ));
        }
        let mut node_mgrs = Vec::with_capacity(nmgrs);
        for i in 0..nmgrs {
            let nres = r.len()?;
            let mut residents = Vec::with_capacity(nres);
            for _ in 0..nres {
                residents.push(ResidentSnapshot {
                    job: JobId(r.u64()?),
                    mask: r.mask()?,
                    malleable: r.bool()?,
                    handle: r.opt_u64()?.map(DromHandle),
                    lender: r.opt_u64()?.map(JobId),
                });
            }
            node_mgrs.push(NodeManager::from_snapshot(
                NodeId(i as u32),
                st.spec.node.clone(),
                residents,
            )?);
        }
        st.node_mgrs = node_mgrs;

        // Release map.
        let nrel = r.len()?;
        if nrel != st.spec.nodes as usize {
            return Err(format!(
                "checkpoint has {nrel} release slots, machine has {}",
                st.spec.nodes
            ));
        }
        let mut releases = Vec::with_capacity(nrel);
        for _ in 0..nrel {
            releases.push(r.opt_time()?);
        }
        st.releases = ReleaseMap::from_releases(&releases);

        st.stats = SimStats {
            started_static: r.u64()?,
            started_malleable: r.u64()?,
            unique_mates: r.u64()?,
            shrink_events: r.u64()?,
            expand_events: r.u64()?,
            relocations: r.u64()?,
            sched_passes: r.u64()?,
            passes_skipped: r.u64()?,
            cancelled: r.u64()?,
            quota_skipped: r.u64()?,
            events_dispatched: r.u64()?,
            peak_profile_len: r.u64()? as usize,
        };
        st.dirty = DirtyFlags {
            queue: r.bool()?,
            capacity: r.bool()?,
        };

        // Outcomes.
        let nout = r.len()?;
        let mut outcomes = Vec::with_capacity(nout);
        for _ in 0..nout {
            outcomes.push(JobOutcome {
                id: JobId(r.u64()?),
                submit: r.time()?,
                start: r.time()?,
                end: r.time()?,
                nodes: r.u32()?,
                procs: r.u64()?,
                req_time: r.u64()?,
                static_runtime: r.u64()?,
                malleable_backfilled: r.bool()?,
                was_mate: r.bool()?,
                app: match r.u8()? {
                    0xFF => None,
                    b => Some(app_from_u8(b)?),
                },
                tenant: r.u32()?,
            });
        }
        st.outcomes = outcomes;

        // Energy meter + weighted busy.
        let last_time = r.time()?;
        let meter_busy = r.f64()?;
        let joules = r.f64()?;
        let started = r.bool()?;
        st.meter = EnergyMeter::from_snapshot(
            st.spec.node.power,
            st.spec.nodes,
            last_time,
            meter_busy,
            joules,
            started,
        );
        st.weighted_busy = r.f64()?;

        // Tenant accounting.
        let ntenants = r.len()?;
        if ntenants != st.cfg.tenants.len() {
            return Err(format!(
                "checkpoint has {ntenants} tenant slots, config registers {}",
                st.cfg.tenants.len()
            ));
        }
        let mut usage = Vec::with_capacity(ntenants);
        for _ in 0..ntenants {
            usage.push(TenantUsage {
                running_width: r.u32()?,
                committed_node_seconds: r.u64()?,
                usage: r.f64()?,
                last_decay: r.time()?,
                submitted: r.u64()?,
                started: r.u64()?,
                completed: r.u64()?,
                quota_skipped: r.u64()?,
            });
        }
        st.tenant_usage = usage;

        st.first_submit = r.time()?;
        st.last_end = r.time()?;
        r.finish()?;

        // Derived indices: running sets and the shrunk-borrower index come
        // straight from the job table.
        st.running.clear();
        st.running_by_end.clear();
        st.shrunk.clear();
        for job in &st.jobs {
            if let JobState::Running(rj) = &job.state {
                st.running.insert(job.spec.id);
                st.running_by_end.insert((rj.req_end, job.spec.id));
                if rj.malleable_backfilled && !rj.at_full_allocation() {
                    st.shrunk.insert(job.spec.id);
                }
            }
        }

        // Availability cache: rebuilt canonically at `now` — equal (by the
        // cache-maintenance invariant) to the advanced cache the
        // uninterrupted run would hold.
        st.avail = st.build_profile();
        st.scratch = PassScratch::default();

        // The meter was constructed by `new_online` with a fresh start; the
        // restored snapshot fully replaced it, so nothing to reconcile.
        st.deep_validate()
            .map_err(|e| format!("restored state failed validation: {e}"))?;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::WorstCaseModel;

    fn spec4() -> ClusterSpec {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        spec
    }

    fn cfg() -> SlurmConfig {
        SlurmConfig {
            self_check: true,
            ..SlurmConfig::default()
        }
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> swf::SwfJob {
        swf::SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn mid_run_state() -> SimState {
        let mut st = SimState::new_online(
            spec4(),
            cfg(),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        for sj in [
            job(1, 0, 1000, 2, 1000),
            job(2, 0, 100, 2, 100),
            job(3, 5, 50, 1, 60),
            job(4, 10, 500, 4, 600),
        ] {
            st.submit_job(&sj, None).unwrap();
        }
        // Drive to an interesting point: a running pair (one shrunk), one
        // queued, one still in the event queue, one completed.
        while let Some(t) = st.events.peek_time() {
            if t > SimTime(5) {
                break;
            }
            let ev = st.events.pop().unwrap();
            st.now = t.max(st.now);
            st.dispatch(ev.payload);
        }
        assert!(st.start_static(JobId(1)));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        st.deep_validate().unwrap();
        st
    }

    fn roundtrip(st: &SimState) -> SimState {
        let bytes = st.checkpoint_bytes();
        SimState::restore(
            st.spec().clone(),
            st.cfg.clone(),
            Box::new(WorstCaseModel),
            st.sharing(),
            &bytes,
        )
        .expect("restore")
    }

    /// Drains every remaining event under a trivial FCFS driver and
    /// returns the observable end-of-run record.
    fn run_to_end(mut st: SimState) -> (Vec<JobOutcome>, SimStats, f64, SimTime) {
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
            let pending: Vec<JobId> = st.queue.prefix(16).map(|e| e.job).collect();
            for id in pending {
                st.start_static(id);
            }
        }
        let joules = st.finish_energy();
        let last = st.last_end();
        (st.take_outcomes(), st.stats.clone(), joules, last)
    }

    #[test]
    fn roundtrip_preserves_and_validates() {
        let st = mid_run_state();
        let re = roundtrip(&st);
        re.deep_validate().expect("restored state valid");
        assert_eq!(re.now, st.now);
        assert_eq!(re.job_count(), st.job_count());
        assert_eq!(re.running_count(), st.running_count());
        assert_eq!(re.queue.len(), st.queue.len());
        assert_eq!(re.stats, st.stats);
        assert_eq!(re.first_submit(), st.first_submit());
        // Second serialization is bit-identical: the image is canonical.
        assert_eq!(re.checkpoint_bytes(), st.checkpoint_bytes());
    }

    #[test]
    fn restored_run_finishes_identically() {
        let st = mid_run_state();
        let re = roundtrip(&st);
        let (out_a, stats_a, joules_a, last_a) = run_to_end(st);
        let (out_b, stats_b, joules_b, last_b) = run_to_end(re);
        assert_eq!(out_a, out_b, "outcomes diverged");
        assert_eq!(stats_a, stats_b, "stats diverged");
        assert_eq!(joules_a.to_bits(), joules_b.to_bits(), "energy diverged");
        assert_eq!(last_a, last_b);
    }

    #[test]
    fn fingerprint_mismatches_are_rejected() {
        let st = mid_run_state();
        let bytes = st.checkpoint_bytes();
        // Wrong machine size.
        let mut big = spec4();
        big.nodes = 8;
        let err = SimState::restore(
            big,
            st.cfg.clone(),
            Box::new(WorstCaseModel),
            st.sharing(),
            &bytes,
        )
        .err().unwrap();
        assert!(err.contains("machine"), "{err}");
    }

    /// Version 1 images carried an availability-backend tag in the
    /// fingerprint and version 2 a hot-path flag; version 3 dropped both, so
    /// older images must be refused up front rather than misread.
    #[test]
    fn version_1_images_are_rejected() {
        let st = mid_run_state();
        for old in [1u32, 2] {
            let mut bytes = st.checkpoint_bytes();
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            let err = SimState::restore(
                spec4(),
                cfg(),
                Box::new(WorstCaseModel),
                st.sharing(),
                &bytes,
            )
            .err().unwrap();
            assert!(err.contains(&format!("version {old}")), "{err}");
        }
    }

    #[test]
    fn corrupt_or_truncated_bytes_error_cleanly() {
        let st = mid_run_state();
        let bytes = st.checkpoint_bytes();
        let try_restore = |data: &[u8]| {
            SimState::restore(
                spec4(),
                cfg(),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
                data,
            )
        };
        assert!(try_restore(&[]).is_err());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(try_restore(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 3]);
        assert!(try_restore(&long).is_err());
    }

    /// Pins a mask's checkpoint bytes: width (u32), word count (u64), then
    /// 64-core words, all little-endian. A change here breaks every
    /// checkpoint already on disk and needs a `VERSION` bump.
    #[test]
    fn cpu_mask_checkpoint_bytes_are_pinned() {
        let mut m = CpuMask::empty(96);
        for c in [3, 65, 90] {
            m.set(c);
        }
        let mut w = Writer::default();
        w.mask(&m);
        #[rustfmt::skip]
        let expect: [u8; 28] = [
            96, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x08, 0, 0, 0, 0, 0, 0, 0,
            0x02, 0, 0, 0x04, 0, 0, 0, 0,
        ];
        assert_eq!(w.buf, expect);
        let mut r = Reader::new(&expect);
        assert_eq!(r.mask(), Ok(m));
        r.finish().unwrap();
    }
}
