//! The DROM "space": process registration and mask exchange.
//!
//! Mirrors the real DROM API surface (paper §2.1): *"API for registering
//! processes in the DROM environment, getting the list of recorded
//! processes, and getting/setting their CPU masks"*. Mask changes are staged
//! as *pending* and applied when the process reaches a malleability point
//! ([`DromRegistry::poll`]), exactly like the runtime integration with
//! OpenMP/OmpSs task boundaries.

use cluster::cpumask::CpuMask;
use cluster::state::{JobId, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Handle identifying a registered process (one job's task group on a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DromHandle(pub u64);

/// A registered process entry.
#[derive(Debug, Clone)]
pub struct ProcessEntry {
    pub handle: DromHandle,
    pub job: JobId,
    pub node: NodeId,
    /// Mask the process is currently running with.
    pub current: CpuMask,
    /// Mask staged by the resource manager, applied at the next
    /// malleability point.
    pub pending: Option<CpuMask>,
}

impl ProcessEntry {
    /// True when a reconfiguration is waiting for a malleability point.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

/// Deterministic multiplicative hasher for the handle map's `u64` keys
/// (sequential handles): one multiply instead of SipHash. The map's
/// iteration order is never observed, so any hash function serves.
#[derive(Debug, Default, Clone, Copy)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // The 64-bit golden-ratio constant spreads consecutive handles over
        // the high bits the table's control bytes are taken from.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The registry of all DROM-attached processes (one per node manager in the
/// real system; global here for test convenience).
///
/// Indexed for a machine-sized population: a handle → entry map serves
/// `get`/`set_mask`/`poll`/`detach` in O(1), and a per-node handle list (in
/// registration order, so every per-node view stays deterministic) serves
/// `processes_on`/`poll_node`/`find` in O(residents). The old flat `Vec`
/// made each of these a scan over *every* registered process in the system
/// — the dominant cost of full-scale Curie replays, where tens of thousands
/// of processes are attached at once.
#[derive(Debug, Default)]
pub struct DromRegistry {
    entries: HashMap<u64, ProcessEntry, BuildHasherDefault<HandleHasher>>,
    /// Per node: handles in registration order (tiny vectors, 1–3 entries).
    by_node: Vec<Vec<DromHandle>>,
    /// Per node: how many residents have a mask staged. Lets the batched
    /// [`DromRegistry::poll_nodes`] sweep skip untouched nodes in O(1)
    /// instead of hashing every resident handle.
    pending_on: Vec<u32>,
    next_handle: u64,
}

impl DromRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn node_slot(&mut self, node: NodeId) -> &mut Vec<DromHandle> {
        let idx = node.0 as usize;
        if idx >= self.by_node.len() {
            self.by_node.resize_with(idx + 1, Vec::new);
            self.pending_on.resize(idx + 1, 0);
        }
        &mut self.by_node[idx]
    }

    fn pending_slot(&mut self, node: NodeId) -> &mut u32 {
        let idx = node.0 as usize;
        if idx >= self.pending_on.len() {
            self.by_node.resize_with(idx + 1, Vec::new);
            self.pending_on.resize(idx + 1, 0);
        }
        &mut self.pending_on[idx]
    }

    /// Registers a process with its launch-time mask (`DROM_run`).
    pub fn attach(&mut self, job: JobId, node: NodeId, mask: CpuMask) -> DromHandle {
        let handle = DromHandle(self.next_handle);
        self.next_handle += 1;
        self.entries.insert(
            handle.0,
            ProcessEntry {
                handle,
                job,
                node,
                current: mask,
                pending: None,
            },
        );
        self.node_slot(node).push(handle);
        handle
    }

    /// Removes a process (`DROM_clean`). Returns the final mask it held.
    pub fn detach(&mut self, handle: DromHandle) -> Option<CpuMask> {
        let e = self.entries.remove(&handle.0)?;
        if e.pending.is_some() {
            *self.pending_slot(e.node) -= 1;
        }
        let slot = self.node_slot(e.node);
        slot.retain(|&h| h != handle);
        Some(e.current)
    }

    /// All processes on `node`, in registration order.
    pub fn processes_on(&self, node: NodeId) -> impl Iterator<Item = &ProcessEntry> {
        self.by_node
            .get(node.0 as usize)
            .into_iter()
            .flatten()
            .map(|h| &self.entries[&h.0])
    }

    pub fn get(&self, handle: DromHandle) -> Option<&ProcessEntry> {
        self.entries.get(&handle.0)
    }

    /// Looks up the process of `job` on `node`.
    pub fn find(&self, job: JobId, node: NodeId) -> Option<&ProcessEntry> {
        self.processes_on(node).find(|e| e.job == job)
    }

    /// Stages a new mask for a process (`DROM_setprocessmask`).
    pub fn set_mask(&mut self, handle: DromHandle, mask: CpuMask) -> bool {
        let Some(e) = self.entries.get_mut(&handle.0) else {
            return false;
        };
        let node = e.node;
        let newly = e.pending.is_none();
        e.pending = Some(mask);
        if newly {
            *self.pending_slot(node) += 1;
        }
        true
    }

    /// The process reaches a malleability point: applies any pending mask.
    /// Returns the new current mask if a change was applied.
    pub fn poll(&mut self, handle: DromHandle) -> Option<&CpuMask> {
        let e = self.entries.get_mut(&handle.0)?;
        let node = e.node;
        if e.pending.is_some() {
            *self.pending_slot(node) -= 1;
        }
        let e = self.entries.get_mut(&handle.0).expect("looked up above");
        if let Some(p) = e.pending.take() {
            e.current = p;
            Some(&e.current)
        } else {
            None
        }
    }

    /// Applies every pending mask on `node` (the simulator treats a
    /// reconfiguration broadcast as reaching all malleability points at
    /// once — DROM's measured overhead is negligible, paper §2.1).
    pub fn poll_node(&mut self, node: NodeId) -> usize {
        if self.pending_on.get(node.0 as usize).copied().unwrap_or(0) == 0 {
            return 0;
        }
        let mut applied = 0;
        if let Some(handles) = self.by_node.get(node.0 as usize) {
            for h in handles {
                let e = self.entries.get_mut(&h.0).expect("indexed handle exists");
                if let Some(p) = e.pending.take() {
                    e.current = p;
                    applied += 1;
                }
            }
        }
        self.pending_on[node.0 as usize] = 0;
        applied
    }

    /// One malleability broadcast for a whole job allocation: applies every
    /// staged mask across `nodes` in a single sweep. This is the per-*job*
    /// batch the node managers stage into — `co_launch`/`finish` only stage;
    /// the simulator closes each reconfiguration with one `poll_nodes` call
    /// per job operation instead of one broadcast per node, and the per-node
    /// pending counters make untouched nodes free to skip.
    pub fn poll_nodes(&mut self, nodes: &[NodeId]) -> usize {
        nodes.iter().map(|&n| self.poll_node(n)).sum()
    }

    /// Snapshot for persistence: every entry grouped by node (ascending) in
    /// per-node registration order, plus the next handle value. That order
    /// is exactly what [`DromRegistry::from_snapshot`] needs to rebuild the
    /// per-node indices deterministically.
    pub fn snapshot(&self) -> (Vec<ProcessEntry>, u64) {
        let mut out = Vec::with_capacity(self.entries.len());
        for handles in &self.by_node {
            for h in handles {
                out.push(self.entries[&h.0].clone());
            }
        }
        (out, self.next_handle)
    }

    /// Rebuilds a registry from a [`snapshot`](DromRegistry::snapshot).
    pub fn from_snapshot(
        entries: Vec<ProcessEntry>,
        next_handle: u64,
    ) -> Result<DromRegistry, String> {
        let mut r = DromRegistry::default();
        for e in entries {
            if e.handle.0 >= next_handle {
                return Err(format!(
                    "DROM entry handle {} >= next_handle {next_handle}",
                    e.handle.0
                ));
            }
            if e.pending.is_some() {
                *r.pending_slot(e.node) += 1;
            }
            r.node_slot(e.node).push(e.handle);
            if r.entries.insert(e.handle.0, e).is_some() {
                return Err("duplicate DROM handle in snapshot".into());
            }
        }
        r.next_handle = next_handle;
        Ok(r)
    }

    /// Validates that current masks of processes sharing a node are disjoint.
    pub fn validate_node(&self, node: NodeId) -> Result<(), String> {
        let procs: Vec<&ProcessEntry> = self.processes_on(node).collect();
        for (i, a) in procs.iter().enumerate() {
            if a.current.is_empty() {
                return Err(format!("{} on {node} has an empty mask", a.job));
            }
            for b in &procs[i + 1..] {
                if !a.current.is_disjoint(&b.current) {
                    return Err(format!(
                        "{} and {} overlap on {node}: {:?} vs {:?}",
                        a.job, b.job, a.current, b.current
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(lo: usize, hi: usize) -> CpuMask {
        CpuMask::range(16, lo, hi)
    }

    #[test]
    fn attach_detach_lifecycle() {
        let mut r = DromRegistry::new();
        let h = r.attach(JobId(1), NodeId(0), mask(0, 16));
        assert!(r.get(h).is_some());
        assert_eq!(r.processes_on(NodeId(0)).count(), 1);
        let final_mask = r.detach(h).unwrap();
        assert_eq!(final_mask.count(), 16);
        assert!(r.get(h).is_none());
        assert!(r.detach(h).is_none(), "double detach is None");
    }

    #[test]
    fn pending_masks_apply_at_malleability_point() {
        let mut r = DromRegistry::new();
        let h = r.attach(JobId(1), NodeId(0), mask(0, 16));
        assert!(r.set_mask(h, mask(0, 8)));
        // Not yet applied:
        assert_eq!(r.get(h).unwrap().current.count(), 16);
        assert!(r.get(h).unwrap().has_pending());
        // Malleability point:
        assert_eq!(r.poll(h).unwrap().count(), 8);
        assert!(!r.get(h).unwrap().has_pending());
        assert!(r.poll(h).is_none(), "no further change pending");
    }

    #[test]
    fn poll_node_applies_all_pending() {
        let mut r = DromRegistry::new();
        let h1 = r.attach(JobId(1), NodeId(3), mask(0, 16));
        let h2 = r.attach(JobId(2), NodeId(3), mask(0, 0));
        r.set_mask(h1, mask(0, 8));
        r.set_mask(h2, mask(8, 16));
        assert_eq!(r.poll_node(NodeId(3)), 2);
        assert!(r.validate_node(NodeId(3)).is_ok());
    }

    #[test]
    fn validate_detects_overlap() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), mask(0, 9));
        r.attach(JobId(2), NodeId(0), mask(8, 16));
        let err = r.validate_node(NodeId(0)).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn validate_detects_empty_mask() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), CpuMask::empty(16));
        assert!(r.validate_node(NodeId(0)).unwrap_err().contains("empty"));
    }

    #[test]
    fn find_by_job_and_node() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), mask(0, 4));
        r.attach(JobId(1), NodeId(1), mask(0, 4));
        assert!(r.find(JobId(1), NodeId(1)).is_some());
        assert!(r.find(JobId(2), NodeId(0)).is_none());
    }

    #[test]
    fn set_mask_on_unknown_handle_is_false() {
        let mut r = DromRegistry::new();
        assert!(!r.set_mask(DromHandle(99), mask(0, 1)));
    }
}
