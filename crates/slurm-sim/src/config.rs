//! Simulator configuration (the knobs a SLURM admin would set).

use crate::tenant::{QueuePolicy, TenantRegistry};

/// How the baseline backfill plans ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillMode {
    /// EASY/aggressive backfill: a reservation for the queue head only;
    /// later jobs may start now if they don't delay it. `O(R + Q)` per pass —
    /// required for the full 198 K-job Curie run.
    Easy,
    /// Conservative (SLURM `sched/backfill`-like): every examined job gets a
    /// reservation in the availability profile. More faithful, costlier.
    Conservative,
}

/// Simulator/scheduler configuration.
#[derive(Debug, Clone)]
pub struct SlurmConfig {
    /// Maximum pending jobs examined per scheduling pass
    /// (SLURM `bf_max_job_test`).
    pub backfill_depth: usize,
    pub backfill_mode: BackfillMode,
    /// MPI ranks per node assumed for trace jobs (shrink floor is one core
    /// per rank). The MN4 production setup runs one rank per socket.
    pub ranks_per_node: u32,
    /// Fraction of jobs that are malleable (1.0 in the paper's simulations;
    /// lower values exercise the mixed static/malleable support).
    pub malleable_fraction: f64,
    /// Seed for the per-job malleability draw when `malleable_fraction < 1`.
    pub malleable_seed: u64,
    /// Run `ClusterState::validate` after every mutation (tests/debug).
    pub self_check: bool,
    /// The tenant table (identities, weights, quotas). Empty — the default —
    /// disables all tenant accounting and quota checks; the simulator is
    /// then bit-identical to the untenanted build.
    pub tenants: TenantRegistry,
    /// How the backfill pass orders the pending queue (FIFO by default;
    /// fair-share reorders by usage-decayed priority).
    pub queue_policy: QueuePolicy,
}

impl Default for SlurmConfig {
    fn default() -> Self {
        SlurmConfig {
            backfill_depth: 100,
            backfill_mode: BackfillMode::Conservative,
            ranks_per_node: 2,
            malleable_fraction: 1.0,
            malleable_seed: 0xD20,
            self_check: false,
            tenants: TenantRegistry::default(),
            queue_policy: QueuePolicy::Fifo,
        }
    }
}

impl SlurmConfig {
    /// The malleability adoption fraction for a job of `(tenant, project)`:
    /// the tenant's override when registered, the global knob otherwise.
    pub fn malleable_fraction_for(&self, tenant: u32, project: u32) -> f64 {
        if self.tenants.is_empty() {
            return self.malleable_fraction;
        }
        self.tenants
            .slot(tenant, project)
            .and_then(|s| self.tenants.get(s).malleable_fraction)
            .unwrap_or(self.malleable_fraction)
    }
}

impl SlurmConfig {
    /// Configuration for very large traces (full CEA-Curie): EASY mode.
    pub fn large_scale() -> Self {
        SlurmConfig {
            backfill_mode: BackfillMode::Easy,
            backfill_depth: 200,
            ..SlurmConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_slurm_like() {
        let c = SlurmConfig::default();
        assert_eq!(c.backfill_depth, 100);
        assert_eq!(c.backfill_mode, BackfillMode::Conservative);
        assert_eq!(c.ranks_per_node, 2);
        assert_eq!(c.malleable_fraction, 1.0);
    }

    #[test]
    fn large_scale_uses_easy() {
        assert_eq!(SlurmConfig::large_scale().backfill_mode, BackfillMode::Easy);
    }

    #[test]
    fn default_is_untenanted_fifo() {
        let c = SlurmConfig::default();
        assert!(c.tenants.is_empty());
        assert_eq!(c.queue_policy, QueuePolicy::Fifo);
        assert_eq!(c.malleable_fraction_for(42, 0), c.malleable_fraction);
    }

    #[test]
    fn tenant_malleability_override_applies_only_to_registered_tenants() {
        let mut c = SlurmConfig {
            malleable_fraction: 0.8,
            ..SlurmConfig::default()
        };
        c.tenants.add(crate::tenant::Tenant {
            malleable_fraction: Some(0.25),
            ..crate::tenant::Tenant::unlimited(1, 0)
        });
        c.tenants.add(crate::tenant::Tenant::unlimited(2, 0));
        assert_eq!(c.malleable_fraction_for(1, 0), 0.25);
        assert_eq!(c.malleable_fraction_for(1, 9), 0.25, "project-0 fallback");
        assert_eq!(c.malleable_fraction_for(2, 0), 0.8, "no override inherits");
        assert_eq!(c.malleable_fraction_for(3, 0), 0.8, "unknown tenant inherits");
    }
}
