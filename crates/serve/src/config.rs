//! Service configuration: the machine shape plus the tenant roster.

use cfm_core::config::CfmConfig;

/// Scheduling criticality class — which ring of the QoS scheduler a
/// tenant lives in.
///
/// Latency-critical tenants are served *first* every slot: the
/// scheduler drains the latency-critical ring (deficit round-robin
/// among its members) before best-effort deficit is touched, so a
/// critical tenant's queueing delay is bounded by its own backlog plus
/// the critical ring's rotation — never by a best-effort neighbor's
/// flood. Within a class, weights behave exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Criticality {
    /// Preempts best-effort deficit: served first each slot.
    LatencyCritical,
    /// The default class; shares whatever the critical ring left over.
    #[default]
    BestEffort,
}

/// One tenant's admission, scheduling, and QoS parameters.
///
/// Built fluently and handed to [`ServiceConfig::with_tenant`]:
///
/// ```
/// use cfm_serve::{Criticality, TenantSpec};
///
/// let spec = TenantSpec::new("interactive")
///     .weight(2)
///     .queue_capacity(32)
///     .criticality(Criticality::LatencyCritical);
/// assert_eq!(spec.weight, 2);
/// assert!(spec.bank_budget.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (appears in metrics and reports).
    pub name: String,
    /// Deficit round-robin weight: a backlogged tenant receives issue
    /// slots in proportion to its weight *within its criticality
    /// class*. Must be ≥ 1.
    pub weight: u32,
    /// Bound on this tenant's admission queue; a submit beyond it is
    /// rejected with [`crate::Reject::QueueFull`].
    pub queue_capacity: usize,
    /// Scheduling class (see [`Criticality`]). Defaults to
    /// [`Criticality::BestEffort`], which reproduces the pre-QoS
    /// scheduler exactly.
    pub criticality: Criticality,
    /// Per-bank bandwidth budget: the most operations this tenant may
    /// issue *into each bank* per budget window of
    /// [`ServiceConfig::budget_window`] slots. In the CFM schedule
    /// every block operation touches **every** bank exactly once
    /// (`bank(t, p) = (t + c·p) mod b`), so a per-bank access cap and a
    /// per-window issue cap are the same number — the budget is
    /// enforced as the latter and documented as such. A tenant at its
    /// budget is *deferred* (skipped by the scheduler until the window
    /// rolls), never rejected; deferrals are counted in
    /// [`crate::TenantMetrics::budget_deferrals`]. `None` (the
    /// default) leaves the tenant unregulated.
    pub bank_budget: Option<u32>,
}

impl TenantSpec {
    /// A spec for `name` with default parameters: weight 1, queue
    /// capacity 64, best-effort, no bank budget.
    pub fn new(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight: 1,
            queue_capacity: 64,
            criticality: Criticality::BestEffort,
            bank_budget: None,
        }
    }

    /// Set the DRR weight (must be ≥ 1; enforced at
    /// [`crate::Service::start`]).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Set the admission-queue bound (must be ≥ 1; enforced at
    /// [`crate::Service::start`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the scheduling class.
    pub fn criticality(mut self, class: Criticality) -> Self {
        self.criticality = class;
        self
    }

    /// Cap this tenant's per-bank issue rate (see
    /// [`TenantSpec::bank_budget`] for the exact accounting).
    pub fn bank_budget(mut self, ops_per_window: u32) -> Self {
        self.bank_budget = Some(ops_per_window);
        self
    }
}

/// Default [`ServiceConfig::budget_window`]: slots per bank-budget
/// accounting window.
pub const DEFAULT_BUDGET_WINDOW: usize = 32;

/// Configuration consumed by [`crate::Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The machine to drive (sequential or parallel engine).
    pub machine: CfmConfig,
    /// Blocks of shared memory (offsets per bank).
    pub offsets: usize,
    /// The tenant roster; tenant IDs are indexes into this list.
    pub tenants: Vec<TenantSpec>,
    /// Global bound on queued operations across all tenants. A submit
    /// that would exceed it is shed with [`crate::Reject::Overloaded`]
    /// even if the tenant's own queue has room — the service's
    /// load-shedding backstop. Defaults to 4× the machine's processor
    /// count per tenant once tenants are added, until set explicitly.
    pub max_queued: Option<usize>,
    /// Slots per bank-budget accounting window (see
    /// [`TenantSpec::bank_budget`]). Issue counts reset every
    /// `budget_window` machine slots. Defaults to
    /// [`DEFAULT_BUDGET_WINDOW`].
    pub budget_window: usize,
}

impl ServiceConfig {
    /// A configuration for `machine` with `offsets` blocks of shared
    /// memory and no tenants yet.
    pub fn new(machine: CfmConfig, offsets: usize) -> Self {
        ServiceConfig {
            machine,
            offsets,
            tenants: Vec::new(),
            max_queued: None,
            budget_window: DEFAULT_BUDGET_WINDOW,
        }
    }

    /// Add a tenant from a typed [`TenantSpec`]. The tenant's ID is its
    /// position in the roster (first added is 0).
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Set the global queued-operation bound (load-shedding threshold).
    pub fn max_queued(mut self, limit: usize) -> Self {
        self.max_queued = Some(limit);
        self
    }

    /// Set the bank-budget accounting window in slots (must be ≥ 1;
    /// enforced at [`crate::Service::start`]).
    pub fn budget_window(mut self, slots: usize) -> Self {
        self.budget_window = slots;
        self
    }

    /// The effective global bound: the explicit limit, or the sum of all
    /// tenant queue capacities when unset (i.e. shedding only at the
    /// per-tenant bound).
    pub fn effective_max_queued(&self) -> usize {
        self.max_queued
            .unwrap_or_else(|| self.tenants.iter().map(|t| t.queue_capacity).sum())
    }
}
