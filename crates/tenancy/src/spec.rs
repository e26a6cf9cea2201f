//! Tenant specifications: identity, QoS contract, scheduling weight and
//! admission policy.

use bskel_core::Contract;

/// What admission control does when a tenant's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop the oldest queued task to make room for the new arrival
    /// (freshest-first service; suits monitoring / latest-value streams).
    #[default]
    ShedOldest,
    /// Refuse the new arrival and keep the queue intact (oldest-first
    /// service; suits batch streams where earlier tasks matter more).
    Reject,
}

impl ShedPolicy {
    /// Wire encoding used by the `TenantAttach` frame (see
    /// `bskel_net::proto::TenantAttach::shed_policy`).
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            ShedPolicy::ShedOldest => 0,
            ShedPolicy::Reject => 1,
        }
    }

    /// Decodes the wire byte; unknown values fall back to the default.
    pub(crate) fn from_wire(b: u8) -> Self {
        match b {
            1 => ShedPolicy::Reject,
            _ => ShedPolicy::ShedOldest,
        }
    }
}

/// One tenant's attachment request: a name, a QoS contract, and the
/// admission-control shape of its queue.
///
/// The initial fair-share weight defaults to the contract's throughput
/// floor (so two tenants promising 100 and 300 tasks/s start at a 1:3
/// split) and to `1.0` for best-effort tenants; per-tenant managers then
/// adjust the live weight at runtime via `GROW_SHARE` / `SHRINK_SHARE`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant identity; must be unique within a front-end, and becomes the
    /// `tenant` label on ops-plane metrics.
    pub name: String,
    /// The tenant's QoS contract (parsed by the standard contract
    /// grammar; drives the per-tenant manager's rule parameters).
    pub contract: Contract,
    /// Initial DRR weight (relative; normalised against the other live
    /// tenants' weights to obtain the `tenantShare` bean).
    pub weight: f64,
    /// Bounded admission-queue capacity, in tasks.
    pub queue_capacity: usize,
    /// Behaviour when the queue is full.
    pub shed_policy: ShedPolicy,
}

impl TenantSpec {
    /// A spec with the default queue shape (capacity 64, shed-oldest) and
    /// the weight derived from `contract` as documented on the type.
    pub fn new(name: impl Into<String>, contract: Contract) -> Self {
        let weight = match contract.throughput_bounds() {
            Some((lo, _)) if lo > 0.0 => lo,
            _ => 1.0,
        };
        Self {
            name: name.into(),
            contract,
            weight,
            queue_capacity: 64,
            shed_policy: ShedPolicy::default(),
        }
    }

    /// Overrides the initial DRR weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be positive and finite, got {weight}"
        );
        self.weight = weight;
        self
    }

    /// Overrides the admission-queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "tenant queue capacity must be at least 1");
        self.queue_capacity = cap;
        self
    }

    /// Overrides the full-queue policy.
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_defaults_to_contract_floor() {
        let s = TenantSpec::new("a", Contract::min_throughput(250.0));
        assert_eq!(s.weight, 250.0);
        let b = TenantSpec::new("b", Contract::BestEffort);
        assert_eq!(b.weight, 1.0);
    }

    #[test]
    fn builders_override() {
        let s = TenantSpec::new("a", Contract::BestEffort)
            .with_weight(3.0)
            .with_queue_capacity(8)
            .with_shed_policy(ShedPolicy::Reject);
        assert_eq!(s.weight, 3.0);
        assert_eq!(s.queue_capacity, 8);
        assert_eq!(s.shed_policy, ShedPolicy::Reject);
    }

    #[test]
    fn shed_policy_wire_roundtrip() {
        for p in [ShedPolicy::ShedOldest, ShedPolicy::Reject] {
            assert_eq!(ShedPolicy::from_wire(p.to_wire()), p);
        }
        // Unknown bytes degrade to the default rather than failing.
        assert_eq!(ShedPolicy::from_wire(7), ShedPolicy::ShedOldest);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = TenantSpec::new("a", Contract::BestEffort).with_weight(0.0);
    }
}
