//! Contracts (SLAs) and their algebra.
//!
//! A contract is what the user agrees with the top-level manager and what
//! each manager, in turn, agrees with its children (paper §3.1): *"the
//! contract is described in a formalism appropriate to the non-functional
//! concern and represents the target for the autonomic activity"*. The
//! grammar here covers the contracts the paper's experiments use — a
//! minimum throughput (Fig. 3's `0.6 task/s`), a throughput range
//! (Fig. 4's `0.3–0.7 task/s`), best-effort (the farm→worker sub-contract),
//! producer output rates (the incRate/decRate contracts), parallelism
//! degrees, and the security concern's secure-domain sets — plus
//! conjunctions for multi-concern SLAs.

pub mod split;

use bskel_monitor::SensorSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A service-level agreement between a user/parent manager and a manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Contract {
    /// "Do your best": the sub-contract a farm manager hands its workers
    /// (paper §4.2 — workers are passive from the farm's viewpoint but
    /// locally autonomically optimise).
    BestEffort,
    /// Deliver at least this many tasks/s (Fig. 3).
    MinThroughput(f64),
    /// Keep delivered throughput inside `[lo, hi]` tasks/s (Fig. 4).
    ThroughputRange {
        /// Lower bound (tasks/s).
        lo: f64,
        /// Upper bound (tasks/s).
        hi: f64,
    },
    /// Emit output at `target` tasks/s within a relative `tolerance`
    /// (the producer contracts sent by incRate/decRate actions).
    OutputRate {
        /// Target emission rate (tasks/s).
        target: f64,
        /// Relative tolerance: the accepted band is
        /// `[target·(1−tolerance), target·(1+tolerance)]`.
        tolerance: f64,
    },
    /// Keep the parallelism degree inside `[min, max]` workers.
    ParDegree {
        /// Minimum parallelism degree.
        min: u32,
        /// Maximum parallelism degree.
        max: u32,
    },
    /// Security concern: communication with nodes in these (untrusted)
    /// domains must use a secure protocol (paper §3.2's
    /// `untrusted_ip_domain_A`).
    SecureDomains(BTreeSet<String>),
    /// Conjunction of contracts (multi-goal SLAs).
    All(Vec<Contract>),
}

/// Contract validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractError {
    /// A numeric bound was negative, NaN or an empty/inverted range.
    InvalidBound(String),
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::InvalidBound(msg) => write!(f, "invalid contract bound: {msg}"),
        }
    }
}

impl std::error::Error for ContractError {}

impl Contract {
    /// `MinThroughput` builder.
    pub fn min_throughput(tasks_per_sec: f64) -> Self {
        Contract::MinThroughput(tasks_per_sec)
    }

    /// `ThroughputRange` builder.
    pub fn throughput_range(lo: f64, hi: f64) -> Self {
        Contract::ThroughputRange { lo, hi }
    }

    /// `OutputRate` builder with the default ±20% tolerance.
    pub fn output_rate(target: f64) -> Self {
        Contract::OutputRate {
            target,
            tolerance: 0.2,
        }
    }

    /// `ParDegree` builder.
    pub fn par_degree(min: u32, max: u32) -> Self {
        Contract::ParDegree { min, max }
    }

    /// `SecureDomains` builder.
    pub fn secure_domains<I, S>(domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Contract::SecureDomains(domains.into_iter().map(Into::into).collect())
    }

    /// Conjunction builder; flattens nested `All`s.
    pub fn all(parts: impl IntoIterator<Item = Contract>) -> Self {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Contract::All(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len == 1")
        } else {
            Contract::All(flat)
        }
    }

    /// Checks numeric sanity of all bounds.
    pub fn validate(&self) -> Result<(), ContractError> {
        let bad = |msg: String| Err(ContractError::InvalidBound(msg));
        match self {
            Contract::BestEffort | Contract::SecureDomains(_) => Ok(()),
            Contract::MinThroughput(t) => {
                if t.is_nan() || *t < 0.0 {
                    bad(format!("minThroughput {t}"))
                } else {
                    Ok(())
                }
            }
            Contract::ThroughputRange { lo, hi } => {
                if lo.is_nan() || hi.is_nan() || *lo < 0.0 || lo > hi {
                    bad(format!("throughputRange [{lo}, {hi}]"))
                } else {
                    Ok(())
                }
            }
            Contract::OutputRate { target, tolerance } => {
                if target.is_nan() || *target < 0.0 || !(0.0..1.0).contains(tolerance) {
                    bad(format!("outputRate {target} ±{tolerance}"))
                } else {
                    Ok(())
                }
            }
            Contract::ParDegree { min, max } => {
                if min > max {
                    bad(format!("parDegree [{min}, {max}]"))
                } else {
                    Ok(())
                }
            }
            Contract::All(parts) => parts.iter().try_for_each(Contract::validate),
        }
    }

    /// The delivered-throughput stripe `[lo, hi]` this contract implies,
    /// if any. `MinThroughput(t)` maps to `[t, +inf)`. For conjunctions the
    /// stripes intersect.
    pub fn throughput_bounds(&self) -> Option<(f64, f64)> {
        match self {
            Contract::MinThroughput(t) => Some((*t, f64::INFINITY)),
            Contract::ThroughputRange { lo, hi } => Some((*lo, *hi)),
            Contract::All(parts) => {
                let mut acc: Option<(f64, f64)> = None;
                for p in parts {
                    if let Some((lo, hi)) = p.throughput_bounds() {
                        acc = Some(match acc {
                            None => (lo, hi),
                            Some((alo, ahi)) => (alo.max(lo), ahi.min(hi)),
                        });
                    }
                }
                acc
            }
            _ => None,
        }
    }

    /// The output-rate band `[floor, ceil]` this contract implies, if any.
    pub fn output_rate_bounds(&self) -> Option<(f64, f64)> {
        match self {
            Contract::OutputRate { target, tolerance } => {
                Some((target * (1.0 - tolerance), target * (1.0 + tolerance)))
            }
            Contract::All(parts) => parts.iter().find_map(Contract::output_rate_bounds),
            _ => None,
        }
    }

    /// The parallelism-degree bounds `[min, max]`, if constrained.
    pub fn par_degree_bounds(&self) -> Option<(u32, u32)> {
        match self {
            Contract::ParDegree { min, max } => Some((*min, *max)),
            Contract::All(parts) => parts.iter().find_map(Contract::par_degree_bounds),
            _ => None,
        }
    }

    /// The set of domains requiring secure communication, if the contract
    /// carries a security goal. Conjunctions union their domain sets.
    pub fn secure_domain_set(&self) -> Option<BTreeSet<String>> {
        match self {
            Contract::SecureDomains(set) => Some(set.clone()),
            Contract::All(parts) => {
                let mut acc: Option<BTreeSet<String>> = None;
                for p in parts {
                    if let Some(set) = p.secure_domain_set() {
                        acc.get_or_insert_with(BTreeSet::new).extend(set);
                    }
                }
                acc
            }
            _ => None,
        }
    }

    /// Evaluates the *performance* goals of this contract against a sensor
    /// snapshot. Returns `None` when the contract carries no goal checkable
    /// from a snapshot (e.g. pure security contracts — those are checked by
    /// the security manager against deployment state instead).
    pub fn satisfied_by(&self, snap: &SensorSnapshot) -> Option<bool> {
        match self {
            Contract::BestEffort => Some(true),
            Contract::MinThroughput(t) => Some(snap.departure_rate >= *t),
            Contract::ThroughputRange { lo, hi } => {
                Some(snap.departure_rate >= *lo && snap.departure_rate <= *hi)
            }
            Contract::OutputRate { .. } => {
                let (lo, hi) = self.output_rate_bounds().expect("OutputRate has bounds");
                Some(snap.departure_rate >= lo && snap.departure_rate <= hi)
            }
            Contract::ParDegree { min, max } => {
                Some(snap.num_workers >= *min && snap.num_workers <= *max)
            }
            Contract::SecureDomains(_) => None,
            Contract::All(parts) => {
                let mut any = false;
                for p in parts {
                    match p.satisfied_by(snap) {
                        Some(false) => return Some(false),
                        Some(true) => any = true,
                        None => {}
                    }
                }
                any.then_some(true)
            }
        }
    }
}

impl fmt::Display for Contract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Contract::BestEffort => write!(f, "bestEffort"),
            Contract::MinThroughput(t) => write!(f, "minThroughput({t} task/s)"),
            Contract::ThroughputRange { lo, hi } => {
                write!(f, "throughputRange({lo}–{hi} task/s)")
            }
            Contract::OutputRate { target, tolerance } => {
                write!(f, "outputRate({target} task/s ±{:.0}%)", tolerance * 100.0)
            }
            Contract::ParDegree { min, max } => write!(f, "parDegree({min}–{max})"),
            Contract::SecureDomains(set) => {
                let names: Vec<&str> = set.iter().map(String::as_str).collect();
                write!(f, "secure({})", names.join(","))
            }
            Contract::All(parts) => {
                let texts: Vec<String> = parts.iter().map(Contract::to_string).collect();
                write!(f, "all[{}]", texts.join(" ∧ "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Contract {
        /// Whether the contract is pure best-effort (no enforceable goal).
        pub(crate) fn is_best_effort(&self) -> bool {
            match self {
                Contract::BestEffort => true,
                Contract::All(parts) => parts.iter().all(Contract::is_best_effort),
                _ => false,
            }
        }
    }

    fn snap(departure: f64, workers: u32) -> SensorSnapshot {
        let mut s = SensorSnapshot::empty(0.0);
        s.departure_rate = departure;
        s.num_workers = workers;
        s
    }

    #[test]
    fn min_throughput_satisfaction() {
        let c = Contract::min_throughput(0.6);
        assert_eq!(c.satisfied_by(&snap(0.7, 4)), Some(true));
        assert_eq!(c.satisfied_by(&snap(0.5, 4)), Some(false));
        assert_eq!(c.throughput_bounds(), Some((0.6, f64::INFINITY)));
    }

    #[test]
    fn throughput_range_satisfaction() {
        let c = Contract::throughput_range(0.3, 0.7);
        assert_eq!(c.satisfied_by(&snap(0.5, 4)), Some(true));
        assert_eq!(c.satisfied_by(&snap(0.2, 4)), Some(false));
        assert_eq!(c.satisfied_by(&snap(0.8, 4)), Some(false));
        assert_eq!(
            c.satisfied_by(&snap(0.3, 4)),
            Some(true),
            "bounds inclusive"
        );
    }

    #[test]
    fn output_rate_band() {
        let c = Contract::output_rate(1.0);
        let (lo, hi) = c.output_rate_bounds().unwrap();
        assert!((lo - 0.8).abs() < 1e-12);
        assert!((hi - 1.2).abs() < 1e-12);
        assert_eq!(c.satisfied_by(&snap(1.1, 1)), Some(true));
        assert_eq!(c.satisfied_by(&snap(0.5, 1)), Some(false));
    }

    #[test]
    fn par_degree_satisfaction() {
        let c = Contract::par_degree(2, 8);
        assert_eq!(c.satisfied_by(&snap(0.0, 4)), Some(true));
        assert_eq!(c.satisfied_by(&snap(0.0, 1)), Some(false));
        assert_eq!(c.satisfied_by(&snap(0.0, 9)), Some(false));
    }

    #[test]
    fn security_contract_not_snapshot_checkable() {
        let c = Contract::secure_domains(["untrusted_ip_domain_A"]);
        assert_eq!(c.satisfied_by(&snap(1.0, 1)), None);
        assert_eq!(
            c.secure_domain_set()
                .unwrap()
                .into_iter()
                .collect::<Vec<_>>(),
            ["untrusted_ip_domain_A"]
        );
    }

    #[test]
    fn best_effort_always_satisfied() {
        assert_eq!(Contract::BestEffort.satisfied_by(&snap(0.0, 0)), Some(true));
        assert!(Contract::BestEffort.is_best_effort());
        assert!(!Contract::min_throughput(1.0).is_best_effort());
    }

    #[test]
    fn conjunction_semantics() {
        let c = Contract::all([
            Contract::throughput_range(0.3, 0.7),
            Contract::par_degree(1, 8),
            Contract::secure_domains(["domA"]),
        ]);
        assert_eq!(c.satisfied_by(&snap(0.5, 4)), Some(true));
        assert_eq!(c.satisfied_by(&snap(0.5, 9)), Some(false));
        assert_eq!(c.satisfied_by(&snap(0.1, 4)), Some(false));
        assert_eq!(c.secure_domain_set().unwrap().len(), 1);
        assert_eq!(c.par_degree_bounds(), Some((1, 8)));
    }

    #[test]
    fn conjunction_of_unknowns_is_none() {
        let c = Contract::all([
            Contract::secure_domains(["a"]),
            Contract::secure_domains(["b"]),
        ]);
        assert_eq!(c.satisfied_by(&snap(0.5, 4)), None);
        let set = c.secure_domain_set().unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn all_flattens_and_collapses() {
        let c = Contract::all([Contract::all([Contract::BestEffort])]);
        assert_eq!(c, Contract::BestEffort);
        let c = Contract::all([
            Contract::all([Contract::min_throughput(0.5), Contract::par_degree(1, 2)]),
            Contract::BestEffort,
        ]);
        match c {
            Contract::All(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected All, got {other:?}"),
        }
    }

    #[test]
    fn throughput_bounds_intersect_in_conjunction() {
        let c = Contract::all([
            Contract::min_throughput(0.4),
            Contract::throughput_range(0.3, 0.7),
        ]);
        assert_eq!(c.throughput_bounds(), Some((0.4, 0.7)));
    }

    #[test]
    fn validate_accepts_good_contracts() {
        for c in [
            Contract::BestEffort,
            Contract::min_throughput(0.6),
            Contract::throughput_range(0.3, 0.7),
            Contract::output_rate(1.0),
            Contract::par_degree(1, 16),
            Contract::secure_domains(["d"]),
        ] {
            assert_eq!(c.validate(), Ok(()), "{c}");
        }
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        assert!(Contract::min_throughput(-1.0).validate().is_err());
        assert!(Contract::throughput_range(0.7, 0.3).validate().is_err());
        assert!(Contract::par_degree(5, 2).validate().is_err());
        assert!(Contract::OutputRate {
            target: 1.0,
            tolerance: 1.5
        }
        .validate()
        .is_err());
        assert!(
            Contract::all([Contract::BestEffort, Contract::min_throughput(f64::NAN)])
                .validate()
                .is_err()
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Contract::throughput_range(0.3, 0.7).to_string(),
            "throughputRange(0.3–0.7 task/s)"
        );
        assert!(Contract::all([
            Contract::min_throughput(0.6),
            Contract::secure_domains(["domA"])
        ])
        .to_string()
        .contains('∧'));
    }
}
