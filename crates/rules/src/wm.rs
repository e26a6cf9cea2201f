//! Working memory and parameter tables.
//!
//! The *working memory* holds the beans sampled from the computation this
//! control period (the dynamic part); the *parameter table* holds the
//! thresholds derived from the currently-agreed contract (the
//! `ManagersConstants` of the paper's Fig. 5 — quasi-static: they change
//! only when a new contract arrives from the user or the parent manager).

use std::collections::BTreeMap;
use std::fmt;

/// Named scalar beans sampled once per control cycle.
///
/// Booleans are encoded 0.0 / 1.0; [`WorkingMemory::is_set`] applies the
/// conventional "non-zero is true" reading.
#[derive(Debug, Clone, Default)]
pub struct WorkingMemory {
    /// Bean name → (value, the `epoch` it was last written in).
    beans: BTreeMap<String, (f64, bool)>,
    /// Flipped by every [`WorkingMemory::refill`], which tells the beans
    /// it wrote from those left over from the previous cycle.
    epoch: bool,
}

impl WorkingMemory {
    /// Creates an empty working memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a working memory from `(name, value)` pairs, e.g. the output
    /// of `bskel_monitor::SensorSnapshot::to_beans`.
    pub fn from_beans<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        let mut wm = Self::new();
        for (name, value) in pairs {
            wm.insert(name, value);
        }
        wm
    }

    /// Inserts or updates a bean.
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.beans.insert(name.into(), (value, self.epoch));
    }

    /// Replaces the contents with `pairs`, leaving what
    /// [`WorkingMemory::from_beans`]`(pairs)` would build: a repeated
    /// name keeps its last value, and a bean `pairs` does not name is
    /// gone. Allocates only for names the memory does not hold yet, so a
    /// control loop sensing the same beans every cycle refills it for
    /// free.
    pub fn refill<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, f64)>) {
        self.epoch = !self.epoch;
        let epoch = self.epoch;
        let mut written = 0;
        for (name, value) in pairs {
            match self.beans.get_mut(name) {
                Some(slot) => {
                    if slot.1 != epoch {
                        written += 1;
                    }
                    *slot = (value, epoch);
                }
                None => {
                    self.beans.insert(name.to_owned(), (value, epoch));
                    written += 1;
                }
            }
        }
        if written < self.beans.len() {
            self.beans.retain(|_, slot| slot.1 == epoch);
        }
    }

    /// Reads a bean.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.beans.get(name).map(|slot| slot.0)
    }

    /// Reads a bean as a boolean (missing counts as false).
    pub fn is_set(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != 0.0)
    }

    /// Removes a bean, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<f64> {
        self.beans.remove(name).map(|slot| slot.0)
    }

    /// Number of beans held.
    pub fn len(&self) -> usize {
        self.beans.len()
    }

    /// True when no beans are held.
    pub fn is_empty(&self) -> bool {
        self.beans.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.beans.iter().map(|(k, slot)| (k.as_str(), slot.0))
    }
}

/// Equal when they hold the same beans with the same values.
impl PartialEq for WorkingMemory {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Display for WorkingMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for WorkingMemory {
    fn from_iter<I: IntoIterator<Item = (S, f64)>>(iter: I) -> Self {
        Self::from_beans(iter)
    }
}

/// Contract-derived rule parameters (`$NAME` references in rule text).
///
/// The paper's Fig. 5 rules compare beans against `ManagersConstants.*`
/// thresholds; in `bskel` those thresholds are recomputed from the active
/// contract whenever a manager receives a new one, so the same rule file
/// serves any SLA.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamTable {
    params: BTreeMap<String, f64>,
}

impl ParamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a parameter (builder style).
    pub fn with(mut self, name: impl Into<String>, value: f64) -> Self {
        self.set(name, value);
        self
    }

    /// Sets a parameter.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.params.insert(name.into(), value);
    }

    /// Reads a parameter.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.params.get(name).copied()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.params.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of parameters held.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are held.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }
}

impl<S: Into<String>> FromIterator<(S, f64)> for ParamTable {
    fn from_iter<I: IntoIterator<Item = (S, f64)>>(iter: I) -> Self {
        let mut t = Self::new();
        for (k, v) in iter {
            t.set(k, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut wm = WorkingMemory::new();
        wm.insert("arrivalRate", 0.4);
        assert_eq!(wm.get("arrivalRate"), Some(0.4));
        assert_eq!(wm.get("departureRate"), None);
        assert_eq!(wm.len(), 1);
    }

    #[test]
    fn flags_and_is_set() {
        let mut wm = WorkingMemory::new();
        wm.insert("endOfStream", 1.0);
        wm.insert("reconfiguring", 0.0);
        assert!(wm.is_set("endOfStream"));
        assert!(!wm.is_set("reconfiguring"));
        assert!(!wm.is_set("absent"));
    }

    #[test]
    fn from_beans_and_iter_sorted() {
        let wm = WorkingMemory::from_beans([("b", 2.0), ("a", 1.0)]);
        let names: Vec<_> = wm.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn insert_overwrites() {
        let mut wm = WorkingMemory::new();
        wm.insert("x", 1.0);
        wm.insert("x", 2.0);
        assert_eq!(wm.get("x"), Some(2.0));
        assert_eq!(wm.len(), 1);
    }

    #[test]
    fn remove_returns_value() {
        let mut wm = WorkingMemory::from_beans([("x", 5.0)]);
        assert_eq!(wm.remove("x"), Some(5.0));
        assert!(wm.is_empty());
        assert_eq!(wm.remove("x"), None);
    }

    #[test]
    fn display_is_stable() {
        let wm = WorkingMemory::from_beans([("b", 2.0), ("a", 1.0)]);
        assert_eq!(wm.to_string(), "{a=1, b=2}");
    }

    /// Refills `wm` with each step in turn, checking it against a fresh
    /// `from_beans` of the same step.
    fn refill_matches_from_beans(steps: &[&[(&str, f64)]]) {
        let mut wm = WorkingMemory::new();
        for (i, step) in steps.iter().enumerate() {
            wm.refill(step.iter().copied());
            let want = WorkingMemory::from_beans(step.iter().copied());
            assert_eq!(wm, want, "step {i}");
            assert_eq!(wm.to_string(), want.to_string(), "step {i}");
        }
    }

    #[test]
    fn refill_with_the_same_names_updates_values() {
        refill_matches_from_beans(&[&[("a", 1.0), ("b", 2.0)], &[("a", 3.0), ("b", 4.0)]]);
    }

    #[test]
    fn refill_drops_a_bean_that_disappears() {
        refill_matches_from_beans(&[&[("a", 1.0), ("b", 2.0)], &[("b", 5.0)], &[]]);
        let mut wm = WorkingMemory::from_beans([("gone", 1.0), ("kept", 2.0)]);
        wm.refill([("kept", 3.0)]);
        assert_eq!(wm.get("gone"), None);
    }

    #[test]
    fn refill_adds_a_new_bean() {
        refill_matches_from_beans(&[&[("b", 1.0)], &[("a", 2.0), ("b", 3.0), ("c", 4.0)]]);
    }

    #[test]
    fn refill_keeps_the_last_value_of_a_repeated_name() {
        refill_matches_from_beans(&[
            &[("a", 1.0), ("b", 2.0), ("c", 3.0)],
            &[("a", 4.0), ("a", 5.0), ("b", 6.0)],
            &[("b", 7.0), ("a", 8.0), ("b", 9.0), ("c", 0.0)],
        ]);
    }

    #[test]
    fn param_table_builder() {
        let t = ParamTable::new()
            .with("FARM_LOW_PERF_LEVEL", 0.3)
            .with("FARM_HIGH_PERF_LEVEL", 0.7);
        assert_eq!(t.get("FARM_LOW_PERF_LEVEL"), Some(0.3));
        assert_eq!(t.get("MISSING"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn collect_into_tables() {
        let wm: WorkingMemory = [("k", 1.0)].into_iter().collect();
        assert_eq!(wm.get("k"), Some(1.0));
        let pt: ParamTable = [("P", 2.0)].into_iter().collect();
        assert_eq!(pt.get("P"), Some(2.0));
    }
}
