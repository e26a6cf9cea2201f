//! Working memory and parameter tables.
//!
//! The *working memory* holds the beans sampled from the computation this
//! control period (the dynamic part); the *parameter table* holds the
//! thresholds derived from the currently-agreed contract (the
//! `ManagersConstants` of the paper's Fig. 5 — quasi-static: they change
//! only when a new contract arrives from the user or the parent manager).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The names of a [`WorkingMemory`]'s slots. A memory changes its layout
/// only while it holds the sole reference, so a layout shared with a
/// [`RuleEngine`](crate::RuleEngine) stands for the same names, in the
/// same slots, for as long as the engine holds it.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Layout {
    /// Names by slot, in the order they were first written.
    names: Vec<String>,
    /// Slots in name order.
    by_name: Vec<u32>,
}

impl Layout {
    /// `Ok(slot)` holding `name`, or `Err(i)`: where in `by_name` it goes.
    /// A bisection that stops at the match: `binary_search_by` always runs
    /// to the end, a chain of dependent string loads that made a lookup
    /// among 30 beans three times slower than this.
    fn find(&self, name: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.by_name.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let slot = self.by_name[mid] as usize;
            match self.names[slot].as_str().cmp(name) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(slot),
            }
        }
        Err(lo)
    }

    /// The slot holding `name`.
    pub(crate) fn slot(&self, name: &str) -> Option<u32> {
        self.find(name).ok().map(|s| s as u32)
    }
}

/// Named scalar beans sampled once per control cycle.
///
/// Beans live in slots, in the order they were first written, under a
/// shared name index (the layout). Booleans are encoded 0.0 / 1.0, and
/// any non-zero value reads as true.
#[derive(Clone, Default)]
pub struct WorkingMemory {
    layout: Arc<Layout>,
    /// Bean values, by slot.
    values: Vec<f64>,
    /// The header of [`WorkingMemory::refill_row`] whose names the
    /// layout's first slots are known to hold, checked once per layout.
    row: Option<&'static [&'static str]>,
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
        let pairs = pairs.into_iter();
        let n = pairs.size_hint().0;
        let mut wm = Self {
            layout: Arc::new(Layout {
                names: Vec::with_capacity(n),
                by_name: Vec::with_capacity(n),
            }),
            values: Vec::with_capacity(n),
            row: None,
        };
        wm.refill(pairs.map(|(name, value)| (name.into(), value)));
        wm
    }

    /// Inserts or updates a bean.
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.put(name.into(), value);
    }

    /// Replaces the contents with `pairs`, leaving what
    /// [`WorkingMemory::from_beans`]`(pairs)` would build: a repeated
    /// name keeps its last value, and a bean `pairs` does not name is
    /// gone. While the `i`-th name is slot `i`'s, its value is written in
    /// place; from the first name that is not — new, moved, repeated or
    /// following a vanished one — the layout is rebuilt. A control loop
    /// sensing the same beans in the same order every cycle refills the
    /// memory with no lookup and no allocation.
    pub fn refill<S>(&mut self, pairs: impl IntoIterator<Item = (S, f64)>)
    where
        S: AsRef<str> + Into<String>,
    {
        self.refill_from(0, pairs);
    }

    /// [`WorkingMemory::refill`] with `header`'s names paired with `row`'s
    /// values, then `rest`. Once the layout is known to start with
    /// `header` — checked when the layout is built, not every call — the
    /// row is written with one slice copy and only `rest` is compared by
    /// name. `header` is identified by address, so it should be a
    /// `static` (e.g. the sensor bean table's names).
    ///
    /// # Panics
    ///
    /// If `row` and `header` differ in length.
    pub fn refill_row<'a>(
        &mut self,
        header: &'static [&'static str],
        row: &[f64],
        rest: impl IntoIterator<Item = (&'a str, f64)>,
    ) {
        assert_eq!(header.len(), row.len(), "one value per header name");
        if self.row.is_some_and(|known| std::ptr::eq(known, header)) {
            self.values[..row.len()].copy_from_slice(row);
            self.refill_from(row.len(), rest);
            return;
        }
        // The header's names at `rest`'s lifetime, so that the two chain.
        let named: &[&'a str] = header;
        self.refill(named.iter().copied().zip(row.iter().copied()).chain(rest));
        let names = &self.layout.names;
        let starts_with_header =
            names.len() >= header.len() && names.iter().zip(header).all(|(n, h)| n == h);
        self.row = starts_with_header.then_some(header);
    }

    /// [`WorkingMemory::refill`] of the slots from `kept` on, the ones
    /// before it already written.
    fn refill_from<S>(&mut self, mut kept: usize, pairs: impl IntoIterator<Item = (S, f64)>)
    where
        S: AsRef<str> + Into<String>,
    {
        let mut pairs = pairs.into_iter();
        while let Some((name, value)) = pairs.next() {
            if self.layout.names.get(kept).map(String::as_str) != Some(name.as_ref()) {
                self.truncate(kept);
                self.put(name, value);
                pairs.for_each(|(name, value)| self.put(name, value));
                return;
            }
            self.values[kept] = value;
            kept += 1;
        }
        self.truncate(kept);
    }

    /// Keeps the first `len` slots.
    fn truncate(&mut self, len: usize) {
        if len < self.values.len() {
            if self.row.is_some_and(|header| len < header.len()) {
                self.row = None;
            }
            let layout = Arc::make_mut(&mut self.layout);
            layout.names.truncate(len);
            layout.by_name.retain(|&s| (s as usize) < len);
            self.values.truncate(len);
        }
    }

    /// Writes `name`'s slot, appending one if it has none.
    fn put<S: AsRef<str> + Into<String>>(&mut self, name: S, value: f64) {
        match self.layout.find(name.as_ref()) {
            Ok(slot) => self.values[slot] = value,
            Err(at) => {
                let layout = Arc::make_mut(&mut self.layout);
                layout.by_name.insert(at, self.values.len() as u32);
                layout.names.push(name.into());
                self.values.push(value);
            }
        }
    }

    /// Reads a bean.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.layout.find(name).ok().map(|s| self.values[s])
    }

    /// Removes a bean, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<f64> {
        let slot = self.layout.find(name).ok()?;
        self.row = None;
        let layout = Arc::make_mut(&mut self.layout);
        layout.names.remove(slot);
        layout
            .by_name
            .retain_mut(|s| match (*s as usize).cmp(&slot) {
                Ordering::Less => true,
                Ordering::Equal => false,
                Ordering::Greater => {
                    *s -= 1;
                    true
                }
            });
        Some(self.values.remove(slot))
    }

    /// Number of beans held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no beans are held.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        let layout = &*self.layout;
        layout
            .by_name
            .iter()
            .map(|&s| (layout.names[s as usize].as_str(), self.values[s as usize]))
    }

    /// The slot layout, which a [`RuleEngine`](crate::RuleEngine) binds
    /// its operands to.
    pub(crate) fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The value in `slot` of [`WorkingMemory::layout`].
    pub(crate) fn at(&self, slot: u32) -> f64 {
        self.values[slot as usize]
    }
}

impl fmt::Debug for WorkingMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
    /// Held in slots like beans, so an engine binds `$NAME`s the same way.
    params: WorkingMemory,
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
        self.params.insert(name, value);
    }

    /// Reads a parameter.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.params.get(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.params.iter()
    }

    /// The parameters' slots.
    pub(crate) fn slots(&self) -> &WorkingMemory {
        &self.params
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
    fn refill_rewrites_a_steady_layout_in_place() {
        let mut wm = WorkingMemory::from_beans([("b", 1.0), ("a", 2.0)]);
        let layout = Arc::clone(wm.layout());
        wm.refill([("b", 3.0), ("a", 4.0)]);
        assert!(Arc::ptr_eq(&layout, wm.layout()));
        assert_eq!(wm.to_string(), "{a=4, b=3}");
        // A shared layout is never changed in place: a new name copies it.
        wm.refill([("b", 5.0), ("c", 6.0)]);
        assert_eq!(layout.names, ["b", "a"]);
        assert_eq!(wm.to_string(), "{b=5, c=6}");
    }

    /// Headers of the `refill_row` property: `static`s, since a header's
    /// address is its identity. The last repeats a name, so a layout never
    /// starts with it and every refill over it takes the general path.
    static HEADER: [&str; 4] = ["h0", "h1", "h2", "h3"];
    static SWAPPED: [&str; 4] = ["h1", "h0", "h2", "h3"];
    static REPEATED: [&str; 4] = ["h0", "h0", "h1", "h2"];

    proptest::proptest! {
        /// Over seeded sequences of bean sets — a header row, then extras
        /// appearing, vanishing and reordering, repeated names (header
        /// names among them) and the hierarchy flags — `refill_row` leaves
        /// exactly what `from_beans` of the same pairs builds, slot for
        /// slot.
        #[test]
        fn refill_row_leaves_what_from_beans_builds(
            steps in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..24)
        ) {
            use crate::stdlib::hier_beans;
            const POOL: [&str; 6] = ["x0", "x1", "x2", "x3", "h1", "h3"];
            let mut wm = WorkingMemory::new();
            for (i, &seed) in steps.iter().enumerate() {
                let mut bits = seed;
                let mut take = |n: usize| {
                    let v = (bits % n as u64) as usize;
                    bits /= n as u64;
                    v
                };
                let header: &'static [&'static str] = match take(8) {
                    0 => &SWAPPED,
                    1 => &REPEATED,
                    _ => &HEADER,
                };
                let row: Vec<f64> = header.iter().map(|_| take(8) as f64).collect();
                let mut rest: Vec<(&str, f64)> = (0..take(5))
                    .map(|_| (POOL[take(POOL.len())], take(8) as f64))
                    .collect();
                if take(2) == 1 {
                    rest.extend([
                        (hier_beans::VIOL_NOT_ENOUGH, take(2) as f64),
                        (hier_beans::VIOL_TOO_MUCH, take(2) as f64),
                        (hier_beans::END_STREAM, take(2) as f64),
                    ]);
                }
                wm.refill_row(header, &row, rest.iter().copied());
                let want = WorkingMemory::from_beans(
                    header.iter().copied().zip(row.iter().copied()).chain(rest.iter().copied()),
                );
                proptest::prop_assert_eq!(&wm.layout.names, &want.layout.names, "step {}", i);
                proptest::prop_assert_eq!(&wm.values, &want.values, "step {}", i);
                proptest::prop_assert_eq!(wm.to_string(), want.to_string(), "step {}", i);
            }
        }
    }

    #[test]
    fn refill_row_checks_the_header_once_per_layout() {
        let mut wm = WorkingMemory::new();
        wm.refill_row(&HEADER, &[1.0, 2.0, 3.0, 4.0], [("x", 5.0)]);
        assert_eq!(wm.row.map(<[_]>::as_ptr), Some(HEADER.as_ptr()));
        let layout = Arc::clone(wm.layout());
        wm.refill_row(&HEADER, &[6.0, 7.0, 8.0, 9.0], [("x", 0.0)]);
        assert!(
            Arc::ptr_eq(&layout, wm.layout()),
            "a steady row keeps its layout"
        );
        assert_eq!(wm.to_string(), "{h0=6, h1=7, h2=8, h3=9, x=0}");
        // Removing a header bean forgets the check; the next refill redoes it.
        wm.remove("h2");
        assert_eq!(wm.row, None);
        wm.refill_row(&HEADER, &[1.0, 1.0, 1.0, 1.0], []);
        assert!(wm.row.is_some());
        wm.refill_row(&REPEATED, &[1.0, 2.0, 3.0, 4.0], []);
        assert_eq!(wm.row, None);
        assert_eq!(wm.to_string(), "{h0=2, h1=3, h2=4}");
    }

    #[test]
    fn remove_keeps_the_name_index() {
        let mut wm = WorkingMemory::from_beans([("c", 1.0), ("a", 2.0), ("b", 3.0)]);
        assert_eq!(wm.remove("a"), Some(2.0));
        assert_eq!(wm, WorkingMemory::from_beans([("c", 1.0), ("b", 3.0)]));
        assert_eq!(wm.get("b"), Some(3.0));
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
