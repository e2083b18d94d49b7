//! The bandwidth-budget axis of a [`crate::scenario::Scenario`] and of a
//! [`crate::sweep::SweepGrid`].
//!
//! An axis is a list of values or a ladder (a scenario file's
//! `{"from", "to", "count", "scale"}`) whose values are computed on
//! demand. A search scenario's 2.2M-budget ladder is then four numbers,
//! not a 16.8 MiB vector in the scenario and another in its grid, built
//! and dropped on every run. The engine reads a ladder through
//! [`Budgets::len`], [`Budgets::value`] and [`Budgets::iter`]; code that
//! wants a slice gets one through `Deref`, which materializes a ladder
//! once.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// `count` values from `from` to `to`, evenly or geometrically spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ladder {
    from: f64,
    to: f64,
    count: usize,
    geometric: bool,
}

impl Ladder {
    fn value(&self, i: usize) -> f64 {
        let t = i as f64 / (self.count - 1) as f64;
        if self.geometric {
            self.from * (self.to / self.from).powf(t)
        } else {
            self.from + t * (self.to - self.from)
        }
    }
}

/// Bandwidth budgets (GB/s), in axis order.
#[derive(Default)]
pub struct Budgets {
    ladder: Option<Ladder>,
    /// A list's values, or a ladder's once a slice was asked for.
    values: OnceLock<Vec<f64>>,
}

impl Budgets {
    /// `count` (≥ 2) budgets from `from` to `to`, spaced evenly or, if
    /// `geometric`, by a constant ratio.
    ///
    /// # Panics
    /// If `count < 2`.
    pub(crate) fn ladder(from: f64, to: f64, count: usize, geometric: bool) -> Self {
        assert!(count >= 2, "a budget ladder needs at least two rungs, got {count}");
        Budgets { ladder: Some(Ladder { from, to, count, geometric }), values: OnceLock::new() }
    }

    /// Number of budgets.
    pub fn len(&self) -> usize {
        self.ladder.map_or_else(|| self.list().len(), |l| l.count)
    }

    /// Whether the axis holds no budget.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Budget `i` (`< len()`).
    pub fn value(&self, i: usize) -> f64 {
        match self.ladder {
            Some(l) => l.value(i),
            None => self.list()[i],
        }
    }

    /// The budgets in order, computed as they are read.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(|i| self.value(i))
    }

    /// Whether every budget is its own: a ladder whose values strictly
    /// rise or strictly fall. Reads the ladder once; allocates nothing.
    pub(crate) fn is_distinct_ladder(&self) -> bool {
        let Some(l) = self.ladder else { return false };
        let rising = l.value(1) > l.value(0);
        let mut prev = l.value(0);
        (1..l.count).all(|i| {
            let next = l.value(i);
            let distinct = if rising { prev < next } else { prev > next };
            prev = next;
            distinct
        })
    }

    /// The values as a vector (a ladder computed, a list moved out).
    pub(crate) fn into_vec(self) -> Vec<f64> {
        match self.ladder {
            Some(_) => self.iter().collect(),
            None => self.values.into_inner().unwrap_or_default(),
        }
    }

    fn list(&self) -> &[f64] {
        self.values.get().map_or(&[], Vec::as_slice)
    }
}

impl Deref for Budgets {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self.ladder {
            Some(_) => self.values.get_or_init(|| self.iter().collect()),
            None => self.list(),
        }
    }
}

impl Clone for Budgets {
    /// A ladder clones as its four numbers, never as its values.
    fn clone(&self) -> Self {
        match self.ladder {
            Some(_) => Budgets { ladder: self.ladder, values: OnceLock::new() },
            None => Budgets::from(self.list().to_vec()),
        }
    }
}

impl From<Vec<f64>> for Budgets {
    fn from(values: Vec<f64>) -> Self {
        Budgets { ladder: None, values: OnceLock::from(values) }
    }
}

impl Extend<f64> for Budgets {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        let mut values = std::mem::take(self).into_vec();
        values.extend(iter);
        *self = Budgets::from(values);
    }
}

impl<'a> IntoIterator for &'a Budgets {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.deref().iter()
    }
}

impl PartialEq for Budgets {
    fn eq(&self, other: &Budgets) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<f64>> for Budgets {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl fmt::Debug for Budgets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ladder_reads_like_its_expanded_list() {
        let ladder = Budgets::ladder(100.0, 400.0, 4, false);
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder.value(2), 300.0);
        assert_eq!(ladder, vec![100.0, 200.0, 300.0, 400.0]);
        assert_eq!(ladder, Budgets::from(vec![100.0, 200.0, 300.0, 400.0]));
        assert_eq!(&ladder[..], &[100.0, 200.0, 300.0, 400.0]);
        assert!(ladder.clone().values.get().is_none(), "a clone copies no values");
        assert_eq!(format!("{ladder:?}"), "[100.0, 200.0, 300.0, 400.0]");
        let geometric = Budgets::ladder(100.0, 400.0, 3, true);
        assert_eq!(geometric.into_vec(), vec![100.0, 200.0, 400.0]);
    }

    #[test]
    fn only_a_strictly_monotone_ladder_is_distinct() {
        assert!(Budgets::ladder(100.0, 400.0, 4, false).is_distinct_ladder());
        assert!(Budgets::ladder(400.0, 100.0, 4, true).is_distinct_ladder());
        assert!(!Budgets::ladder(100.0, 100.0, 4, true).is_distinct_ladder());
        assert!(!Budgets::from(vec![100.0, 200.0]).is_distinct_ladder());
    }

    #[test]
    fn extending_a_ladder_lists_it() {
        let mut budgets = Budgets::ladder(100.0, 200.0, 2, false);
        budgets.extend([300.0]);
        assert!(budgets.ladder.is_none());
        assert_eq!(budgets, vec![100.0, 200.0, 300.0]);
    }
}
