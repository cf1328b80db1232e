//! Validated transmission orders.

use core::fmt;
use core::ops::Index;

/// A validated transmission order: a permutation of sensor indices
/// `0..n`, listed in the order their slots occur on the bus.
///
/// # Example
///
/// ```
/// use arsf_schedule::TransmissionOrder;
///
/// let order = TransmissionOrder::new(vec![2, 0, 1]).expect("a permutation");
/// assert_eq!(order.len(), 3);
/// assert!(!order.is_empty());
/// assert_eq!(order[0], 2);            // sensor 2 transmits first
/// assert_eq!(order.slot_of(2), Some(0));
/// assert_eq!(order.slot_of(1), Some(2));
/// assert!(TransmissionOrder::new(vec![0, 0, 1]).is_none()); // not a permutation
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TransmissionOrder {
    pub(crate) order: Vec<usize>,
}

// By hand so `clone_from` reuses the destination's allocation (the
// derived impl would clone a fresh Vec).
impl Clone for TransmissionOrder {
    fn clone(&self) -> Self {
        Self {
            order: self.order.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.order.clone_from(&source.order);
    }
}

impl TransmissionOrder {
    /// Validates that `order` is a permutation of `0..order.len()` and
    /// wraps it; returns `None` otherwise.
    pub fn new(order: Vec<usize>) -> Option<Self> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &i in &order {
            if i >= n || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(Self { order })
    }

    /// The identity order `0, 1, …, n − 1`.
    pub fn identity(n: usize) -> Self {
        Self {
            order: (0..n).collect(),
        }
    }

    /// The number of slots (= sensors).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The sensor indices in slot order.
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// The slot at which `sensor` transmits, or `None` if the sensor is
    /// not in the order.
    pub fn slot_of(&self, sensor: usize) -> Option<usize> {
        self.order.iter().position(|&s| s == sensor)
    }

    /// Iterates over the sensor indices in slot order.
    pub fn iter(&self) -> core::slice::Iter<'_, usize> {
        self.order.iter()
    }
}

impl Index<usize> for TransmissionOrder {
    type Output = usize;

    fn index(&self, slot: usize) -> &usize {
        &self.order[slot]
    }
}

impl<'a> IntoIterator for &'a TransmissionOrder {
    type Item = &'a usize;
    type IntoIter = core::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

impl fmt::Display for TransmissionOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "s{s}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_non_permutations() {
        assert!(TransmissionOrder::new(vec![0, 1, 2]).is_some());
        assert!(TransmissionOrder::new(vec![2, 1, 0]).is_some());
        assert!(TransmissionOrder::new(vec![0, 0]).is_none());
        assert!(TransmissionOrder::new(vec![1, 2]).is_none());
        assert!(TransmissionOrder::new(vec![]).is_some());
    }

    #[test]
    fn slot_lookups() {
        let order = TransmissionOrder::new(vec![3, 1, 0, 2]).unwrap();
        assert_eq!(order.slot_of(3), Some(0));
        assert_eq!(order.slot_of(2), Some(3));
        assert_eq!(order.slot_of(9), None);
        assert_eq!(order[1], 1);
    }

    #[test]
    fn identity_is_sorted() {
        assert_eq!(TransmissionOrder::identity(4).as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn display_shows_arrows() {
        let order = TransmissionOrder::new(vec![1, 0]).unwrap();
        assert_eq!(order.to_string(), "⟨s1 → s0⟩");
    }

    #[test]
    fn iteration() {
        let order = TransmissionOrder::new(vec![2, 0, 1]).unwrap();
        let collected: Vec<usize> = order.iter().copied().collect();
        assert_eq!(collected, vec![2, 0, 1]);
        let via_into: Vec<usize> = (&order).into_iter().copied().collect();
        assert_eq!(via_into, collected);
    }
}
