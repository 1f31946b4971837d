//! Finite execution traces over a discrete clock.

use std::fmt;

/// Discrete time, in clock ticks. One tick is the unit in which timed
/// operators' bounds ([`Formula::FinallyWithin`](crate::Formula::FinallyWithin)'s
/// `T`) and monitor polling periods are expressed.
pub type Tick = u64;

/// A finite trace: the system's state sampled at ticks `0..len`.
///
/// States are arbitrary `S`; propositions over them are
/// [`vdo_core::Checkable<S>`] values. Construct from a state sequence or
/// incrementally with [`push`](Trace::push).
///
/// ```
/// use vdo_temporal::Trace;
/// let mut t = Trace::new();
/// t.push("boot");
/// t.push("ready");
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.state_at(1), Some(&"ready"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<S> {
    states: Vec<S>,
}

impl<S> Trace<S> {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace { states: Vec::new() }
    }

    /// Builds a trace from a sequence of states (tick `i` = `i`-th state).
    #[must_use]
    pub fn from_states<I: IntoIterator<Item = S>>(states: I) -> Self {
        Trace {
            states: states.into_iter().collect(),
        }
    }

    /// Appends the state observed at the next tick.
    pub fn push(&mut self, state: S) {
        self.states.push(state);
    }

    /// Number of observed ticks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` iff no tick has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// State at the given tick, if within the trace.
    #[must_use]
    pub fn state_at(&self, tick: Tick) -> Option<&S> {
        self.states.get(tick as usize)
    }

    /// All states in tick order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Iterates `(tick, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Tick, &S)> {
        self.states.iter().enumerate().map(|(i, s)| (i as Tick, s))
    }

    /// The suffix starting at `tick` (empty if out of range), as a
    /// borrowed slice of states.
    #[must_use]
    pub fn suffix(&self, tick: Tick) -> &[S] {
        let i = (tick as usize).min(self.states.len());
        &self.states[i..]
    }
}

impl<S> Default for Trace<S> {
    fn default() -> Self {
        Trace::new()
    }
}

impl<S> FromIterator<S> for Trace<S> {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Trace::from_states(iter)
    }
}

impl<S> Extend<S> for Trace<S> {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        self.states.extend(iter);
    }
}

impl<S: fmt::Display> fmt::Display for Trace<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.states.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t: Trace<u8> = Trace::from_states([10, 20, 30]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.state_at(0), Some(&10));
        assert_eq!(t.state_at(2), Some(&30));
        assert_eq!(t.state_at(3), None);
    }

    #[test]
    fn iter_yields_ticks() {
        let t: Trace<char> = "abc".chars().collect();
        let pairs: Vec<_> = t.iter().map(|(i, c)| (i, *c)).collect();
        assert_eq!(pairs, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn suffix_clamps() {
        let t: Trace<u8> = Trace::from_states([1, 2, 3]);
        assert_eq!(t.suffix(1), &[2, 3]);
        assert_eq!(t.suffix(3), &[] as &[u8]);
        assert_eq!(t.suffix(99), &[] as &[u8]);
    }

    #[test]
    fn extend_and_push() {
        let mut t = Trace::new();
        t.push(1);
        t.extend([2, 3]);
        assert_eq!(t.states(), &[1, 2, 3]);
    }

    #[test]
    fn display_renders_angle_brackets() {
        let t: Trace<u8> = Trace::from_states([1, 2]);
        assert_eq!(t.to_string(), "⟨1, 2⟩");
    }
}
