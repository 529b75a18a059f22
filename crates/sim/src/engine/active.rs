//! Activity sets: the engine's live virtual channels and non-empty
//! source queues, kept as bitsets so a cycle visits only the indices
//! that can act, always in ascending order.

/// A set of indices in `0..n`: one bit per index plus a member count.
/// Iteration is ascending, so scans over a set visit members in the
/// same order as a full `0..n` scan that skips non-members.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct ActiveSet {
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// The empty set over `0..n`.
    pub(super) fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// The set `{ i in 0..n : member(i) }` — the from-scratch
    /// reference the debug audit compares the maintained sets against.
    pub(super) fn from_fn(n: usize, member: impl Fn(usize) -> bool) -> Self {
        let mut s = Self::new(n);
        for i in (0..n).filter(|&i| member(i)) {
            s.insert(i as u32);
        }
        s
    }

    /// Members in the set.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Adds `i`; a no-op when it is already a member.
    pub(super) fn insert(&mut self, i: u32) {
        let (w, bit) = (i as usize / 64, 1u64 << (i % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// Removes `i`; a no-op when it is not a member.
    pub(super) fn remove(&mut self, i: u32) {
        let (w, bit) = (i as usize / 64, 1u64 << (i % 64));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.len -= 1;
        }
    }

    /// Makes `i`'s membership equal `member`.
    pub(super) fn set(&mut self, i: u32, member: bool) {
        if member {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// The smallest member `>= from`. Looping on `first_from(i + 1)`
    /// walks the set in ascending order and tolerates removals of
    /// members already visited.
    pub(super) fn first_from(&self, from: u32) -> Option<u32> {
        let mut w = from as usize / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some((w * 64) as u32 + bits.trailing_zeros());
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// Members in ascending order.
    pub(super) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some((w * 64) as u32 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::ActiveSet;

    #[test]
    fn set_tracks_members_in_ascending_order() {
        let mut s = ActiveSet::new(200);
        for i in [130u32, 3, 64, 63, 199, 3] {
            s.insert(i);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 63, 64, 130, 199]);
        assert_eq!(s.first_from(0), Some(3));
        assert_eq!(s.first_from(4), Some(63));
        assert_eq!(s.first_from(65), Some(130));
        assert_eq!(s.first_from(200), None);
        s.remove(64);
        s.remove(64);
        s.set(3, false);
        s.set(5, true);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), [5, 63, 130, 199]);
        assert_eq!(
            s,
            ActiveSet::from_fn(200, |i| [5, 63, 130, 199].contains(&i))
        );
    }
}
