//! CPU affinity masks.
//!
//! A [`CpuMask`] is an inline bitset over the cores of one node. The DROM
//! substrate manipulates these to express task→core pinning; the SD-Policy
//! node-management layer (paper Listing 3) uses the socket helpers to keep
//! co-scheduled jobs isolated on separate sockets.

use std::fmt;

const BITS: usize = 64;
/// Inline words per mask.
const WORDS: usize = 2;

/// A set of CPU core indices within one node: an inline, `Copy` bitset of
/// at most [`CpuMask::MAX_CORES`] cores (no heap allocation).
///
/// Invariant: bits at and above `ncores` are always zero, so the derived
/// equality and hash compare exactly the cores in the mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask {
    words: [u64; WORDS],
    ncores: usize,
}

/// Word `i` of a mask with cores `[lo, hi)` set (`lo <= hi`).
fn range_word(i: usize, lo: usize, hi: usize) -> u64 {
    let (base, top) = (i * BITS, (i + 1) * BITS);
    let (a, b) = (lo.clamp(base, top) - base, hi.clamp(base, top) - base);
    let below = |n: usize| if n == BITS { u64::MAX } else { (1u64 << n) - 1 };
    below(b) & !below(a)
}

impl CpuMask {
    /// The widest node a mask can describe.
    pub const MAX_CORES: usize = WORDS * BITS;

    /// Empty mask for a node with `ncores` cores. Panics beyond
    /// [`CpuMask::MAX_CORES`] (programming error).
    pub fn empty(ncores: usize) -> CpuMask {
        assert!(
            ncores <= Self::MAX_CORES,
            "{ncores} cores exceed the mask capacity {}",
            Self::MAX_CORES
        );
        CpuMask {
            words: [0; WORDS],
            ncores,
        }
    }

    /// Mask with every core of the node set.
    pub fn full(ncores: usize) -> CpuMask {
        CpuMask::range(ncores, 0, ncores)
    }

    /// Mask covering the half-open core range `[lo, hi)`.
    pub fn range(ncores: usize, lo: usize, hi: usize) -> CpuMask {
        let mut m = CpuMask::empty(ncores);
        let hi = hi.min(ncores);
        if lo < hi {
            for (i, w) in m.words.iter_mut().enumerate() {
                *w = range_word(i, lo, hi);
            }
        }
        m
    }

    /// Number of cores this mask is defined over (node width, not popcount).
    pub fn width(&self) -> usize {
        self.ncores
    }

    /// Sets core `c`. Panics if out of range (programming error).
    pub fn set(&mut self, c: usize) {
        assert!(c < self.ncores, "core {c} out of range {}", self.ncores);
        self.words[c / BITS] |= 1 << (c % BITS);
    }

    /// Clears core `c`.
    pub fn clear(&mut self, c: usize) {
        assert!(c < self.ncores, "core {c} out of range {}", self.ncores);
        self.words[c / BITS] &= !(1 << (c % BITS));
    }

    /// Whether core `c` is in the mask.
    pub fn contains(&self, c: usize) -> bool {
        c < self.ncores && self.words[c / BITS] & (1 << (c % BITS)) != 0
    }

    /// Number of cores set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Union, in place.
    pub fn union_with(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Intersection, in place.
    pub fn intersect_with(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Removes `other`'s cores, in place.
    pub fn subtract(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if the two masks share no core.
    pub fn is_disjoint(&self, other: &CpuMask) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == 0)
    }

    /// Iterates over set core indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * BITS + bit
                })
            })
        })
    }

    /// Raw bitset words (64 cores per word, ascending; `width / 64` rounded
    /// up of them), for persistence.
    pub fn words(&self) -> &[u64] {
        &self.words[..self.ncores.div_ceil(BITS)]
    }

    /// Rebuilds a mask from raw words. `None` when the width exceeds
    /// [`CpuMask::MAX_CORES`], the word count doesn't match the width, or a
    /// bit beyond `ncores` is set.
    pub fn from_words(ncores: usize, words: &[u64]) -> Option<CpuMask> {
        if ncores > Self::MAX_CORES || words.len() != ncores.div_ceil(BITS) {
            return None;
        }
        if let Some(last) = words.last() {
            let tail_bits = ncores % BITS;
            if tail_bits != 0 && *last >> tail_bits != 0 {
                return None;
            }
        }
        let mut m = CpuMask::empty(ncores);
        m.words[..words.len()].copy_from_slice(words);
        Some(m)
    }

    /// The lowest `n` set cores as a new mask (used when shrinking a task to
    /// a core budget while keeping placement stable).
    pub fn take_lowest(&self, n: usize) -> CpuMask {
        let mut out = CpuMask::empty(self.ncores);
        for c in self.iter().take(n) {
            out.set(c);
        }
        out
    }
}

impl fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuMask[{}/{}:", self.count(), self.ncores)?;
        let mut first = true;
        // Render as compressed ranges: 0-3,8,12-15
        let mut iter = self.iter().peekable();
        while let Some(start) = iter.next() {
            let mut end = start;
            while iter.peek() == Some(&(end + 1)) {
                end = iter.next().unwrap();
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if start == end {
                write!(f, "{start}")?;
            } else {
                write!(f, "{start}-{end}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut m = CpuMask::empty(128);
        assert!(!m.contains(70));
        m.set(70);
        assert!(m.contains(70));
        assert_eq!(m.count(), 1);
        m.clear(70);
        assert!(m.is_empty());
    }

    #[test]
    fn full_and_range() {
        let m = CpuMask::full(48);
        assert_eq!(m.count(), 48);
        let r = CpuMask::range(48, 24, 48);
        assert_eq!(r.count(), 24);
        assert!(!r.contains(23));
        assert!(r.contains(24));
        assert!(r.contains(47));
    }

    #[test]
    fn range_clamps_to_width() {
        let r = CpuMask::range(8, 4, 100);
        assert_eq!(r.count(), 4);
    }

    #[test]
    fn set_operations() {
        let a = CpuMask::range(16, 0, 8);
        let b = CpuMask::range(16, 8, 16);
        assert!(a.is_disjoint(&b));

        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.count(), 16);

        let mut i = u;
        i.intersect_with(&a);
        assert_eq!(i, a);

        let mut s = u;
        s.subtract(&a);
        assert_eq!(s, b);
    }

    #[test]
    fn iter_ascending() {
        let mut m = CpuMask::empty(96);
        for c in [90, 3, 65] {
            m.set(c);
        }
        let v: Vec<usize> = m.iter().collect();
        assert_eq!(v, vec![3, 65, 90]);
    }

    #[test]
    fn take_lowest() {
        let m = CpuMask::range(16, 4, 12);
        let low = m.take_lowest(3);
        assert_eq!(low.iter().collect::<Vec<_>>(), vec![4, 5, 6]);
        let all = m.take_lowest(100);
        assert_eq!(all, m);
    }

    #[test]
    fn debug_renders_ranges() {
        let mut m = CpuMask::empty(16);
        for c in [0, 1, 2, 3, 8, 12, 13] {
            m.set(c);
        }
        assert_eq!(format!("{m:?}"), "CpuMask[7/16:0-3,8,12-13]");
    }

    /// Bit-by-bit reference construction of `[lo, hi)` on `width` cores.
    fn reference(width: usize, lo: usize, hi: usize) -> CpuMask {
        let mut m = CpuMask::empty(width);
        for c in lo..hi.min(width) {
            m.set(c);
        }
        m
    }

    #[test]
    fn word_wise_full_and_range_match_bitwise_at_word_edges() {
        for width in [0, 1, 63, 64, 65, 127, 128] {
            assert_eq!(CpuMask::full(width), reference(width, 0, width), "full({width})");
            assert_eq!(CpuMask::full(width).count(), width);
            for lo in [0, 1, 63, 64, 65, 127, 128] {
                for hi in [0, 1, 2, 63, 64, 65, 66, 127, 128, 200] {
                    let m = CpuMask::range(width, lo, hi);
                    assert_eq!(m, reference(width, lo, hi), "range({width}, {lo}, {hi})");
                    let cores: Vec<usize> = (lo..hi.min(width)).collect();
                    assert_eq!(m.iter().collect::<Vec<_>>(), cores);
                }
            }
        }
    }

    #[test]
    fn from_words_round_trips_and_rejects_bad_input() {
        let m = reference(96, 3, 70);
        assert_eq!(m.words().len(), 2);
        assert_eq!(CpuMask::from_words(96, m.words()), Some(m));
        assert_eq!(CpuMask::full(0).words(), &[] as &[u64]);
        assert_eq!(CpuMask::from_words(0, &[]), Some(CpuMask::empty(0)));
        // Width beyond the inline capacity, even with a well-formed word count.
        assert_eq!(CpuMask::from_words(CpuMask::MAX_CORES + 1, &[0, 0, 0]), None);
        assert_eq!(CpuMask::from_words(192, &[0, 0, 0]), None);
        // Word count mismatch, and a bit beyond the width.
        assert_eq!(CpuMask::from_words(64, &[0, 0]), None);
        assert_eq!(CpuMask::from_words(65, &[0, 0b10]), None);
    }

    #[test]
    #[should_panic(expected = "exceed the mask capacity")]
    fn empty_beyond_capacity_panics() {
        CpuMask::empty(CpuMask::MAX_CORES + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        CpuMask::empty(4).set(4);
    }
}
