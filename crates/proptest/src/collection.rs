//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Anything usable as the size specifier of [`vec()`]: an exact `usize`,
/// a `Range<usize>`, or a `RangeInclusive<usize>`.
pub trait SizeRange {
    /// Pick a concrete length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for core::ops::Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty vec size range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SizeRange for core::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty vec size range");
        lo + rng.below((hi - lo + 1) as u64) as usize
    }
}

/// Strategy for vectors whose elements come from `element`.
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

/// `vec(strategy, sizes)` — a vector of generated elements.
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
