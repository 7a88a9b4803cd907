//! Collection strategies.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// Length specifications accepted by [`vec()`].
pub trait SizeRange {
    /// Inclusive (min, max) element counts.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for std::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

/// `Vec` strategy: length drawn from `size`, elements from `elem`.
pub fn vec<S: Strategy>(elem: S, size: impl SizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { elem, min, max }
}

#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.min..=self.max);
        (0..n).map(|_| self.elem.pick(rng)).collect()
    }
}
