//! Built-in strategies: ranges, `any`, vectors, and tuples.

use crate::{SplitMix64, Strategy};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Ranges as strategies (`6u32..16`, `1u8..=8`, `0.0f64..0.5`, ...).

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SplitMix64) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int_toward(*value, self.start)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SplitMix64) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_int_toward(*value, *self.start())
            }
        }
    )+};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Shrink an integer toward `floor`: the floor itself, then the
/// midpoint, then one step down — a geometric-then-linear descent that
/// converges in O(log distance) greedy rounds.
fn shrink_int_toward<T>(value: T, floor: T) -> Vec<T>
where
    T: Copy + PartialOrd + MidpointDown,
{
    let mut out = Vec::new();
    if value > floor {
        out.push(floor);
        let mid = T::midpoint(floor, value);
        if mid > floor && mid < value {
            out.push(mid);
        }
        out.push(T::pred(value));
    }
    out.dedup_by(|a, b| a == b);
    out
}

/// Midpoint and predecessor, for shrink descent.
trait MidpointDown: Sized {
    fn midpoint(lo: Self, hi: Self) -> Self;
    fn pred(self) -> Self;
}

macro_rules! midpoint_down {
    ($($t:ty),+) => {$(
        impl MidpointDown for $t {
            fn midpoint(lo: Self, hi: Self) -> Self {
                // lo + (hi - lo) / 2 avoids overflow for signed types.
                lo + (hi - lo) / 2
            }
            fn pred(self) -> Self {
                self - 1
            }
        }
    )+};
}
midpoint_down!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SplitMix64) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (*value - self.start) / 2.0;
                    if mid > self.start && mid < *value {
                        out.push(mid);
                    }
                }
                out
            }
        }
    )+};
}
float_range_strategy!(f32, f64);

// ---------------------------------------------------------------------------
// `any::<T>()`: the type's full domain.

/// Types with a full-domain strategy (proptest's `any`). Unlike
/// [`dg_rand::Sample`], floats cover *all* bit patterns — including
/// NaN, infinities, and subnormals — so properties must `assume!`
/// finiteness when they need it.
pub trait Arbitrary: Clone + Debug {
    fn arbitrary(rng: &mut SplitMix64) -> Self;
    fn shrink(&self) -> Vec<Self>;
}

/// Strategy over a type's full domain; build with [`any`].
pub struct Any<T>(PhantomData<T>);

/// The full-domain strategy for `T` (proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut SplitMix64) -> T {
        T::arbitrary(rng)
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink()
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                rng.gen()
            }
            fn shrink(&self) -> Vec<Self> {
                shrink_int_toward(*self, 0)
            }
        }
    )+};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                rng.gen()
            }
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    Vec::new()
                } else if v > 0 {
                    shrink_int_toward(v, 0)
                } else if v == <$t>::MIN {
                    vec![0, <$t>::MIN / 2]
                } else {
                    // Try the positive mirror first, then climb to 0.
                    vec![-v, 0, v / 2, v + 1]
                }
            }
        }
    )+};
}
arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        rng.gen()
    }
    fn shrink(&self) -> Vec<Self> {
        if *self { vec![false] } else { Vec::new() }
    }
}

macro_rules! arbitrary_float {
    ($($t:ty: $bits:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                <$t>::from_bits(rng.gen::<$bits>())
            }
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                if v == 0.0 {
                    Vec::new()
                } else if !v.is_finite() {
                    vec![0.0, 1.0]
                } else {
                    vec![0.0, v / 2.0, v.trunc()]
                }
            }
        }
    )+};
}
arbitrary_float!(f32: u32, f64: u64);

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        rng.gen()
    }
    fn shrink(&self) -> Vec<Self> {
        if self.iter().all(|&b| b == 0) {
            Vec::new()
        } else {
            vec![[0u8; N]]
        }
    }
}

// ---------------------------------------------------------------------------
// Vectors.

/// Length specification for [`vec`]: an exact `usize` or a
/// `Range<usize>` of lengths.
pub trait LenSpec {
    fn pick(&self, rng: &mut SplitMix64) -> usize;
    fn min(&self) -> usize;
}

impl LenSpec for usize {
    fn pick(&self, _rng: &mut SplitMix64) -> usize {
        *self
    }
    fn min(&self) -> usize {
        *self
    }
}

impl LenSpec for Range<usize> {
    fn pick(&self, rng: &mut SplitMix64) -> usize {
        rng.gen_range(self.clone())
    }
    fn min(&self) -> usize {
        self.start
    }
}

/// Strategy for vectors of another strategy's values; build with
/// [`vec()`].
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

/// `Vec<T>` strategy with elements from `element` and length from
/// `len` (proptest's `prop::collection::vec`).
pub fn vec<S: Strategy, L: LenSpec>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

impl<S: Strategy, L: LenSpec> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
        let n = self.len.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        let min = self.len.min();
        // Structural shrinks first: halve, then drop one element from
        // the tail, then from the head.
        if value.len() > min {
            let half = (value.len() / 2).max(min);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
            out.push(value[1..].to_vec());
        }
        // Then element-wise shrinks, capped to the first 16 slots so
        // huge vectors don't explode the greedy search.
        for (i, v) in value.iter().enumerate().take(16) {
            for simpler in self.element.shrink(v) {
                let mut next = value.clone();
                next[i] = simpler;
                out.push(next);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tuples of strategies (up to the 6 components the test-suite needs).

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

tuple_strategy! {
    (S0/0)
    (S0/0, S1/1)
    (S0/0, S1/1, S2/2)
    (S0/0, S1/1, S2/2, S3/3)
    (S0/0, S1/1, S2/2, S3/3, S4/4)
    (S0/0, S1/1, S2/2, S3/3, S4/4, S5/5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(42)
    }

    #[test]
    fn range_strategy_stays_in_domain_under_shrinking() {
        let s = 6u32..16;
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!(s.contains(&v));
            for c in s.shrink(&v) {
                assert!(s.contains(&c), "shrink escaped domain: {c}");
                assert!(c < v, "shrink must make progress: {c} !< {v}");
            }
        }
    }

    #[test]
    fn inclusive_range_strategy_hits_both_ends() {
        let s = 1u8..=8;
        let mut r = rng();
        let vals: Vec<u8> = (0..300).map(|_| s.generate(&mut r)).collect();
        assert!(vals.contains(&1) && vals.contains(&8));
        assert!(vals.iter().all(|v| (1..=8).contains(v)));
    }

    #[test]
    fn float_range_shrink_terminates() {
        let s = 0.5f64..10.0;
        let mut v = 9.0;
        for _ in 0..200 {
            match s.shrink(&v).last() {
                Some(&next) => v = next,
                None => break,
            }
        }
        assert!((0.5..10.0).contains(&v));
    }

    #[test]
    fn any_float_covers_non_finite_values() {
        let s = any::<f32>();
        let mut r = rng();
        let mut saw_non_finite = false;
        for _ in 0..10_000 {
            if !s.generate(&mut r).is_finite() {
                saw_non_finite = true;
                break;
            }
        }
        assert!(saw_non_finite, "any::<f32>() should reach NaN/inf bit patterns");
    }

    #[test]
    fn vec_respects_length_spec() {
        let s = vec(0u32..100, 3..7);
        let mut r = rng();
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!((3..7).contains(&v.len()));
            for c in s.shrink(&v) {
                assert!(c.len() >= 3, "shrink below min length: {}", c.len());
            }
        }
        let exact = vec(0u32..100, 16usize);
        assert_eq!(exact.generate(&mut r).len(), 16);
    }

    #[test]
    fn tuple_shrinks_one_component_at_a_time() {
        let s = (0u32..10, 0u32..10);
        for c in s.shrink(&(3, 4)) {
            let changed = usize::from(c.0 != 3) + usize::from(c.1 != 4);
            assert_eq!(changed, 1, "candidate {c:?} changed {changed} components");
        }
    }
}
