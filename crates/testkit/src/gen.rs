//! Value generators for the property harness.
//!
//! A [`Gen`] turns a deterministic [`Rng`] into a value; combinators
//! compose generators into the shapes the test suites need — op
//! sequences, block addresses, corruption styles. Everything is
//! replayable: the same seed generates the same value.

use std::ops::Range;

use crate::rng::Rng;

/// A deterministic value generator.
pub trait Gen {
    /// The type of generated values.
    type Value;

    /// Produce one value from the given RNG state.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Transform generated values with a pure function.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase this generator (needed to mix branches in [`one_of`]).
    fn boxed(self) -> BoxedGen<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased generator.
pub type BoxedGen<T> = Box<dyn Gen<Value = T>>;

impl<T> Gen for BoxedGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Gen::map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, F, U> Gen for Map<G, F>
where
    G: Gen,
    F: Fn(G::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A generator from a closure over the RNG.
pub struct FromFn<F>(F);

impl<T, F: Fn(&mut Rng) -> T> Gen for FromFn<F> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (self.0)(rng)
    }
}

/// Build a generator from a closure.
pub fn from_fn<T, F: Fn(&mut Rng) -> T>(f: F) -> FromFn<F> {
    FromFn(f)
}

/// Any `u8`.
pub fn u8_any() -> impl Gen<Value = u8> {
    from_fn(|rng| rng.next_u32() as u8)
}

/// Any `u16`.
pub fn u16_any() -> impl Gen<Value = u16> {
    from_fn(|rng| rng.next_u32() as u16)
}

/// Any `bool`.
pub fn bool_any() -> impl Gen<Value = bool> {
    from_fn(|rng| rng.bool())
}

/// A `u8` in `[range.start, range.end)`.
pub fn u8_in(range: Range<u8>) -> impl Gen<Value = u8> {
    from_fn(move |rng| rng.range(range.start as usize, range.end as usize) as u8)
}

/// A `u64` in `[range.start, range.end)`.
pub fn u64_in(range: Range<u64>) -> impl Gen<Value = u64> {
    from_fn(move |rng| range.start + rng.below(range.end - range.start))
}

/// A `usize` in `[range.start, range.end)`.
pub fn usize_in(range: Range<usize>) -> impl Gen<Value = usize> {
    from_fn(move |rng| rng.range(range.start, range.end))
}

/// Always the same value.
pub fn just<T: Clone>(value: T) -> impl Gen<Value = T> {
    from_fn(move |_| value.clone())
}

/// A `Vec` whose length is uniform in `len` and whose elements come from
/// `elem`.
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> impl Gen<Value = Vec<G::Value>> {
    from_fn(move |rng| {
        let n = rng.range(len.start, len.end);
        (0..n).map(|_| elem.generate(rng)).collect()
    })
}

/// A byte vector with uniform length in `len` (fast path for payloads).
pub fn bytes(len: Range<usize>) -> impl Gen<Value = Vec<u8>> {
    from_fn(move |rng| {
        let n = rng.range(len.start, len.end);
        let mut buf = vec![0u8; n];
        rng.fill(&mut buf);
        buf
    })
}

/// Pick one of the branches uniformly, then generate from it — the
/// harness's `prop_oneof!`.
pub fn one_of<T>(branches: Vec<BoxedGen<T>>) -> impl Gen<Value = T> {
    assert!(!branches.is_empty(), "one_of needs at least one branch");
    from_fn(move |rng| {
        let i = rng.below(branches.len() as u64) as usize;
        branches[i].generate(rng)
    })
}

/// Like [`one_of`], but each branch is chosen with probability
/// proportional to its weight.
pub fn weighted<T>(branches: Vec<(u32, BoxedGen<T>)>) -> impl Gen<Value = T> {
    let total: u64 = branches.iter().map(|(w, _)| *w as u64).sum();
    assert!(total > 0, "weighted needs a positive total weight");
    from_fn(move |rng| {
        let mut ticket = rng.below(total);
        for (w, g) in &branches {
            if ticket < *w as u64 {
                return g.generate(rng);
            }
            ticket -= *w as u64;
        }
        unreachable!("ticket exceeds total weight")
    })
}

macro_rules! tuple_gen {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_gen!(A: 0, B: 1);
tuple_gen!(A: 0, B: 1, C: 2);
tuple_gen!(A: 0, B: 1, C: 2, D: 3);
tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::from_seed(0xDEAD_BEEF)
    }

    #[test]
    fn generators_are_deterministic() {
        let g = vec_of(u8_any(), 1..20);
        let a = g.generate(&mut rng());
        let b = g.generate(&mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn ranges_are_respected() {
        let g = (u8_in(3..7), usize_in(100..101), u64_in(9..12));
        let mut r = rng();
        for _ in 0..500 {
            let (a, b, c) = g.generate(&mut r);
            assert!((3..7).contains(&a));
            assert_eq!(b, 100);
            assert!((9..12).contains(&c));
        }
    }

    #[test]
    fn vec_lengths_are_in_range() {
        let g = vec_of(bool_any(), 2..5);
        let mut r = rng();
        for _ in 0..200 {
            let v = g.generate(&mut r);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn map_applies() {
        let g = u8_any().map(|v| v as u32 + 1000);
        let v = g.generate(&mut rng());
        assert!((1000..1256).contains(&v));
    }

    #[test]
    fn one_of_hits_every_branch() {
        let g = one_of(vec![
            just(1u8).boxed(),
            just(2u8).boxed(),
            just(3u8).boxed(),
        ]);
        let mut r = rng();
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[g.generate(&mut r) as usize - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let g = weighted(vec![(0, just(1u8).boxed()), (5, just(2u8).boxed())]);
        let mut r = rng();
        for _ in 0..200 {
            assert_eq!(g.generate(&mut r), 2);
        }
    }

    #[test]
    fn bytes_generates_payloads() {
        let g = bytes(0..1500);
        let mut r = rng();
        let mut max_len = 0;
        for _ in 0..100 {
            let v = g.generate(&mut r);
            assert!(v.len() < 1500);
            max_len = max_len.max(v.len());
        }
        assert!(max_len > 500, "uniform lengths should reach past 500");
    }
}
