//! [`Lru`] against the obvious model: a `Vec` kept in recency order,
//! least recently used first. Under any sequence of get / insert / remove
//! / evict the two must report the same hits and misses, return the same
//! values and pick the same victims.

use iron_blockdev::Lru;
use iron_core::BlockAddr;
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    Peek(u64),
    Insert(u64, u8),
    Remove(u64),
    Evict,
}

fn op_gen() -> impl Gen<Value = Op> {
    // Twelve addresses: small enough that hits, replacements and removals
    // of resident blocks are all common.
    let addr = || gen::u64_in(0..12);
    gen::weighted(vec![
        (4, addr().map(Op::Get).boxed()),
        (1, addr().map(Op::Peek).boxed()),
        (
            4,
            (addr(), gen::u8_any())
                .map(|(a, v)| Op::Insert(a, v))
                .boxed(),
        ),
        (1, addr().map(Op::Remove).boxed()),
        (2, gen::just(Op::Evict).boxed()),
    ])
}

/// The reference: `(addr, value)` pairs, least recently used first.
#[derive(Default)]
struct Model(Vec<(u64, u8)>);

impl Model {
    fn take(&mut self, addr: u64) -> Option<u8> {
        let at = self.0.iter().position(|&(a, _)| a == addr)?;
        Some(self.0.remove(at).1)
    }
}

#[test]
fn lru_agrees_with_a_vec_ordered_model() {
    check(
        "lru_agrees_with_a_vec_ordered_model",
        Config::cases(300),
        &gen::vec_of(op_gen(), 1..200),
        |ops| {
            let mut lru: Lru<u8> = Lru::default();
            let mut model = Model::default();
            for op in ops {
                match *op {
                    Op::Get(a) => {
                        let want = model.take(a);
                        if let Some(v) = want {
                            model.0.push((a, v));
                        }
                        assert_eq!(lru.get(BlockAddr(a)).copied(), want, "{op:?}");
                    }
                    Op::Peek(a) => {
                        let want = model.0.iter().find(|&&(x, _)| x == a).map(|&(_, v)| v);
                        assert_eq!(lru.peek(BlockAddr(a)).copied(), want, "{op:?}");
                    }
                    Op::Insert(a, v) => {
                        model.take(a);
                        model.0.push((a, v));
                        lru.insert(BlockAddr(a), v);
                    }
                    Op::Remove(a) => {
                        assert_eq!(lru.remove(BlockAddr(a)), model.take(a), "{op:?}");
                    }
                    Op::Evict => {
                        let victim = lru.oldest().map(|(a, &v)| (a.0, v));
                        assert_eq!(victim, model.0.first().copied(), "victim");
                        if let Some((a, _)) = victim {
                            lru.remove(BlockAddr(a));
                            model.0.remove(0);
                        }
                    }
                }
                assert_eq!(lru.len(), model.0.len());
                assert_eq!(lru.is_empty(), model.0.is_empty());
            }
            // Draining by eviction replays the model's whole order.
            let mut drained = Vec::new();
            while let Some((a, &v)) = lru.oldest() {
                drained.push((a.0, v));
                lru.remove(a);
            }
            assert_eq!(drained, model.0);
        },
    );
}
