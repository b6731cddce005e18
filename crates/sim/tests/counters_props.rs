//! Reference-model test for [`Counters`]: seeded random sequences of
//! updates (adds of 0 included) and merges must read back exactly as
//! they do through a name-keyed `BTreeMap`, the string-keyed counter set
//! the typed keys replaced. Outcome digests fold `iter()`, so its
//! sequence (touched-zero entries, name order) is compared whole.
//!
//! Every key table in the workspace is also checked: names sorted
//! byte-wise and unique, within the touched set, and each variant's
//! index naming it.

use lln_node::NodeCounter;
use lln_phy::PhyCounter;
use lln_sim::stats::{CounterKey, Counters, MAX_COUNTER_KEYS};
use lln_sim::Rng;
use std::collections::BTreeMap;

/// The reference model: an entry per name, created by its first add.
#[derive(Default)]
struct Model {
    inner: BTreeMap<&'static str, u64>,
}

impl Model {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.inner.entry(name).or_insert(0) += n;
    }

    fn get(&self, name: &str) -> u64 {
        self.inner.get(name).copied().unwrap_or(0)
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.inner.iter().map(|(k, v)| (*k, *v))
    }

    fn merge(&mut self, other: &Model) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// Names in no key table.
const UNKNOWN: &[&str] = &["", "no_such_counter", "Frames_tx", "frames_tx ", "zzz"];

fn assert_same<K: CounterKey>(c: &Counters<K>, m: &Model, ctx: &str) {
    assert_eq!(
        c.iter().collect::<Vec<_>>(),
        m.iter().collect::<Vec<_>>(),
        "{ctx}: iter"
    );
    for &name in K::NAMES.iter().chain(UNKNOWN) {
        assert_eq!(c.get(name), m.get(name), "{ctx}: get({name:?})");
    }
}

/// Applies `ops` random updates to both sets: a quarter add 0, a
/// quarter go through `inc`, the rest add small or large amounts.
fn random_updates<K: CounterKey>(rng: &mut Rng, c: &mut Counters<K>, m: &mut Model, ops: u64) {
    for _ in 0..ops {
        let k = K::ALL[rng.gen_range(K::ALL.len() as u64) as usize];
        let name = K::NAMES[k.index()];
        match rng.gen_range(4) {
            0 => {
                c.add(k, 0);
                m.add(name, 0);
            }
            1 => {
                c.inc(k);
                m.add(name, 1);
            }
            2 => {
                let n = rng.gen_range(1_000);
                c.add(k, n);
                m.add(name, n);
            }
            _ => {
                let n = rng.next_u64() >> 24;
                c.add(k, n);
                m.add(name, n);
            }
        }
    }
}

/// Random sequences from sparse to dense, each merged with a second one.
fn matches_the_model<K: CounterKey>(seed: u64) {
    let mut rng = Rng::new(seed);
    let keys = K::ALL.len() as u64;
    for case in 0..300 {
        let ctx = format!("seed {seed:#x} case {case}");
        let (mut a, mut ma) = (Counters::<K>::new(), Model::default());
        assert_same(&a, &ma, &ctx);
        let ops = rng.gen_range(3 * keys);
        random_updates(&mut rng, &mut a, &mut ma, ops);
        assert_same(&a, &ma, &ctx);
        let (mut b, mut mb) = (Counters::<K>::default(), Model::default());
        let ops = rng.gen_range(keys);
        random_updates(&mut rng, &mut b, &mut mb, ops);
        a.merge(&b);
        ma.merge(&mb);
        assert_same(&a, &ma, &format!("{ctx} after merge"));
        let ops = rng.gen_range(keys);
        random_updates(&mut rng, &mut a, &mut ma, ops);
        assert_same(&a, &ma, &format!("{ctx} after merge and updates"));
        assert_same(&a.clone(), &ma, &format!("{ctx} clone"));
    }
}

fn key_table_is_valid<K: CounterKey>() {
    let names = K::NAMES;
    assert!(
        names.len() <= MAX_COUNTER_KEYS,
        "{} names overflow the touched set",
        names.len()
    );
    for w in names.windows(2) {
        assert!(
            w[0].as_bytes() < w[1].as_bytes(),
            "names not sorted byte-wise and unique: {:?} before {:?}",
            w[0],
            w[1]
        );
    }
    assert_eq!(K::ALL.len(), names.len(), "one variant per name");
    for (i, &k) in K::ALL.iter().enumerate() {
        assert_eq!(k.index(), i, "{:?}: index", names[i]);
        let name = names[k.index()];
        let mut c = Counters::new();
        c.inc(k);
        assert_eq!(c.get(name), 1, "{name:?}: get after inc");
        assert_eq!(c.iter().collect::<Vec<_>>(), [(name, 1)], "{name:?}: iter");
    }
}

#[test]
fn phy_counters_match_the_map_model() {
    for seed in [0xC0_0001, 0xC0_0002, 0xC0_0003] {
        matches_the_model::<PhyCounter>(seed);
    }
}

#[test]
fn node_counters_match_the_map_model() {
    for seed in [0xC0_1001, 0xC0_1002, 0xC0_1003] {
        matches_the_model::<NodeCounter>(seed);
    }
}

#[test]
fn key_tables_are_sorted_and_round_trip() {
    key_table_is_valid::<PhyCounter>();
    key_table_is_valid::<NodeCounter>();
}

#[test]
fn touched_zero_entries_are_kept_in_name_order() {
    let mut c = Counters::new();
    c.add(NodeCounter::Unroutable, 0);
    c.inc(NodeCounter::AcceptBudgetDrops);
    c.add(NodeCounter::SynBudgetDrops, 0);
    assert_eq!(
        c.iter().collect::<Vec<_>>(),
        [
            ("accept_budget_drops", 1),
            ("syn_budget_drops", 0),
            ("unroutable", 0)
        ]
    );
    assert_eq!(
        format!("{c:?}"),
        r#"{"accept_budget_drops": 1, "syn_budget_drops": 0, "unroutable": 0}"#
    );
}
