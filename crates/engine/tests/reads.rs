//! The engine's read path against a from-scratch index. A mirror of
//! the shards — one `RandomSketch` per shard, fed the same batches in
//! the router's round-robin order and the same absorbed summaries into
//! shard 0 — is state-identical to the engine's, so every answer the
//! engine gives must be what `RankIndex::build` over the mirror's live
//! runs (every shard's stable runs, then every shard's fill) answers:
//! bit for bit, not within ε. A generation bump a summary forgets
//! leaves the engine on a stale stable index and turns this red.
//!
//! The linear summaries (DCS, DCM, RSS) have no runs; their shards,
//! mirrored the same way, merge by adding counters, and every engine
//! read, cold or warm, must answer what the merge of clones of the
//! mirror's shards answers, bit for bit.

use sqs_core::buffers::RankIndex;
use sqs_core::codec::WireCodec;
use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::{merge_tree, ShardedEngine};
use sqs_turnstile::{new_rss, Dcm, Dcs};
use sqs_util::audit::CheckInvariants;
use sqs_util::rng::Xoshiro256pp;

const EPS: f64 = 0.05;

fn sketch(seed: u64) -> RandomSketch<u64> {
    RandomSketch::new(EPS, seed)
}

struct Mirror {
    shards: Vec<RandomSketch<u64>>,
    /// The router: the shard the next nonempty batch lands in.
    next: usize,
}

impl Mirror {
    fn ingest(&mut self, xs: &[u64]) {
        if xs.is_empty() {
            return;
        }
        let k = self.shards.len();
        self.shards[self.next % k].insert_batch(xs);
        self.next += 1;
    }

    /// Rows that take the next shard's fill to its boundary, give or
    /// take the sampler's group in progress.
    fn rows_to_fill(&self) -> u64 {
        let shard = &self.shards[self.next % self.shards.len()];
        let runs = shard.runs().expect("Random has runs");
        let (len, weight) = runs.fresh.map_or((0, 1), |(d, w)| (d.len() as u64, w));
        (shard.buffer_size() as u64 - len) * weight
    }

    /// The index an engine read must answer exactly as.
    fn index(&self) -> RankIndex<u64> {
        let runs: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.runs().expect("Random has runs"))
            .collect();
        let mut all: Vec<(&[u64], u64)> = runs.iter().flat_map(|r| r.stable.clone()).collect();
        all.extend(runs.iter().filter_map(|r| r.fresh));
        RankIndex::build(&all)
    }
}

fn rows(rng: &mut Xoshiro256pp, len: u64, universe: u64) -> Vec<u64> {
    (0..len).map(|_| rng.next_below(universe)).collect()
}

/// Every read entry point against the mirror's index.
fn check_reads(e: &ShardedEngine<u64, RandomSketch<u64>>, m: &Mirror, rng: &mut Xoshiro256pp) {
    let index = m.index();
    let universe = 1 + rng.next_below(1 << 20);
    let mut phis: Vec<f64> = (0..1 + rng.next_below(10))
        .map(|_| (1 + rng.next_below(999)) as f64 / 1000.0)
        .collect();
    phis.push(phis[0]);
    let count = 1 + rng.next_below(6);
    let xs = rows(rng, count, universe);
    let want_q: Vec<Option<u64>> = phis.iter().map(|&p| index.quantile(p)).collect();
    let want_r: Vec<u64> = xs.iter().map(|&x| index.rank(x)).collect();
    let at = format!("n = {}, phis {phis:?}, xs {xs:?}", e.n());
    match rng.next_below(4) {
        0 => assert_eq!(e.query_many(&phis, &xs), (want_q, want_r), "{at}"),
        1 => assert_eq!(e.quantiles(&phis), want_q, "{at}"),
        2 => assert_eq!(e.quantile(phis[0]), want_q[0], "{at}"),
        _ => {
            let got: Vec<u64> = xs.iter().map(|&x| e.rank_estimate(x)).collect();
            assert_eq!(got, want_r, "{at}");
        }
    }
}

#[test]
fn engine_reads_equal_the_union_of_live_runs() {
    for shards in [1usize, 2, 4] {
        for seed in 0..3u64 {
            let mut rng = Xoshiro256pp::new(0x35_0000 + seed * 16 + shards as u64);
            // Small universes pile equal values into runs of different
            // weight, the case where the order of the union matters.
            let universe = [48, 1 << 20, 1 << 40][seed as usize];
            let make = |i: usize| sketch(0x5EED + i as u64);
            let e = ShardedEngine::new_with(shards, 0, make);
            let mut m = Mirror {
                shards: (0..shards).map(make).collect(),
                next: 0,
            };
            for step in 0..1_500 {
                match rng.next_below(9) {
                    0 => {
                        let len = [0, 1, m.rows_to_fill(), m.rows_to_fill() + 1]
                            [rng.next_below(4) as usize];
                        let xs = rows(&mut rng, len, universe);
                        e.ingest_batch(&xs);
                        m.ingest(&xs);
                    }
                    1 | 2 => {
                        let most = [300, 30_000][rng.next_below(2) as usize];
                        let len = rng.next_below(1 + most);
                        let xs = rows(&mut rng, len, universe);
                        e.ingest_batch(&xs);
                        m.ingest(&xs);
                    }
                    3 => {
                        // A donor big enough that the merge often packs
                        // every slot, so that the next batch resumes a
                        // partial as the fill; half of them decoded.
                        let mut donor = sketch(rng.next_below(1 << 32));
                        let len = rng.next_below(6_000);
                        donor.insert_batch(&rows(&mut rng, len, universe));
                        if rng.next_bool() {
                            donor = RandomSketch::from_bytes(&donor.to_bytes())
                                .expect("own frame decodes");
                        }
                        assert!(e.try_absorb(donor.clone()).is_ok());
                        m.shards[0].merge_from(donor);
                    }
                    _ => check_reads(&e, &m, &mut rng),
                }
                if step % 100 == 0 {
                    e.assert_invariants();
                }
            }
            check_reads(&e, &m, &mut rng);
            e.assert_invariants();
            assert_eq!(e.n(), m.shards.iter().map(|s| s.n()).sum::<u64>());
        }
    }
}

/// Shards of a linear summary, mirrored: every batch into the shard the
/// router picks, every absorbed donor into shard 0. The merge of clones
/// of the mirror's shards is what an engine read must answer as.
struct LinearMirror<S> {
    shards: Vec<S>,
    next: usize,
}

impl<S: MergeableSummary<u64> + Clone> LinearMirror<S> {
    fn ingest(&mut self, xs: &[u64]) {
        if xs.is_empty() {
            return;
        }
        let k = self.shards.len();
        self.shards[self.next % k].insert_batch(xs);
        self.next += 1;
    }

    fn merged(&self) -> S {
        merge_tree(self.shards.clone()).0
    }
}

/// One read of each kind against the merge of the mirror's clones, bit
/// for bit; `cold` says whether a fold came before it.
fn check_linear_reads<S>(
    e: &ShardedEngine<u64, S>,
    m: &LinearMirror<S>,
    rng: &mut Xoshiro256pp,
    universe: u64,
    cold: bool,
) where
    S: MergeableSummary<u64> + Clone,
{
    let mut merged = m.merged();
    let mut phis: Vec<f64> = (0..1 + rng.next_below(12))
        .map(|_| (1 + rng.next_below(999)) as f64 / 1000.0)
        .collect();
    phis.push(phis[0]);
    let count = 1 + rng.next_below(5);
    let mut xs = rows(rng, count, universe);
    xs.push([0, universe - 1, universe, u64::MAX][rng.next_below(4) as usize]);
    let want_q = merged.quantiles(&phis);
    let want_r: Vec<u64> = xs.iter().map(|&x| merged.rank_estimate(x)).collect();
    let at = format!("cold {cold}, n = {}, phis {phis:?}, xs {xs:?}", e.n());
    assert_eq!(e.n(), merged.n(), "{at}");
    match rng.next_below(4) {
        0 => assert_eq!(e.query_many(&phis, &xs), (want_q, want_r), "{at}"),
        1 => assert_eq!(e.quantiles(&phis), want_q, "{at}"),
        2 => assert_eq!(e.quantile(phis[0]), merged.quantile(phis[0]), "{at}"),
        _ => {
            let got: Vec<u64> = xs.iter().map(|&x| e.rank_estimate(x)).collect();
            assert_eq!(got, want_r, "{at}");
        }
    }
}

/// A seeded interleaving of batches, delete-heavy absorbed donors and
/// cold and warm reads on an engine of `shards` shards built by `make`
/// (one seed for every shard: linear sketches drawn alike merge by
/// adding counters).
fn linear_reads_equal_the_merge<S>(
    shards: usize,
    seed: u64,
    universe: u64,
    make: impl Fn() -> S,
    donor: impl Fn(&mut Xoshiro256pp) -> S,
) where
    S: MergeableSummary<u64> + Clone,
{
    let mut rng = Xoshiro256pp::new(0x42_0000 + seed * 16 + shards as u64);
    let e = ShardedEngine::new_with(shards, 0, |_| make());
    let mut m = LinearMirror {
        shards: (0..shards).map(|_| make()).collect(),
        next: 0,
    };
    for step in 0..120 {
        match rng.next_below(6) {
            0 | 1 => {
                let len = [0, 1, 7, 4_096][rng.next_below(4) as usize];
                let xs = rows(&mut rng, len, universe);
                e.ingest_batch(&xs);
                m.ingest(&xs);
                check_linear_reads(&e, &m, &mut rng, universe, true);
            }
            2 => {
                let d = donor(&mut rng);
                assert!(e.try_absorb(d.clone()).is_ok());
                m.shards[0].merge_from(d);
                check_linear_reads(&e, &m, &mut rng, universe, true);
            }
            _ => check_linear_reads(&e, &m, &mut rng, universe, false),
        }
        if step % 40 == 0 {
            e.assert_invariants();
        }
    }
    e.assert_invariants();
}

/// A donor's updates through the dyadic `update_batch`: `inserts` rows,
/// most of them deleted again in the same batch, some with deltas of 2.
fn churn(rng: &mut Xoshiro256pp, inserts: u64, universe: u64) -> Vec<(u64, i64)> {
    let kept = rows(rng, inserts, universe);
    let mut ops: Vec<(u64, i64)> = kept.iter().map(|&x| (x, 2)).collect();
    for (i, &x) in kept.iter().enumerate() {
        ops.push((x, if i % 5 == 0 { -1 } else { -2 }));
    }
    ops
}

#[test]
fn dcs_engine_reads_equal_the_merged_sketch() {
    const LOG_U: u32 = 20;
    let make = || Dcs::dcs(0.05, LOG_U, 0xD5);
    for shards in [1usize, 2, 4, 8] {
        linear_reads_equal_the_merge(shards, 0, 1 << LOG_U, make, |rng| {
            let mut d = make();
            d.update_batch(&churn(rng, 3_000, 1 << LOG_U));
            d
        });
    }
}

#[test]
fn dcm_and_rss_engine_reads_equal_the_merged_sketch() {
    let make = || Dcm::dcm(0.05, 18, 0xC3);
    linear_reads_equal_the_merge(2, 1, 1 << 18, make, |rng| {
        let mut d = make();
        d.update_batch(&churn(rng, 2_000, 1 << 18));
        d
    });
    let make = || new_rss(0.2, 10, 0x55);
    linear_reads_equal_the_merge(2, 2, 1 << 10, make, |rng| {
        let mut d = make();
        d.update_batch(&churn(rng, 500, 1 << 10));
        d
    });
}
