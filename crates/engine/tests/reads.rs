//! The engine's read path against a from-scratch index. A mirror of
//! the shards — one `RandomSketch` per shard, fed the same batches in
//! the router's round-robin order and the same absorbed summaries into
//! shard 0 — is state-identical to the engine's, so every answer the
//! engine gives must be what `RankIndex::build` over the mirror's live
//! runs (every shard's stable runs, then every shard's fill) answers:
//! bit for bit, not within ε. A generation bump a summary forgets
//! leaves the engine on a stale stable index and turns this red.

use sqs_core::buffers::RankIndex;
use sqs_core::codec::WireCodec;
use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::ShardedEngine;
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
