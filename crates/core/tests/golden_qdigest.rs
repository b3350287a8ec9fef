//! The q-digest's answers, space and byte form as the commit before the
//! post-order node store gave them. That change moved every operation
//! onto another array order and claims to keep exactly the same
//! COMPRESS survivors, so nothing observable may move.
//!
//! Four shapes: the benchmark's `paper_suite` digest (ε 10⁻³, log u 32,
//! 2^19 uniform rows through the scalar `insert`); a clustered stream
//! at log u 24, ε 0.01, half scalar and half in batches; a 4-way
//! `merge_from` tree; and a digest encoded, decoded and continued. Each
//! reports `n`, `space_bytes`, the 99-φ grid, 16 ranks and the length
//! and FNV-1a hash of its `to_bytes` frame. The expected values were
//! printed by the parent commit and must never be edited to make a
//! refactor pass.

use sqs_core::codec::WireCodec;
use sqs_core::qdigest::QDigest;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_util::rng::Xoshiro256pp;

/// What one digest shows: `n`, `space_bytes`, the grid's quantiles,
/// the ranks of `i · u/16` for `i` in `0..16`, and the frame's length
/// and FNV-1a hash.
struct Seen {
    n: u64,
    space: usize,
    quantiles: Vec<u64>,
    ranks: Vec<u64>,
    frame_len: usize,
    frame_fnv: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn seen(d: &mut QDigest) -> Seen {
    let grid = sqs_util::exact::probe_phis(0.01);
    assert_eq!(grid.len(), 99);
    let quantiles = d.quantiles(&grid).into_iter().flatten().collect();
    let step = 1u64 << (d.log_u() - 4);
    let ranks = (0..16).map(|i| d.rank_estimate(i * step)).collect();
    let frame = d.to_bytes();
    Seen {
        n: d.n(),
        space: sqs_util::space::SpaceUsage::space_bytes(d),
        quantiles,
        ranks,
        frame_len: frame.len(),
        frame_fnv: fnv1a(&frame),
    }
}

fn uniform(seed: u64, rows: usize, log_u: u32) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..rows).map(|_| rng.next_below(1 << log_u)).collect()
}

/// Rows piled around 24 centres, ± 2^10, in a 2^24 universe.
fn clustered(seed: u64, rows: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    let centres: Vec<u64> = (0..24).map(|_| rng.next_below(1 << 24)).collect();
    (0..rows)
        .map(|_| {
            let c = centres[rng.next_below(24) as usize];
            (c + rng.next_below(1 << 10) + rng.next_below(1 << 10)).min((1 << 24) - 1)
        })
        .collect()
}

fn feed(d: &mut QDigest, rows: &[u64]) {
    let (scalar, batched) = rows.split_at(rows.len() / 2);
    scalar.iter().for_each(|&x| d.insert(x));
    batched.chunks(4096).for_each(|chunk| d.insert_batch(chunk));
}

fn paper_suite() -> Seen {
    let mut d = QDigest::new(1e-3, 32);
    uniform(0x5017e, 1 << 19, 32)
        .into_iter()
        .for_each(|x| d.insert(x));
    seen(&mut d)
}

fn clustered_stream() -> Seen {
    let mut d = QDigest::new(0.01, 24);
    feed(&mut d, &clustered(24, 600_000));
    seen(&mut d)
}

/// Four digests of different sizes and streams, merged as `(a + b) +
/// (c + d)`.
fn merge_tree() -> Seen {
    let mut shards: Vec<QDigest> = [(1, 40_000), (2, 150_000), (3, 7_000), (4, 90_000)]
        .into_iter()
        .map(|(seed, rows)| {
            let mut d = QDigest::new(0.005, 24);
            let rows = if seed % 2 == 0 {
                clustered(seed, rows)
            } else {
                uniform(seed, rows, 24)
            };
            feed(&mut d, &rows);
            d
        })
        .collect();
    let (d, c) = (shards.pop(), shards.pop());
    let (mut right, mut left) = (c.expect("four shards"), shards.remove(0));
    right.merge_from(d.expect("four shards"));
    left.merge_from(shards.remove(0));
    left.merge_from(right);
    seen(&mut left)
}

/// A digest encoded mid-stream, decoded, and fed the rest.
fn continued() -> Seen {
    let rows = clustered(5, 300_000);
    let (head, tail) = rows.split_at(170_001);
    let mut d = QDigest::new(0.002, 24);
    feed(&mut d, head);
    let mut back = QDigest::from_bytes(&d.to_bytes()).expect("own frame decodes");
    feed(&mut back, tail);
    back.insert_batch(&uniform(6, 50_000, 24));
    seen(&mut back)
}

#[test]
fn paper_suite_shape_as_the_parent_did() {
    let got = paper_suite();
    assert_eq!((got.n, got.space), (524_288, 760_388));
    assert_eq!(got.quantiles, PAPER_SUITE_QUANTILES);
    assert_eq!(got.ranks, PAPER_SUITE_RANKS);
    assert_eq!(
        (got.frame_len, got.frame_fnv),
        (1_505_592, 0x6acb_a9fa_2641_f949)
    );
}

#[test]
fn clustered_stream_as_the_parent_did() {
    let got = clustered_stream();
    assert_eq!((got.n, got.space), (600_000, 47_768));
    assert_eq!(got.quantiles, CLUSTERED_QUANTILES);
    assert_eq!(got.ranks, CLUSTERED_RANKS);
    assert_eq!(
        (got.frame_len, got.frame_fnv),
        (75_912, 0xf59f_0660_fa96_c49e)
    );
}

#[test]
fn four_way_merge_tree_as_the_parent_did() {
    let got = merge_tree();
    assert_eq!((got.n, got.space), (287_000, 87_956));
    assert_eq!(got.quantiles, MERGE_TREE_QUANTILES);
    assert_eq!(got.ranks, MERGE_TREE_RANKS);
    assert_eq!(
        (got.frame_len, got.frame_fnv),
        (121_464, 0x2a13_5a73_8608_5e46)
    );
}

#[test]
fn decoded_and_continued_as_the_parent_did() {
    let got = continued();
    assert_eq!((got.n, got.space), (350_000, 237_804));
    assert_eq!(got.quantiles, CONTINUED_QUANTILES);
    assert_eq!(got.ranks, CONTINUED_RANKS);
    assert_eq!(
        (got.frame_len, got.frame_fnv),
        (375_256, 0x8471_7738_c47b_98c2)
    );
}

const PAPER_SUITE_QUANTILES: [u64; 99] = [
    43253759, 85065727, 128647167, 172883967, 215351295, 258605055, 300548095, 343539711,
    387579903, 429850623, 472907775, 515899391, 557842431, 601489407, 644415487, 687276031,
    729808895, 772538367, 814481407, 857473023, 900923391, 944766975, 988741631, 1030881279,
    1073741823, 1116733439, 1159331839, 1203240959, 1245708287, 1289355263, 1331691519, 1374486527,
    1418067967, 1460666367, 1503657983, 1546125311, 1589116927, 1631927805, 1674706943, 1717043199,
    1760690175, 1803419647, 1846804479, 1889402879, 1931438390, 1974730751, 2017984511, 2061212366,
    2104098815, 2147155967, 2189557759, 2232418303, 2275016703, 2317352959, 2359492607, 2402942975,
    2447165762, 2489188351, 2533359615, 2577006591, 2618818559, 2661810175, 2704277503, 2747793407,
    2789343231, 2831286271, 2875195391, 2918055935, 2960392191, 3003777023, 3047817215, 3089629183,
    3133145087, 3175849378, 3218341887, 3260318599, 3302360584, 3345481727, 3388997631, 3431858175,
    3475243007, 3518365695, 3562340351, 3605135359, 3647995903, 3691184127, 3735289855, 3777363967,
    3821010943, 3864395775, 3907401310, 3950398685, 3992977407, 4036493311, 4079615999, 4123525119,
    4166647807, 4210032639, 4252631039,
];
const PAPER_SUITE_RANKS: [u64; 16] = [
    0, 32792, 65569, 98487, 131117, 163895, 196658, 229445, 262284, 295166, 327919, 360880, 393595,
    426486, 458929, 491661,
];
const CLUSTERED_QUANTILES: [u64; 99] = [
    483199, 483487, 483783, 485375, 2007095, 2007399, 2007679, 2008236, 2148511, 2148863, 2149135,
    2149631, 2483839, 2484199, 2484455, 2484831, 3284911, 3285287, 3285551, 3285759, 3286007,
    3286231, 3286463, 3286783, 4718079, 4718591, 4718855, 4719167, 4784127, 4833855, 4834167,
    4834447, 4834943, 5038927, 5039239, 5039519, 5039919, 7147679, 7148031, 7148303, 7148671,
    7251839, 7252215, 7252479, 7252783, 7966591, 7966983, 7967271, 7967615, 8291455, 8291999,
    8292287, 8292559, 8293375, 8456639, 8456935, 8457215, 8457695, 9543167, 9543503, 9543743,
    9544191, 9814271, 9814647, 9814911, 9815295, 11778175, 11778591, 11778879, 11779215, 11978911,
    11979391, 11979679, 11979983, 12416479, 12417015, 12417279, 12417583, 12582911, 12670655,
    12670943, 12671215, 12671679, 13328335, 13328663, 13328927, 13329343, 13732287, 13732671,
    13732943, 13733375, 15411071, 15411455, 15411711, 15412079, 16495231, 16495679, 16495951,
    16496271,
];
const CLUSTERED_RANKS: [u64; 16] = [
    0, 24923, 49943, 99620, 149636, 224797, 224984, 274595, 325125, 350120, 400291, 400291, 474822,
    524738, 549498, 574842,
];
const MERGE_TREE_QUANTILES: [u64; 99] = [
    984703, 985791, 1509407, 1510495, 2457599, 2630063, 2647287, 2647839, 3048319, 3049439,
    3378799, 3489791, 3758743, 3759311, 4216127, 4217279, 4928367, 4929031, 4930047, 5658431,
    5659039, 5767167, 6184479, 6185007, 6461967, 6463039, 7044095, 7045247, 7620239, 7620823,
    7706943, 7708063, 7971503, 8022815, 8023455, 8028159, 8237343, 8237935, 8485135, 8485703,
    8617983, 8881247, 9012655, 9013247, 9142271, 9458175, 9458735, 9465063, 9465631, 9781247,
    9855855, 9941103, 9941647, 10170527, 10171647, 10251391, 10386511, 10420223, 10749567,
    10927231, 10927935, 10928703, 10962671, 10963263, 11323215, 11323775, 11378591, 11379583,
    11402559, 11575391, 11575967, 11796479, 12174463, 12435039, 12435727, 12436607, 12470095,
    12789087, 12795903, 12839487, 12840159, 12949239, 12949759, 13434879, 14069935, 14106623,
    14122175, 14122895, 14491903, 14492479, 14762111, 14762935, 14763679, 15120255, 15368191,
    16088479, 16089599, 16385783, 16386303,
];
const MERGE_TREE_RANKS: [u64; 16] = [
    0, 6701, 13442, 29766, 42743, 55598, 70990, 81455, 110710, 130103, 166778, 199838, 222429,
    241717, 260894, 273768,
];
const CONTINUED_QUANTILES: [u64; 99] = [
    983679, 984171, 984481, 984927, 1141255, 1141639, 1141951, 1142559, 1430729, 1431091, 1431419,
    1556479, 1644297, 1644613, 1644991, 2047999, 3227647, 4010419, 4010869, 4011171, 4011643,
    4833279, 4900095, 4900407, 4900801, 5373951, 6537215, 7361807, 7362271, 7362591, 7363103,
    7713319, 7713707, 7714029, 7714703, 7843975, 7844317, 7844683, 7861103, 7861567, 7861871,
    7862335, 8650751, 8843259, 8843583, 8843935, 9097999, 9098615, 9098927, 9099323, 9639202,
    10062319, 10062683, 10063013, 10125311, 10258975, 10259303, 10259661, 10584063, 11114721,
    11115105, 11115423, 11116095, 11590109, 11590491, 11590809, 11591487, 11798513, 11798855,
    11799201, 12009471, 12340253, 12340609, 12340959, 12476415, 13664255, 14317923, 14318329,
    14318639, 14319223, 14814127, 14814537, 14814855, 14815487, 14903391, 14903719, 14904079,
    15209839, 15210495, 15210821, 15211207, 15652591, 15653195, 15653517, 15653911, 16252927,
    16466757, 16467091, 16467455,
];
const CONTINUED_RANKS: [u64; 16] = [
    0, 15420, 56188, 59306, 75116, 90674, 93857, 96952, 149696, 177920, 206212, 221997, 262857,
    265942, 281564, 334513,
];
