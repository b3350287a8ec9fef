//! Sensor-network aggregation — the q-digest's original habitat
//! (§1, [26]; §4.2.4 keeps it relevant as the only deterministic
//! *mergeable* summary).
//!
//! 64 sensors each observe local temperature readings and build a
//! q-digest; digests are merged pairwise up a binary aggregation tree
//! (6 hops) to the base station, which answers quantile queries over
//! the whole network without any node ever shipping raw readings.
//!
//! ```text
//! cargo run --release --example sensor_aggregation
//! ```

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::ordkey::quantize;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

const SENSORS: usize = 64;
const READINGS_PER_SENSOR: usize = 20_000;
/// Temperatures live in [-20, 60] °C, quantized to a 2^16 universe.
const LOG_U: u32 = 16;
const EPS: f64 = 0.01;

fn sensor_stream(id: usize) -> (Vec<u64>, Vec<f64>) {
    // Each sensor sits in a microclimate: its own mean, shared diurnal
    // swing, local noise.
    let mut rng = Xoshiro256pp::new(id as u64 + 1);
    let mean = 5.0 + (id % 8) as f64 * 3.5;
    let mut celsius = Vec::with_capacity(READINGS_PER_SENSOR);
    let mut keys = Vec::with_capacity(READINGS_PER_SENSOR);
    for t in 0..READINGS_PER_SENSOR {
        let diurnal = 8.0 * (t as f64 / READINGS_PER_SENSOR as f64 * std::f64::consts::TAU).sin();
        let c = mean + diurnal + rng.next_standard_normal() * 1.5;
        celsius.push(c);
        keys.push(quantize(c, -20.0, 60.0, LOG_U));
    }
    (keys, celsius)
}

fn main() {
    // Leaf level: each sensor summarizes locally.
    let mut digests: Vec<QDigest> = Vec::with_capacity(SENSORS);
    let mut all_keys: Vec<u64> = Vec::new();
    for id in 0..SENSORS {
        let (keys, _) = sensor_stream(id);
        let mut d = QDigest::new(EPS, LOG_U);
        for &k in &keys {
            d.insert(k);
        }
        all_keys.extend(keys);
        digests.push(d);
    }
    let leaf_kb: f64 = digests.iter().map(|d| d.space_bytes()).sum::<usize>() as f64 / 1024.0;
    println!(
        "{SENSORS} sensors x {READINGS_PER_SENSOR} readings; leaf digests total {leaf_kb:.1} KB \
         (raw data would be {:.0} KB)\n",
        (SENSORS * READINGS_PER_SENSOR * 8) as f64 / 1024.0
    );

    // Merge up the binary tree, level by level — any merge order is
    // valid for a mergeable summary.
    let mut level = 0;
    while digests.len() > 1 {
        level += 1;
        let mut next = Vec::with_capacity(digests.len() / 2);
        let mut iter = digests.into_iter();
        while let (Some(mut a), Some(mut b)) = (iter.next(), iter.next()) {
            a.merge(&mut b);
            next.push(a);
        }
        println!(
            "hop {level}: {} digests, max {:.1} KB each",
            next.len(),
            next.iter()
                .map(|d| d.space_bytes())
                .max()
                .expect("at least one sensor") as f64
                / 1024.0
        );
        digests = next;
    }
    let mut root = digests.pop().expect("one digest remains");

    // Base station answers network-wide quantile queries.
    let oracle = ExactQuantiles::new(all_keys);
    let to_c = |k: u64| -20.0 + k as f64 / (1u64 << LOG_U) as f64 * 80.0;
    println!("\nnetwork-wide temperature quantiles at the base station:");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "phi", "digest (C)", "exact (C)", "rank err"
    );
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let q = root.quantile(phi).expect("non-empty stream");
        let err = oracle.quantile_error(phi, q);
        println!(
            "{phi:>6} {:>12.2} {:>12.2} {:>10.5}",
            to_c(q),
            to_c(oracle.quantile(phi)),
            err
        );
    }
    println!(
        "\nroot digest: {:.1} KB, n = {} readings summarized",
        root.space_bytes() as f64 / 1024.0,
        root.n()
    );
}
