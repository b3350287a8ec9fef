//! Network health monitoring — the paper's ISP motivation (§1, [8]):
//! track round-trip-time percentiles over a live packet stream,
//! answering "what is p99 latency *right now*" at any moment without
//! storing the packets.
//!
//! The stream is a realistic latency mix: a base path (low, tight),
//! a congested path (higher, heavy-tailed), and periodic congestion
//! events that shift the distribution — exactly the non-stationary,
//! duplicate-heavy setting where quantile summaries earn their keep.
//! Latencies are `f64` microseconds, fed to the comparison-based
//! GKArray directly through the order-preserving `f64 → u64` mapping.
//!
//! ```text
//! cargo run --release --example network_monitoring
//! ```

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::ordkey::{f64_to_ordered_u64, ordered_u64_to_f64};
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

/// One simulated RTT in microseconds.
fn sample_rtt(rng: &mut Xoshiro256pp, congestion: f64) -> f64 {
    let base = 450.0 + rng.next_standard_normal().abs() * 80.0;
    // 12% of packets take the congested path; congestion events make
    // that path slower and more common.
    if rng.next_f64() < 0.12 + 0.3 * congestion {
        let tail = (-rng.next_f64().ln()).powf(1.5); // heavy-ish tail
        base + 2_000.0 + 3_000.0 * congestion + 1_500.0 * tail
    } else {
        base
    }
}

fn main() {
    let mut rng = Xoshiro256pp::new(2013);
    // ε = 0.0005 → p99 is pinned to ±0.05% of the packet population.
    let mut summary: GkArray<u64> = GkArray::new(0.0005);
    let total: u64 = 2_000_000;
    let report_every = total / 8;

    println!("monitoring {total} packets; live percentile reports:\n");
    println!(
        "{:>10}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "packets", "p50 (us)", "p90 (us)", "p99 (us)", "p999 (us)", "space KB"
    );
    for i in 0..total {
        // A congestion event in the middle third of the trace.
        let congestion = if (total / 3..2 * total / 3).contains(&i) {
            1.0
        } else {
            0.0
        };
        let rtt = sample_rtt(&mut rng, congestion);
        summary.insert(f64_to_ordered_u64(rtt));

        if (i + 1) % report_every == 0 {
            let mut q =
                |phi: f64| ordered_u64_to_f64(summary.quantile(phi).expect("non-empty stream"));
            println!(
                "{:>10}  {:>9.0}  {:>9.0}  {:>9.0}  {:>9.0}  {:>9.1}",
                i + 1,
                q(0.5),
                q(0.9),
                q(0.99),
                q(0.999),
                summary.space_bytes() as f64 / 1024.0
            );
        }
    }

    let raw_kb = total as f64 * 8.0 / 1024.0;
    println!(
        "\nsummary held {:.1} KB vs {raw_kb:.0} KB of raw latencies ({}x smaller),",
        summary.space_bytes() as f64 / 1024.0,
        (raw_kb / (summary.space_bytes() as f64 / 1024.0)) as u64
    );
    println!("with every report guaranteed within ±0.05% rank error — deterministically.");

    // The randomized alternative at the same ε, for comparison.
    let random: RandomSketch<u64> = RandomSketch::new(0.0005, 1);
    println!(
        "(Random at the same eps would pre-allocate {:.1} KB, fixed for any stream length.)",
        random.space_bytes() as f64 / 1024.0
    );
}
