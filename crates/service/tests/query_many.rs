//! End-to-end socket test for the `QUERY_MANY` op: one round trip
//! answers a φ-sweep plus a rank sweep from one merged snapshot, and
//! on a quiescent server the combined answers must equal what the
//! client's one-sided wrappers (`query_quantiles`, `query_rank`) return.

use std::time::Duration;

use sqs_service::server::{spawn, ServerConfig};
use sqs_service::Client;
use sqs_turnstile::TurnstileSummary;
use sqs_util::rng::SplitMix64;

const EPS: f64 = 0.02;
const LOG_U: u32 = 20;
const TENANT: u64 = 7;

#[test]
fn query_many_matches_its_one_sided_wrappers_over_the_socket() {
    // Shards of one tenant merge at snapshot time, so every shard must
    // draw the same hash functions: the seed depends on the tenant only.
    let server = spawn(ServerConfig::default(), |tenant: u64, _shard: usize| {
        TurnstileSummary::dcs(EPS, LOG_U, tenant.wrapping_mul(31) ^ 1)
    })
    .expect("spawn server");
    let mut client =
        Client::connect(server.addr().to_string(), Duration::from_secs(10)).expect("connect");

    let mut rng = SplitMix64::new(0x9e37);
    let xs: Vec<u64> = (0..20_000).map(|_| rng.next_u64() % (1 << LOG_U)).collect();
    for chunk in xs.chunks(2048) {
        client.insert_batch(TENANT, chunk).expect("insert batch");
    }

    let phis = [0.01, 0.25, 0.5, 0.75, 0.99];
    let probes = [0u64, 1 << 10, 1 << 15, (1 << LOG_U) - 1, u64::MAX];
    let (quantiles, ranks) = client
        .query_many(TENANT, &phis, &probes)
        .expect("query many");
    assert_eq!(quantiles.len(), phis.len());
    assert_eq!(ranks.len(), probes.len());

    // The stream is quiescent, so the wrappers must agree exactly.
    let separate = client
        .query_quantiles(TENANT, &phis)
        .expect("query quantiles");
    assert_eq!(quantiles, separate, "φ-sweep must match query_quantiles");
    for (&x, &rank) in probes.iter().zip(&ranks) {
        let single = client.query_rank(TENANT, x).expect("query rank");
        assert_eq!(rank, single, "rank sweep must match query_rank at x={x}");
    }

    // Asymmetric and empty shapes are legal.
    let (q_only, r_empty) = client
        .query_many(TENANT, &[0.5], &[])
        .expect("phi-only sweep");
    assert_eq!(q_only.len(), 1);
    assert!(r_empty.is_empty());
    let (q_empty, r_only) = client
        .query_many(TENANT, &[], &[1 << 12])
        .expect("rank-only sweep");
    assert!(q_empty.is_empty());
    assert_eq!(r_only.len(), 1);

    // An out-of-range φ is refused without disturbing the connection.
    let refused = client.query_many(TENANT, &[0.5, 1.5], &[]);
    assert!(
        matches!(refused, Err(sqs_service::ClientError::Server(ref msg)) if msg.contains("phi")),
        "bad phi must come back as a server error: {refused:?}"
    );
    let (still_ok, _) = client
        .query_many(TENANT, &[0.5], &[])
        .expect("connection survives a refused request");
    assert_eq!(still_ok.len(), 1);

    server.shutdown();
    server.join();
}
