//! The five service workloads: what each client sends, and the checks
//! every answer must pass.
//!
//! Load model: closed loop, 2 clients — one process hosts the server
//! (`server::spawn`, product defaults) and drives it from two threads
//! with one connection each; a client sends its next request only
//! after the previous one was answered. Every value sent comes from
//! [`crate::gen`] and is drawn before the clock starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sqs_service::proto::IngestAck;
use sqs_util::clock::{Clock, ManualClock};
use sqs_window::{WindowAnswer, WindowKind, WindowSpec};

use crate::gen::{derive_seed, interval_distance, phi_grid, Oracle, Stream};
use crate::target::Target;
use crate::trace::Samples;

pub const CLIENTS: usize = 2;
/// Values per client pool.
pub const POOL: usize = 1 << 20;
/// Service workloads draw values from `[0, 2^24)`.
pub const LOG_U: u32 = 24;
pub const EPS: f64 = 0.01;

/// The φ-sweep and rank probes of an in-run `QUERY_MANY`.
pub const QUERY_PHIS: [f64; 9] = [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999];
pub const QUERY_RANKS: [u64; 3] = [1_234_567, 5_555_555, 11_111_111];

pub const WINDOW_PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];
pub const BUCKET_NANOS: u64 = 1_000_000_000;
pub const RETENTION_BUCKETS: u64 = 256;
pub const CLOCK_START_NANOS: u64 = 1000 * BUCKET_NANOS;
/// Client 0 moves the clock one bucket per this many of its frames.
const FRAMES_PER_BUCKET: u64 = 16;
/// Every 32nd window frame is stamped two buckets in the past.
const LATE_EVERY: u64 = 32;
/// Window spans queried in turn, in buckets: sliding, sliding, tumbling.
const WINDOW_SPANS: [(WindowKind, u64); 3] = [
    (WindowKind::Sliding, 8),
    (WindowKind::Sliding, 64),
    (WindowKind::Tumbling, 16),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Random,
    Dcs,
}

/// One service workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub backend: Backend,
    pub durable: bool,
    pub window: bool,
    /// Rows per insert frame.
    pub rows: usize,
    /// Tenants each client cycles over; no tenant has two writers.
    pub tenants_per_client: usize,
    /// A client's loop: this many inserts, then this many queries.
    pub inserts_per_round: u64,
    pub queries_per_round: u64,
    /// Rows loaded into every tenant before the clock starts.
    pub preload_rows: u64,
}

pub const SERVICE_WORKLOADS: [Spec; 5] = [
    Spec {
        name: "ingest_mem",
        backend: Backend::Random,
        durable: false,
        window: false,
        rows: 4096,
        tenants_per_client: 8,
        inserts_per_round: 64,
        queries_per_round: 1,
        preload_rows: 0,
    },
    Spec {
        name: "ingest_durable",
        backend: Backend::Random,
        durable: true,
        window: false,
        rows: 4096,
        tenants_per_client: 8,
        inserts_per_round: 64,
        queries_per_round: 1,
        preload_rows: 0,
    },
    Spec {
        name: "query_mix",
        backend: Backend::Random,
        durable: false,
        window: false,
        rows: 256,
        tenants_per_client: 1,
        inserts_per_round: 1,
        queries_per_round: 4,
        preload_rows: 1 << 21,
    },
    Spec {
        name: "turnstile_mix",
        backend: Backend::Dcs,
        durable: false,
        window: false,
        rows: 4096,
        tenants_per_client: 1,
        inserts_per_round: 8,
        queries_per_round: 1,
        preload_rows: 0,
    },
    Spec {
        name: "window_mix",
        backend: Backend::Random,
        durable: false,
        window: true,
        rows: 1024,
        tenants_per_client: 1,
        inserts_per_round: 4,
        queries_per_round: 1,
        preload_rows: 0,
    },
];

impl Spec {
    pub fn requests_per_round(&self) -> u64 {
        self.inserts_per_round + self.queries_per_round
    }

    /// Tenant ids start at 1.
    pub fn tenant_ids(&self, client: usize) -> Vec<u64> {
        (0..self.tenants_per_client)
            .map(|t| (1 + client * self.tenants_per_client + t) as u64)
            .collect()
    }
}

/// Everything the clients will send, drawn from the seed.
pub struct Inputs {
    /// `[client][tenant]`: the pool slice that tenant cycles through.
    pub streams: Vec<Vec<Stream>>,
    /// `[client]`: what each of its tenants holds before the clock
    /// starts; empty when the workload preloads nothing.
    pub preloads: Vec<Stream>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let bound = 1u64 << LOG_U;
        let streams = (0..CLIENTS)
            .map(|c| {
                let pool = Stream::uniform(derive_seed(seed, 1 + c as u64), POOL, bound);
                pool.split(spec.tenants_per_client)
            })
            .collect();
        let preloads = (0..CLIENTS)
            .filter(|_| spec.preload_rows > 0)
            .map(|c| Stream::uniform(derive_seed(seed, 0x9e10ad + c as u64), POOL, bound))
            .collect();
        Self { streams, preloads }
    }
}

/// Rows per preload frame.
pub const PRELOAD_ROWS: usize = 4096;

/// Loads every tenant of a workload that preloads.
pub fn preload<T: Target>(spec: &Spec, inputs: &Inputs, target: &mut T) -> Result<(), String> {
    let frames = spec.preload_rows / PRELOAD_ROWS as u64;
    for (client, stream) in inputs.preloads.iter().enumerate() {
        for tenant in spec.tenant_ids(client) {
            for j in 0..frames {
                let ack = target.insert(j, tenant, stream.frame(j, PRELOAD_ROWS))?;
                if ack.n != (j + 1) * PRELOAD_ROWS as u64 {
                    return Err(format!("preload frame {j}: ack n {} is wrong", ack.n));
                }
            }
        }
    }
    Ok(())
}

/// What was acknowledged within one half-second slice of a phase.
#[derive(Debug, Default, Clone)]
pub struct SliceStats {
    pub rows: u64,
    pub insert_ns: Samples,
    pub query_ns: Samples,
}

/// What a client measured in one phase, by the slice in which each
/// request was answered. Requests answered after the last slice are not
/// counted.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub slices: Vec<SliceStats>,
}

impl PhaseStats {
    pub fn new(slices: usize) -> Self {
        Self {
            slices: vec![SliceStats::default(); slices],
        }
    }

    pub fn absorb(&mut self, other: &PhaseStats) {
        if self.slices.len() < other.slices.len() {
            self.slices
                .resize(other.slices.len(), SliceStats::default());
        }
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.rows += b.rows;
            a.insert_ns.extend(&b.insert_ns);
            a.query_ns.extend(&b.query_ns);
        }
    }

    fn slice_at(&mut self, phase_start: Instant, now: Instant) -> Option<&mut SliceStats> {
        let index = (now - phase_start).as_nanos() / SLICE.as_nanos();
        self.slices.get_mut(index as usize)
    }
}

/// The length of the slices a phase's measurements are kept by.
pub const SLICE: Duration = Duration::from_millis(500);

/// A sampled in-run `QUERY_MANY` answer, kept for checking against the
/// oracle once the clock has stopped.
struct QueryCheck {
    tenant: usize,
    rows_acked: u64,
    answer: (Vec<Option<u64>>, Vec<u64>),
}

/// Where one window frame could have landed: the clock's bucket when it
/// was sent and when it was acknowledged. Client 0 owns the clock, so
/// its two readings always agree.
#[derive(Debug, Clone, Copy)]
struct FrameLog {
    bucket_sent: u64,
    bucket_acked: u64,
    late: bool,
}

struct WindowCheck {
    /// Frames this client had sent when it asked.
    frames_sent: usize,
    span_buckets: u64,
    kind: WindowKind,
    bucket_sent: u64,
    bucket_acked: u64,
    answer: WindowAnswer,
}

/// At most this many in-run answers are kept per client for the
/// post-run oracle check.
const MAX_CHECKS: usize = 32;

/// Keeps an evenly spaced sample of a stream of unknown length: every
/// `stride`-th item, doubling the stride whenever the sample fills up.
struct Sampled<T> {
    stride: u64,
    seen: u64,
    items: Vec<T>,
}

impl<T> Sampled<T> {
    fn new() -> Self {
        Self {
            stride: 1,
            seen: 0,
            items: Vec::new(),
        }
    }

    fn offer(&mut self, item: T) {
        if self.seen.is_multiple_of(self.stride) {
            self.items.push(item);
            if self.items.len() == MAX_CHECKS {
                let mut keep = false;
                self.items.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }
}

/// One client's position in its request stream, and what it has been
/// told so far.
pub struct ClientRun<'a> {
    spec: &'a Spec,
    client: usize,
    streams: &'a [Stream],
    preload: Option<&'a Stream>,
    tenant_ids: Vec<u64>,
    clock: Option<&'a ManualClock>,
    frames: u64,
    rounds: u64,
    requests: u64,
    queries: u64,
    acked_rows: Vec<u64>,
    last_n: Vec<u64>,
    last_seq: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    checks: Sampled<QueryCheck>,
    frame_log: Vec<FrameLog>,
    window_checks: Sampled<WindowCheck>,
    late_rows: u64,
    on_time_rows: u64,
}

impl<'a> ClientRun<'a> {
    pub fn new(
        spec: &'a Spec,
        client: usize,
        inputs: &'a Inputs,
        clock: Option<&'a ManualClock>,
    ) -> Self {
        let tenant_ids = spec.tenant_ids(client);
        let tenants = tenant_ids.len();
        Self {
            spec,
            client,
            streams: &inputs.streams[client],
            preload: inputs.preloads.get(client),
            tenant_ids,
            clock,
            frames: 0,
            rounds: 0,
            requests: 0,
            queries: 0,
            acked_rows: vec![0; tenants],
            last_n: vec![spec.preload_rows; tenants],
            last_seq: vec![0; tenants],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            checks: Sampled::new(),
            frame_log: Vec::new(),
            window_checks: Sampled::new(),
            late_rows: 0,
            on_time_rows: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("client {}: {what}", self.client));
        }
    }

    fn request_id(&mut self) -> u64 {
        self.requests += 1;
        ((self.client as u64) << 40) | self.requests
    }

    fn bucket_now(&self) -> u64 {
        self.clock.map_or(0, |c| c.now_nanos() / BUCKET_NANOS)
    }

    /// Checks an ingest ack: the count must equal what this tenant was
    /// sent, preload included, and the WAL sequence must be 0 in memory
    /// and increasing when durable.
    fn check_ack(&mut self, tenant: usize, rows: u64, ack: IngestAck) {
        self.acked_rows[tenant] += rows;
        let ok_n = ack.n == self.spec.preload_rows + self.acked_rows[tenant];
        let ok_seq = if self.spec.durable {
            ack.seq > self.last_seq[tenant]
        } else {
            ack.seq == 0
        };
        if !(ok_n && ok_seq) {
            self.fail(format!(
                "ack (n {}, seq {}) after {} rows, previous (n {}, seq {})",
                ack.n, ack.seq, self.acked_rows[tenant], self.last_n[tenant], self.last_seq[tenant]
            ));
        }
        self.last_n[tenant] = ack.n;
        self.last_seq[tenant] = ack.seq;
    }

    /// One pass of the client's loop: the inserts, then the queries.
    pub fn round<T: Target>(
        &mut self,
        target: &mut T,
        phase_start: Instant,
        stats: &mut PhaseStats,
    ) {
        let tenants = self.tenant_ids.len() as u64;
        for _ in 0..self.spec.inserts_per_round {
            let j = self.frames;
            let tenant = (j % tenants) as usize;
            let xs = self.streams[tenant].frame(j / tenants, self.spec.rows);
            let id = self.request_id();
            let began = Instant::now();
            let result = if self.spec.window {
                let late = j % LATE_EVERY == LATE_EVERY - 1;
                let bucket_sent = self.bucket_now();
                // On-time frames are stamped a retention span ahead:
                // event time is clamped to arrival time, so a clock that
                // moves while the frame is in flight cannot make it late.
                let ts_bucket = if late {
                    bucket_sent - 2
                } else {
                    bucket_sent + RETENTION_BUCKETS
                };
                let r =
                    target.window_insert(id, self.tenant_ids[tenant], ts_bucket * BUCKET_NANOS, xs);
                self.frame_log.push(FrameLog {
                    bucket_sent,
                    bucket_acked: self.bucket_now(),
                    late,
                });
                if late {
                    self.late_rows += xs.len() as u64;
                } else {
                    self.on_time_rows += xs.len() as u64;
                }
                r
            } else {
                target.insert(id, self.tenant_ids[tenant], xs)
            };
            let ended = Instant::now();
            self.frames += 1;
            self.attempted += 1;
            match result {
                Ok(ack) => {
                    self.check_ack(tenant, xs.len() as u64, ack);
                    if let Some(slice) = stats.slice_at(phase_start, ended) {
                        slice.rows += xs.len() as u64;
                        slice.insert_ns.push((ended - began).as_nanos() as u64);
                    }
                }
                Err(e) => self.fail(format!("insert frame {j}: {e}")),
            }
            if self.client == 0 && self.frames.is_multiple_of(FRAMES_PER_BUCKET) {
                if let Some(manual) = self.clock {
                    manual.advance(BUCKET_NANOS);
                }
            }
        }
        for q in 0..self.spec.queries_per_round {
            let tenant = ((self.rounds + q) % tenants) as usize;
            let id = self.request_id();
            self.attempted += 1;
            self.queries += 1;
            let began = Instant::now();
            let ok = if self.spec.window {
                self.window_query(target, id, tenant)
            } else {
                self.query(target, id, tenant)
            };
            let ended = Instant::now();
            if let (true, Some(slice)) = (ok, stats.slice_at(phase_start, ended)) {
                slice.query_ns.push((ended - began).as_nanos() as u64);
            }
        }
        self.rounds += 1;
    }

    fn query<T: Target>(&mut self, target: &mut T, id: u64, tenant: usize) -> bool {
        match target.query_many(id, self.tenant_ids[tenant], &QUERY_PHIS, &QUERY_RANKS) {
            Ok(answer) => {
                let shaped = answer.0.len() == QUERY_PHIS.len()
                    && answer.1.len() == QUERY_RANKS.len()
                    && answer.0.iter().all(Option::is_some)
                    && answer.0.windows(2).all(|w| w[0] <= w[1])
                    && answer.1.windows(2).all(|w| w[0] <= w[1]);
                if !shaped {
                    self.fail(format!("query_many answer is malformed: {answer:?}"));
                    return false;
                }
                let rows_acked = self.acked_rows[tenant];
                self.checks.offer(QueryCheck {
                    tenant,
                    rows_acked,
                    answer,
                });
                true
            }
            Err(e) => {
                self.fail(format!("query_many: {e}"));
                false
            }
        }
    }

    fn window_query<T: Target>(&mut self, target: &mut T, id: u64, tenant: usize) -> bool {
        let (kind, span_buckets) = WINDOW_SPANS[(self.queries % 3) as usize];
        let spec = WindowSpec {
            kind,
            len_nanos: span_buckets * BUCKET_NANOS,
        };
        let bucket_sent = self.bucket_now();
        match target.window_query(id, self.tenant_ids[tenant], spec, &WINDOW_PHIS) {
            Ok(answer) => {
                let bucket_acked = self.bucket_now();
                let frames_sent = self.frame_log.len();
                self.window_checks.offer(WindowCheck {
                    frames_sent,
                    span_buckets,
                    kind,
                    bucket_sent,
                    bucket_acked,
                    answer,
                });
                true
            }
            Err(e) => {
                self.fail(format!("window_query: {e}"));
                false
            }
        }
    }

    /// Runs rounds until `stop` is raised; rows acknowledged within
    /// the first `slices` slices after `phase_start` are counted by slice.
    pub fn drive<T: Target>(
        &mut self,
        target: &mut T,
        stop: &AtomicBool,
        phase_start: Instant,
        slices: usize,
    ) -> PhaseStats {
        let mut stats = PhaseStats::new(slices);
        while !stop.load(Ordering::Relaxed) {
            self.round(target, phase_start, &mut stats);
        }
        stats
    }

    pub fn acked_rows(&self) -> &[u64] {
        &self.acked_rows
    }

    pub fn tenant_ids(&self) -> &[u64] {
        &self.tenant_ids
    }

    /// Rows this client stamped late / on time (window workloads).
    pub fn window_rows(&self) -> (u64, u64) {
        (self.late_rows, self.on_time_rows)
    }

    /// After the clock stopped: checks the sampled in-run answers, then
    /// sweeps every tenant this client wrote against the oracle.
    pub fn verify<T: Target>(&mut self, target: &mut T) {
        for check in std::mem::replace(&mut self.checks, Sampled::new()).items {
            self.attempted += 1;
            let oracle = self.oracle(check.tenant, check.rows_acked);
            let bound = EPS * oracle.n() as f64;
            let q_err = oracle.max_quantile_error(&QUERY_PHIS, &check.answer.0);
            let r_err = oracle.max_rank_error(&QUERY_RANKS, &check.answer.1);
            if q_err > bound || r_err > bound {
                self.fail(format!(
                    "in-run answer after {} rows: quantile error {q_err}, rank error {r_err}, bound {bound}",
                    check.rows_acked
                ));
            }
        }
        for check in std::mem::replace(&mut self.window_checks, Sampled::new()).items {
            self.attempted += 1;
            if let Err(e) = self.check_window_answer(&check) {
                self.fail(e);
            }
        }
        for tenant in 0..self.tenant_ids.len() {
            let oracle = self.oracle(tenant, self.acked_rows[tenant]);
            let id = self.tenant_ids[tenant];
            self.attempted += 1;
            if let Err(e) = sweep_tenant(target, id, &oracle) {
                self.fail(e);
            }
        }
    }

    /// What a tenant holds once `rows_acked` of this client's rows were
    /// acknowledged: those, and its preload.
    fn oracle(&self, tenant: usize, rows_acked: u64) -> Oracle<'a> {
        let mut sources = vec![(&self.streams[tenant], rows_acked)];
        if let Some(preload) = self.preload {
            sources.push((preload, self.spec.preload_rows));
        }
        Oracle { sources }
    }

    /// A window answer must cover a range that fits the clock readings
    /// around the query, hold exactly the on-time rows that arrived in
    /// that range, and rank within `ε·n` of them. Frames in flight while
    /// the other client moved the clock may fall on either side of an
    /// edge; their rows widen the tolerance (never for client 0).
    fn check_window_answer(&self, check: &WindowCheck) -> Result<(), String> {
        let a = &check.answer;
        let span = check.span_buckets;
        if !a.start_nanos.is_multiple_of(BUCKET_NANOS)
            || a.end_nanos != a.start_nanos + span * BUCKET_NANOS
        {
            return Err(format!(
                "window range [{}, {}) is not {span} buckets",
                a.start_nanos, a.end_nanos
            ));
        }
        let (lo, hi) = (a.start_nanos / BUCKET_NANOS, a.end_nanos / BUCKET_NANOS - 1);
        let fits = match check.kind {
            WindowKind::Sliding => (check.bucket_sent..=check.bucket_acked).contains(&hi),
            WindowKind::Tumbling => {
                lo % span == 0 && hi < check.bucket_acked && hi + span >= check.bucket_sent
            }
        };
        if !fits {
            return Err(format!(
                "window [{lo}, {hi}] does not fit clock readings {}..{}",
                check.bucket_sent, check.bucket_acked
            ));
        }
        let answers: Vec<u64> = a.answers.iter().flatten().copied().collect();
        if answers.len() != WINDOW_PHIS.len() {
            return Err("window answer has empty quantiles".to_owned());
        }
        let tenants = self.tenant_ids.len() as u64;
        let (mut sure_rows, mut maybe_rows) = (0u64, 0u64);
        let mut below = vec![(0u64, 0u64); answers.len()];
        // Frame log readings never decrease, so the covered frames are
        // one contiguous run.
        let first = self.frame_log.partition_point(|f| f.bucket_acked < lo);
        for (j, f) in self
            .frame_log
            .iter()
            .enumerate()
            .take(check.frames_sent)
            .skip(first)
        {
            if f.bucket_sent > hi {
                break;
            }
            if f.late {
                continue;
            }
            let rows = self.streams[(j as u64 % tenants) as usize]
                .frame(j as u64 / tenants, self.spec.rows);
            if f.bucket_sent >= lo && f.bucket_acked <= hi {
                sure_rows += rows.len() as u64;
                for (b, &x) in below.iter_mut().zip(&answers) {
                    b.0 += rows.iter().filter(|&&v| v < x).count() as u64;
                    b.1 += rows.iter().filter(|&&v| v <= x).count() as u64;
                }
            } else {
                maybe_rows += rows.len() as u64;
            }
        }
        if a.n < sure_rows || a.n > sure_rows + maybe_rows {
            return Err(format!(
                "window [{lo}, {hi}] reports n {} but {sure_rows} (+{maybe_rows} in flight) rows arrived in it",
                a.n
            ));
        }
        let bound = EPS * a.n as f64 + maybe_rows as f64;
        for ((&phi, &(lt, le)), &x) in WINDOW_PHIS.iter().zip(&below).zip(&answers) {
            let err = interval_distance(phi * a.n as f64, lt, le);
            if err > bound {
                return Err(format!(
                    "window [{lo}, {hi}] phi {phi}: answer {x} is {err} rows off, bound {bound}"
                ));
            }
        }
        Ok(())
    }
}

/// The end-of-run check of one tenant: a 99-φ sweep and the rank
/// probes, each within `ε·n` of the oracle, on the expected count.
pub fn sweep_tenant<T: Target>(target: &mut T, tenant: u64, oracle: &Oracle) -> Result<(), String> {
    let phis = phi_grid();
    let (quantiles, ranks) = target.query_many(0, tenant, &phis, &QUERY_RANKS)?;
    let n = oracle.n();
    let bound = EPS * n as f64;
    let q_err = oracle.max_quantile_error(&phis, &quantiles);
    let r_err = oracle.max_rank_error(&QUERY_RANKS, &ranks);
    if q_err > bound || r_err > bound {
        return Err(format!(
            "tenant {tenant} sweep over {n} rows: quantile error {q_err}, rank error {r_err}, bound {bound}"
        ));
    }
    Ok(())
}
