//! A minimal blocking client for the quantile service.
//!
//! One [`Client`] wraps one TCP connection and speaks the framed
//! protocol from [`crate::proto`]. Methods are typed wrappers over
//! [`Client::call`]; a [`Status::Busy`] reply surfaces as
//! [`ClientError::Busy`] so callers can back off and reconnect (the
//! server closes a shed connection after the busy reply).

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{self, Op, ProtoError, Request, Response, Status};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server shed this connection under load; reconnect with
    /// backoff.
    Busy(String),
    /// The server executed the request and refused it.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy(msg) => write!(f, "server busy: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// One blocking connection to a quantile server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and applies `Nagle`-off plus the given socket
    /// timeouts to both directions.
    ///
    /// # Errors
    /// Propagates connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream })
    }

    /// One raw request/response exchange; the typed helpers below are
    /// usually what you want.
    ///
    /// # Errors
    /// [`ClientError::Busy`] on a shed connection, [`ClientError::Server`]
    /// on an error reply, [`ClientError::Proto`] on transport trouble.
    pub fn call(&mut self, op: Op, tenant: u64, payload: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        proto::write_request(
            &mut self.stream,
            &Request {
                op,
                tenant,
                payload,
            },
        )?;
        let Response { status, payload } = proto::read_response(&mut self.stream)?;
        match status {
            Status::Ok => Ok(payload),
            Status::Busy => Err(ClientError::Busy(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            Status::Err => Err(ClientError::Server(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
        }
    }

    /// Inserts a batch of values into the tenant's stream; the ack carries
    /// the tenant's total item count and, on durable servers, the WAL
    /// sequence number that made the batch crash-safe (`seq == 0` means
    /// the server runs in-memory).
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn insert_batch(
        &mut self,
        tenant: u64,
        xs: &[u64],
    ) -> Result<proto::IngestAck, ClientError> {
        let reply = self.call(Op::InsertBatch, tenant, proto::encode_u64s(xs))?;
        Ok(proto::decode_ingest_ack(&reply)?)
    }

    /// Queries one φ-quantile per entry of `phis` (each in (0, 1));
    /// `None` marks an empty stream. The φ half of
    /// [`Client::query_many`].
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn query_quantiles(
        &mut self,
        tenant: u64,
        phis: &[f64],
    ) -> Result<Vec<Option<u64>>, ClientError> {
        Ok(self.query_many(tenant, phis, &[])?.0)
    }

    /// Answers a φ-sweep *and* a rank sweep from one cut of the tenant
    /// in a single round trip: one quantile per entry of `phis` (each
    /// in (0, 1)) plus one estimated rank per entry of `xs`. Both
    /// answer vectors describe the same instant of the stream, which
    /// separate [`Client::query_quantiles`]/[`Client::query_rank`]
    /// calls cannot guarantee under concurrent ingest. Either side may
    /// be empty.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn query_many(
        &mut self,
        tenant: u64,
        phis: &[f64],
        xs: &[u64],
    ) -> Result<(Vec<Option<u64>>, Vec<u64>), ClientError> {
        let reply = self.call(Op::QueryMany, tenant, proto::encode_query_many(phis, xs))?;
        Ok(proto::decode_query_many_reply(&reply)?)
    }

    /// Estimated rank of `x` in the tenant's stream. The rank half of
    /// [`Client::query_many`], for one value.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn query_rank(&mut self, tenant: u64, x: u64) -> Result<u64, ClientError> {
        let (_, ranks) = self.query_many(tenant, &[], &[x])?;
        let rank = ranks.first().copied();
        rank.ok_or(ClientError::Proto(ProtoError::Malformed(
            "no rank in reply",
        )))
    }

    /// A portable snapshot of the tenant's merged summary — feed it to
    /// [`Client::merge_snapshot`] on any other server (or decode it
    /// locally with [`sqs_core::codec::WireCodec::from_bytes`]).
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn snapshot(&mut self, tenant: u64) -> Result<Vec<u8>, ClientError> {
        self.call(Op::Snapshot, tenant, Vec::new())
    }

    /// Merges a snapshot frame into the tenant's stream; the ack carries
    /// the tenant's total item count after the merge plus the durable
    /// WAL sequence number (`seq == 0` on in-memory servers).
    ///
    /// # Errors
    /// See [`Client::call`]; corrupt or incompatible frames come back
    /// as [`ClientError::Server`].
    pub fn merge_snapshot(
        &mut self,
        tenant: u64,
        frame: Vec<u8>,
    ) -> Result<proto::IngestAck, ClientError> {
        let reply = self.call(Op::MergeSnapshot, tenant, frame)?;
        Ok(proto::decode_ingest_ack(&reply)?)
    }

    /// The server's metrics snapshot as a JSON string.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let reply = self.call(Op::Stats, 0, Vec::new())?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// Asks the server to shut down gracefully; the `OK` reply arrives
    /// before the server stops accepting.
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Op::Shutdown, 0, Vec::new())?;
        Ok(())
    }

    /// Inserts a batch stamped with one event time into the tenant's
    /// window ring *and* all-time stream (requires a server started
    /// with `--window-bucket-secs`). The ack is the same as
    /// [`Client::insert_batch`]: all-time count plus WAL sequence.
    ///
    /// # Errors
    /// See [`Client::call`]; a window-less server refuses with
    /// [`ClientError::Server`].
    pub fn window_insert(
        &mut self,
        tenant: u64,
        ts_nanos: u64,
        xs: &[u64],
    ) -> Result<proto::IngestAck, ClientError> {
        let reply = self.call(
            Op::WindowInsert,
            tenant,
            proto::encode_window_insert(ts_nanos, xs),
        )?;
        Ok(proto::decode_ingest_ack(&reply)?)
    }

    /// Answers a sliding/tumbling window φ-sweep over the tenant's
    /// ring: the covered time range, the mass inside it, and one
    /// quantile per φ.
    ///
    /// # Errors
    /// See [`Client::call`]; a spec that does not fit the server's
    /// bucket width or retention comes back as [`ClientError::Server`].
    pub fn window_query(
        &mut self,
        tenant: u64,
        spec: sqs_window::WindowSpec,
        phis: &[f64],
    ) -> Result<sqs_window::WindowAnswer, ClientError> {
        let reply = self.call(
            Op::WindowQuery,
            tenant,
            proto::encode_window_query(spec, phis),
        )?;
        Ok(proto::decode_window_answer(&reply)?)
    }

    /// The tenant's window-ring counters (rotation, eviction, late
    /// arrivals, rollup and cache activity).
    ///
    /// # Errors
    /// See [`Client::call`].
    pub fn window_stats(&mut self, tenant: u64) -> Result<sqs_window::WindowStats, ClientError> {
        let reply = self.call(Op::WindowStats, tenant, Vec::new())?;
        Ok(proto::decode_window_stats(&reply)?)
    }
}
