//! The two things a workload's request stream can be sent to: the
//! server over a socket, or — in a traced run — an in-process twin that
//! makes the same public calls `sqs_service::server` makes for each
//! request, in the same order, with one span around each call.

use std::collections::HashMap;
use std::sync::Arc;

use sqs_core::codec::WireCodec;
use sqs_core::MergeableSummary;
use sqs_engine::ShardedEngine;
use sqs_service::proto::{self, IngestAck, Op, Request, Response, Status};
use sqs_service::server::{ServerConfig, WindowOptions};
use sqs_service::Client;
use sqs_store::DurableStore;
use sqs_window::{WindowAnswer, WindowSpec, WindowedEngine};

use crate::trace::Recorder;

/// One φ-sweep and rank-sweep answer.
pub type ManyAnswer = (Vec<Option<u64>>, Vec<u64>);

/// The requests the workloads send. `request` identifies the request in
/// the trace; the socket ignores it.
pub trait Target {
    fn insert(&mut self, request: u64, tenant: u64, xs: &[u64]) -> Result<IngestAck, String>;
    fn query_many(
        &mut self,
        request: u64,
        tenant: u64,
        phis: &[f64],
        xs: &[u64],
    ) -> Result<ManyAnswer, String>;
    fn window_insert(
        &mut self,
        request: u64,
        tenant: u64,
        ts_nanos: u64,
        xs: &[u64],
    ) -> Result<IngestAck, String>;
    fn window_query(
        &mut self,
        request: u64,
        tenant: u64,
        spec: WindowSpec,
        phis: &[f64],
    ) -> Result<WindowAnswer, String>;
}

impl Target for Client {
    fn insert(&mut self, _: u64, tenant: u64, xs: &[u64]) -> Result<IngestAck, String> {
        self.insert_batch(tenant, xs).map_err(|e| e.to_string())
    }

    fn query_many(
        &mut self,
        _: u64,
        tenant: u64,
        phis: &[f64],
        xs: &[u64],
    ) -> Result<ManyAnswer, String> {
        Client::query_many(self, tenant, phis, xs).map_err(|e| e.to_string())
    }

    fn window_insert(
        &mut self,
        _: u64,
        tenant: u64,
        ts_nanos: u64,
        xs: &[u64],
    ) -> Result<IngestAck, String> {
        Client::window_insert(self, tenant, ts_nanos, xs).map_err(|e| e.to_string())
    }

    fn window_query(
        &mut self,
        _: u64,
        tenant: u64,
        spec: WindowSpec,
        phis: &[f64],
    ) -> Result<WindowAnswer, String> {
        Client::window_query(self, tenant, spec, phis).map_err(|e| e.to_string())
    }
}

/// Shard-index offset the server uses for window-bucket summaries
/// (`server.rs`, `WINDOW_FACTORY_SHARD_BASE`).
const WINDOW_FACTORY_SHARD_BASE: usize = 1 << 20;

type Factory<S> = Arc<dyn Fn(u64, usize) -> S + Send + Sync>;

/// The server's request path without its sockets, queue and threads.
pub struct Twin<S> {
    shards: usize,
    batch_capacity: usize,
    value_bound: Option<u64>,
    window: Option<WindowOptions>,
    factory: Factory<S>,
    engines: HashMap<u64, Arc<ShardedEngine<u64, S>>>,
    windows: HashMap<u64, WindowedEngine<S>>,
    store: Option<DurableStore>,
    pub rec: Recorder,
}

impl<S> Twin<S>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    pub fn new(
        cfg: &ServerConfig,
        factory: impl Fn(u64, usize) -> S + Send + Sync + 'static,
        store: Option<DurableStore>,
    ) -> Self {
        Self {
            shards: cfg.shards,
            batch_capacity: cfg.batch_capacity,
            value_bound: cfg.value_bound,
            window: cfg.window.clone(),
            factory: Arc::new(factory),
            engines: HashMap::new(),
            windows: HashMap::new(),
            store,
            rec: Recorder::new(false),
        }
    }

    fn engine(&mut self, tenant: u64) -> Arc<ShardedEngine<u64, S>> {
        let (shards, cap, factory) = (self.shards, self.batch_capacity, &self.factory);
        Arc::clone(self.engines.entry(tenant).or_insert_with(|| {
            Arc::new(ShardedEngine::new_with(shards, cap, |shard| {
                factory(tenant, shard)
            }))
        }))
    }

    fn ensure_window(&mut self, tenant: u64) -> Result<(), String> {
        if self.windows.contains_key(&tenant) {
            return Ok(());
        }
        let opts = self.window.clone().ok_or("windowing disabled")?;
        let engine = self.engine(tenant);
        let factory = Arc::clone(&self.factory);
        self.windows.insert(
            tenant,
            WindowedEngine::new(engine, opts.config, opts.clock, move |bucket| {
                let slot = usize::try_from(bucket % 1021).unwrap_or(0);
                factory(tenant, WINDOW_FACTORY_SHARD_BASE + slot)
            }),
        );
        Ok(())
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.rec.enter(name, request);
        let out = f(self);
        self.rec.exit();
        out
    }

    /// Builds the request frame as `Client::call` does, then parses it
    /// as the server's `read_request` does.
    fn over_the_wire(
        &mut self,
        request: u64,
        op: Op,
        tenant: u64,
        encode: impl FnOnce() -> Vec<u8>,
    ) -> Result<Request, String> {
        let wire = self.span("service.encode_request", request, |_| {
            let mut wire = Vec::new();
            let req = Request {
                op,
                tenant,
                payload: encode(),
            };
            proto::write_request(&mut wire, &req).map(|()| wire)
        });
        let wire = wire.map_err(|e| e.to_string())?;
        self.span("service.read_request", request, |_| {
            proto::read_request(&mut wire.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "empty request frame".to_owned())
        })
    }

    /// Writes the reply frame as the server does, then reads it as
    /// `Client::call` does, and decodes the payload.
    fn reply<R>(
        &mut self,
        request: u64,
        payload: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<R, proto::ProtoError>,
    ) -> Result<R, String> {
        let wire = self.span("service.encode_reply", request, |_| {
            let mut wire = Vec::new();
            let resp = Response {
                status: Status::Ok,
                payload: payload(),
            };
            proto::write_response(&mut wire, &resp).map(|()| wire)
        });
        let wire = wire.map_err(|e| e.to_string())?;
        self.span("service.decode_reply", request, |_| {
            let resp = proto::read_response(&mut wire.as_slice()).map_err(|e| e.to_string())?;
            decode(&resp.payload).map_err(|e| e.to_string())
        })
    }

    /// WAL append (durable only) and engine fold under the tenant gate,
    /// as `dispatch` does for `INSERT_BATCH` and `WINDOW_INSERT`.
    fn log_and_ingest(
        &mut self,
        request: u64,
        tenant: u64,
        xs: &[u64],
    ) -> Result<IngestAck, String> {
        if let Some(bound) = self.value_bound {
            if let Some(bad) = xs.iter().find(|&&x| x >= bound) {
                return Err(format!("value {bad} outside [0, {bound})"));
            }
        }
        let engine = self.engine(tenant);
        let handle = self.store.as_ref().map(|store| store.tenant(tenant));
        let _gate = handle.as_ref().map(sqs_store::TenantHandle::lock);
        let seq = match self.store.is_some() {
            true => self.span("store.append_batch", request, |t| {
                let store = t.store.as_ref().expect("checked above");
                store.append_batch(tenant, xs).map_err(|e| e.to_string())
            })?,
            false => 0,
        };
        self.span("engine.ingest_batch", request, |_| engine.ingest_batch(xs));
        Ok(IngestAck { n: engine.n(), seq })
    }
}

impl<S> Target for Twin<S>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    fn insert(&mut self, request: u64, tenant: u64, xs: &[u64]) -> Result<IngestAck, String> {
        self.span("request.insert", request, |t| {
            let req =
                t.over_the_wire(request, Op::InsertBatch, tenant, || proto::encode_u64s(xs))?;
            let xs = t
                .span("service.decode_payload", request, |_| {
                    proto::decode_u64s(&req.payload)
                })
                .map_err(|e| e.to_string())?;
            let ack = t.log_and_ingest(request, req.tenant, &xs)?;
            t.reply(
                request,
                || proto::encode_ingest_ack(ack),
                proto::decode_ingest_ack,
            )
        })
    }

    fn query_many(
        &mut self,
        request: u64,
        tenant: u64,
        phis: &[f64],
        xs: &[u64],
    ) -> Result<ManyAnswer, String> {
        self.span("request.query", request, |t| {
            let req = t.over_the_wire(request, Op::QueryMany, tenant, || {
                proto::encode_query_many(phis, xs)
            })?;
            let (phis, xs) = t
                .span("service.decode_payload", request, |_| {
                    proto::decode_query_many(&req.payload)
                })
                .map_err(|e| e.to_string())?;
            let engine = t.engine(req.tenant);
            let (quantiles, ranks) = t.span("engine.query_many", request, |_| {
                engine.query_many(&phis, &xs)
            });
            t.reply(
                request,
                || proto::encode_query_many_reply(&quantiles, &ranks),
                proto::decode_query_many_reply,
            )
        })
    }

    fn window_insert(
        &mut self,
        request: u64,
        tenant: u64,
        ts_nanos: u64,
        xs: &[u64],
    ) -> Result<IngestAck, String> {
        self.span("request.insert", request, |t| {
            let req = t.over_the_wire(request, Op::WindowInsert, tenant, || {
                proto::encode_window_insert(ts_nanos, xs)
            })?;
            let (ts_nanos, xs) = t
                .span("service.decode_payload", request, |_| {
                    proto::decode_window_insert(&req.payload)
                })
                .map_err(|e| e.to_string())?;
            t.ensure_window(req.tenant)?;
            let ack = t.log_and_ingest(request, req.tenant, &xs)?;
            t.span("window.ingest", request, |t| {
                t.windows[&req.tenant].ingest_window_only(ts_nanos, &xs)
            });
            t.reply(
                request,
                || proto::encode_ingest_ack(ack),
                proto::decode_ingest_ack,
            )
        })
    }

    fn window_query(
        &mut self,
        request: u64,
        tenant: u64,
        spec: WindowSpec,
        phis: &[f64],
    ) -> Result<WindowAnswer, String> {
        self.span("request.query", request, |t| {
            let req = t.over_the_wire(request, Op::WindowQuery, tenant, || {
                proto::encode_window_query(spec, phis)
            })?;
            let (spec, phis) = t
                .span("service.decode_payload", request, |_| {
                    proto::decode_window_query(&req.payload)
                })
                .map_err(|e| e.to_string())?;
            t.ensure_window(req.tenant)?;
            let answer = t
                .span("window.query", request, |t| {
                    t.windows[&req.tenant].query(spec, &phis)
                })
                .map_err(|e| e.to_string())?;
            t.reply(
                request,
                || proto::encode_window_answer(&answer),
                proto::decode_window_answer,
            )
        })
    }
}
