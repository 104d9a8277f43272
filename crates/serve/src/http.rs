//! Hand-rolled HTTP/1.1 server over `std::net::TcpListener`.
//!
//! Deliberately small: request-per-connection (`Connection: close`), bodies
//! framed by `Content-Length`, responses framed by `Content-Length` except
//! the progress stream, which uses chunked transfer encoding.
//!
//! Nothing here polls. The accept thread blocks in `accept()` and hands each
//! connection to a thread of its own, so a request is answered when it
//! arrives and a silent client delays nobody. A progress stream sleeps on
//! the registry's condvar ([`Registry::wait_change`]) until its job has a
//! wave it has not sent or is terminal, and ends there or at its own 120 s
//! deadline — never at drain, because the drain finishes the job and the
//! stream owes its client the terminal line.
//!
//! "SIGTERM-style" drain works without signal handlers: a drain request
//! (programmatic or `POST /shutdown`) sets the registry's drain flag, which
//! stops admissions and wakes whoever sleeps in
//! [`ServerHandle::wait_drain_requested`]; [`ServerHandle::shutdown`] then
//! lets the workers finish the queue while reads are still answered, sets
//! `stopped`, wakes the accept thread with one loopback connection, and
//! joins workers and accept thread against a single deadline.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpcons_obs::jsonv::Value;

use crate::error::ServeError;
use crate::jobs::{JobView, Registry};
use crate::pool::{start_workers, CacheMode, Threads};
use crate::proto::{error_body, key_hex, parse_request, JobKind, Limits, PROTO};

/// Everything configuring one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (>= 1), each running one job at a time.
    pub workers: usize,
    pub cache: CacheMode,
    pub limits: Limits,
    /// Drain deadline on shutdown: how long queued/running jobs get to
    /// finish before [`ServerHandle::shutdown`] reports an unclean drain.
    pub drain_ms: u64,
}

/// Max terminal jobs retained for late pollers.
const REGISTRY_CAPACITY: usize = 1024;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache: CacheMode::Memory,
            limits: Limits::default(),
            drain_ms: 60_000,
        }
    }
}

struct Ctx {
    registry: Arc<Registry>,
    limits: Limits,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves threads running for the process
/// lifetime; call `shutdown` for the graceful drain contract.
pub struct ServerHandle {
    addr: SocketAddr,
    /// Read by the accept thread after every `accept()`.
    stopped: Arc<AtomicBool>,
    accept: Threads,
    workers: Threads,
    registry: Arc<Registry>,
    drain_ms: u64,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request the drain without joining — what `POST /shutdown` does.
    pub fn begin_shutdown(&self) {
        self.registry.request_drain();
    }

    /// Whether a drain was requested (by [`ServerHandle::begin_shutdown`] or
    /// a client's `POST /shutdown`).
    pub fn draining(&self) -> bool {
        self.registry.draining()
    }

    /// Sleep until a drain is requested. The daemon binary parks its main
    /// thread here, then runs the final drain-and-join.
    pub fn wait_drain_requested(&self) {
        self.registry.wait_drain_requested();
    }

    /// Graceful drain: stop admitting, let workers finish queued jobs, join
    /// everything within the configured deadline. `Ok(())` is the "server
    /// drains and exits 0" contract; an unclean drain is `Internal`.
    /// The server keeps answering reads (and 503ing submissions) until the
    /// workers have emptied the queue and exited; only then does the accept
    /// loop stop.
    pub fn shutdown(self) -> Result<(), ServeError> {
        self.begin_shutdown();
        let until = Instant::now() + Duration::from_millis(self.drain_ms);
        let clean = self.workers.join_until(until);
        self.stopped.store(true, Ordering::SeqCst);
        // The accept thread looks at `stopped` when `accept()` returns: give
        // it a connection. A wildcard bind is reached through loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        // Left detached if it is not out by the deadline; the verdict is
        // about the jobs.
        self.accept.join_until(until);
        if clean {
            Ok(())
        } else {
            Err(ServeError::internal(format!(
                "drain deadline ({} ms) expired with jobs still running",
                self.drain_ms
            )))
        }
    }

    /// True once every admitted job reached a terminal state.
    pub fn idle(&self) -> bool {
        self.registry.idle()
    }
}

/// Bind, spawn the worker pool and the accept loop, and return immediately.
pub fn serve(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| ServeError::internal(format!("bind {}: {e}", cfg.addr)))?;
    let addr =
        listener.local_addr().map_err(|e| ServeError::internal(format!("local_addr: {e}")))?;

    let registry = Arc::new(Registry::new(REGISTRY_CAPACITY));
    let workers = start_workers(cfg.workers, &registry, &cfg.cache);
    let stopped = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(Ctx { registry: registry.clone(), limits: cfg.limits.clone() });

    let accept_stopped = stopped.clone();
    let mut accept = Threads::new();
    accept
        .spawn("dpcons-serve-accept".to_string(), move || loop {
            let conn = listener.accept();
            if accept_stopped.load(Ordering::SeqCst) {
                return;
            }
            match conn {
                Ok((stream, _)) => {
                    let ctx = ctx.clone();
                    let _ = std::thread::Builder::new()
                        .name("dpcons-serve-conn".to_string())
                        .spawn(move || handle_conn(stream, &ctx));
                }
                // An aborted handshake, or descriptors exhausted until some
                // connection thread finishes: let those run, then retry.
                Err(_) => std::thread::yield_now(),
            }
        })
        .map_err(|e| ServeError::internal(format!("spawn accept thread: {e}")))?;

    Ok(ServerHandle { addr, stopped, accept, workers, registry, drain_ms: cfg.drain_ms })
}

fn handle_conn(stream: TcpStream, ctx: &Ctx) {
    let began = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let Some((method, path, body)) = read_request(&mut reader) else {
        let mut stream = stream;
        let err = ServeError::usage("unreadable HTTP request");
        let _ = write_json(&mut stream, err.class.http_status(), &error_body(&err));
        return;
    };
    dpcons_obs::counter("serve.requests").inc();
    let mut stream = stream;
    route(&mut stream, ctx, &method, &path, &body);
    dpcons_obs::histogram("serve.request_us").record(began.elapsed().as_micros() as u64);
}

/// Bound on a request's line plus headers. Requests are tiny; a head that
/// has not ended by here (one endless header line, or headers without end)
/// is refused as unreadable instead of growing a buffer or looping forever.
pub const MAX_REQUEST_HEAD_BYTES: u64 = 16 * 1024;

/// Read one request: request line, headers, `Content-Length`-framed body.
/// `None` when the request is malformed, truncated, or its head exceeds
/// [`MAX_REQUEST_HEAD_BYTES`].
fn read_request(reader: &mut BufReader<TcpStream>) -> Option<(String, String, String)> {
    let mut head = reader.by_ref().take(MAX_REQUEST_HEAD_BYTES);
    // A line is whole only with its newline: EOF or the head bound cuts it.
    let mut next_line = || {
        let mut line = String::new();
        head.read_line(&mut line).ok()?;
        line.ends_with('\n').then_some(line)
    };
    let line = next_line()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    loop {
        let h = next_line()?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > 1 << 20 {
        return None; // refuse megabyte bodies; requests are tiny
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((method, path, String::from_utf8(body).ok()?))
}

fn route(stream: &mut TcpStream, ctx: &Ctx, method: &str, path: &str, body: &str) {
    match (method, path) {
        ("GET", "/healthz") => {
            let mut o = BTreeMap::new();
            o.insert("proto".to_string(), Value::Str(PROTO.to_string()));
            o.insert("ok".to_string(), Value::Bool(true));
            o.insert("draining".to_string(), Value::Bool(ctx.registry.draining()));
            let _ = write_json(stream, (200, "OK"), &Value::Obj(o));
        }
        ("GET", "/metrics") => {
            let table = dpcons_obs::render_metrics_table();
            let _ = write_text(stream, (200, "OK"), "text/plain; charset=utf-8", &table);
        }
        ("POST", "/tune") => submit(stream, ctx, JobKind::Tune, body),
        ("POST", "/fleet") => submit(stream, ctx, JobKind::Fleet, body),
        ("POST", "/shutdown") => {
            ctx.registry.request_drain();
            let mut o = BTreeMap::new();
            o.insert("proto".to_string(), Value::Str(PROTO.to_string()));
            o.insert("draining".to_string(), Value::Bool(true));
            let _ = write_json(stream, (200, "OK"), &Value::Obj(o));
        }
        ("GET", p) if p.starts_with("/jobs/") => jobs_route(stream, ctx, p),
        _ => {
            let err = ServeError::not_found(format!("no route for {method} {path}"));
            let _ = write_json(stream, err.class.http_status(), &error_body(&err));
        }
    }
}

fn submit(stream: &mut TcpStream, ctx: &Ctx, kind: JobKind, body: &str) {
    // The registry decides admission, the drain included, under one lock.
    let admitted = parse_request(kind, body, &ctx.limits)
        .and_then(|spec| Ok((spec.key, ctx.registry.submit(spec)?)));
    let (key, admission) = match admitted {
        Ok(admitted) => admitted,
        Err(err) => {
            let _ = write_json(stream, err.class.http_status(), &error_body(&err));
            return;
        }
    };
    let mut o = BTreeMap::new();
    o.insert("proto".to_string(), Value::Str(PROTO.to_string()));
    o.insert("job".to_string(), Value::Num(admission.id as f64));
    o.insert("key".to_string(), Value::Str(key_hex(key)));
    o.insert("deduped".to_string(), Value::Bool(admission.deduped));
    o.insert("status".to_string(), Value::Str(admission.state.as_str().to_string()));
    let _ = write_json(stream, (202, "Accepted"), &Value::Obj(o));
}

fn jobs_route(stream: &mut TcpStream, ctx: &Ctx, path: &str) {
    let rest = &path["/jobs/".len()..];
    let (id_str, want_stream) = match rest.strip_suffix("/stream") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        let err = ServeError::usage(format!("job id `{id_str}` is not an integer"));
        let _ = write_json(stream, err.class.http_status(), &error_body(&err));
        return;
    };
    if ctx.registry.view(id).is_none() {
        let err = ServeError::not_found(format!("no job {id}"));
        let _ = write_json(stream, err.class.http_status(), &error_body(&err));
        return;
    }
    if want_stream {
        stream_job(stream, ctx, id);
    } else if let Some(view) = ctx.registry.view(id) {
        let _ = write_json(stream, (200, "OK"), &job_json(&view));
    }
}

/// Render the full job view.
fn job_json(view: &JobView) -> Value {
    let mut o = BTreeMap::new();
    o.insert("proto".to_string(), Value::Str(PROTO.to_string()));
    o.insert("job".to_string(), Value::Num(view.id as f64));
    o.insert("kind".to_string(), Value::Str(view.spec.kind.as_str().to_string()));
    o.insert("app".to_string(), Value::Str(view.spec.app.clone()));
    o.insert(
        "devices".to_string(),
        Value::Arr(view.spec.devices.iter().map(|d| Value::Str(d.name.clone())).collect()),
    );
    o.insert("key".to_string(), Value::Str(key_hex(view.spec.key)));
    o.insert("status".to_string(), Value::Str(view.state.as_str().to_string()));
    o.insert("clients".to_string(), Value::Num(view.clients as f64));
    o.insert("waves".to_string(), Value::Arr(view.waves.iter().map(wave_json).collect()));
    if let Some(result) = &view.result {
        o.insert("result".to_string(), result.clone());
    }
    if let Some(err) = &view.error {
        let mut e = BTreeMap::new();
        e.insert("code".to_string(), Value::Str(err.class.code().to_string()));
        e.insert("message".to_string(), Value::Str(err.message.clone()));
        o.insert("error".to_string(), Value::Obj(e));
    }
    Value::Obj(o)
}

fn wave_json(p: &dpcons_tune::WaveProgress) -> Value {
    let mut w = BTreeMap::new();
    w.insert("wave".to_string(), Value::Num(p.wave as f64));
    w.insert("evaluated".to_string(), Value::Num(p.evaluated as f64));
    w.insert("evaluated_total".to_string(), Value::Num(p.evaluated_total as f64));
    w.insert("planned".to_string(), Value::Num(p.planned as f64));
    w.insert("improved".to_string(), Value::Bool(p.improved));
    Value::Obj(w)
}

/// Chunked-transfer progress stream: one JSON line per wave as it lands,
/// then a final `{"status": ...}` line once the job is terminal. Ends
/// without that line only at its own deadline or if the job is evicted.
fn stream_job(stream: &mut TcpStream, ctx: &Ctx, id: u64) {
    let head = "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut sent = 0usize;
    let deadline = Instant::now() + Duration::from_secs(120);
    while let Some(view) = ctx.registry.wait_change(id, sent, deadline) {
        for p in &view.waves[sent..] {
            if write_chunk(stream, &(wave_json(p).render() + "\n")).is_err() {
                return;
            }
        }
        sent = view.waves.len();
        if view.state.terminal() {
            let mut o = BTreeMap::new();
            o.insert("status".to_string(), Value::Str(view.state.as_str().to_string()));
            if let Some(err) = &view.error {
                o.insert("error".to_string(), Value::Str(err.message.clone()));
            }
            let _ = write_chunk(stream, &(Value::Obj(o).render() + "\n"));
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let _ = stream.write_all(b"0\r\n\r\n");
}

fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n{data}\r\n", data.len())
}

fn write_json(stream: &mut TcpStream, status: (u16, &str), body: &Value) -> std::io::Result<()> {
    write_text(stream, status, "application/json", &body.render())
}

fn write_text(
    stream: &mut TcpStream,
    (code, reason): (u16, &str),
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}
