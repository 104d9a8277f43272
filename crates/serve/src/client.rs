//! Minimal blocking client for the `dpcons-serve v1` protocol.
//!
//! One connection per request (the server is `Connection: close`), bodies
//! decoded from either `Content-Length` or chunked framing. Error responses
//! are surfaced as typed [`ServeError`]s by decoding the `error.code` field,
//! so callers branch on [`crate::ErrorClass`], not on strings.
//!
//! Waiting for a job is not polling: [`Client::wait`] reads the job's
//! progress stream, which the server ends the moment the job is terminal,
//! and then fetches the job view once. Each read of that stream is bounded
//! by the time left of the caller's timeout, so `wait` returns by then
//! whatever the job does.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dpcons_obs::jsonv::{parse, Value};

use crate::error::{ErrorClass, ServeError};
use crate::proto::PROTO;

/// Outcome of a submission.
#[derive(Debug, Clone)]
pub struct Submission {
    pub job: u64,
    pub key: String,
    pub deduped: bool,
    pub status: String,
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), timeout: Duration::from_secs(30) }
    }

    /// One HTTP exchange; returns (status, body). Every read waits up to the
    /// client's timeout.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ServeError> {
        self.exchange(method, path, body, None)
    }

    /// [`Client::request`], with every read bounded by the time left to
    /// `deadline` when there is one.
    fn exchange(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline: Option<Instant>,
    ) -> Result<(u16, String), ServeError> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| ServeError::internal(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        )
        .map_err(|e| ServeError::internal(format!("send: {e}")))?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| ServeError::internal(format!("read status: {e}")))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ServeError::internal(format!("bad status line {status_line:?}")))?;

        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let mut h = String::new();
            reader
                .read_line(&mut h)
                .map_err(|e| ServeError::internal(format!("read header: {e}")))?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value.parse().ok();
                } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
            }
        }
        let body = if chunked {
            read_chunked(&mut reader, deadline)?
        } else if let Some(n) = content_length {
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| ServeError::internal(format!("read body: {e}")))?;
            String::from_utf8(buf)
                .map_err(|_| ServeError::internal("response body is not UTF-8"))?
        } else {
            let mut buf = String::new();
            let _ = reader.read_to_string(&mut buf);
            buf
        };
        Ok((status, body))
    }

    /// Decode a JSON response; non-2xx responses with a protocol error body
    /// become typed [`ServeError`]s.
    fn request_json(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Value), ServeError> {
        let (status, text) = self.request(method, path, body)?;
        let v = parse(&text)
            .map_err(|e| ServeError::internal(format!("unparseable response body: {e}")))?;
        if status >= 400 {
            let class = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .and_then(ErrorClass::from_code)
                .unwrap_or(ErrorClass::Internal);
            let message = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("unknown server error")
                .to_string();
            return Err(ServeError::new(class, message));
        }
        Ok((status, v))
    }

    pub fn healthz(&self) -> Result<Value, ServeError> {
        Ok(self.request_json("GET", "/healthz", None)?.1)
    }

    /// POST an arbitrary (possibly malformed) body and get the typed error
    /// the server classified it as, or the parsed success body. Lets tests
    /// exercise the server's own JSON validation rather than the client's.
    pub fn post_raw(&self, path: &str, body: &str) -> Result<(u16, Value), ServeError> {
        self.request_json("POST", path, Some(body))
    }

    /// The raw `/metrics` table.
    pub fn metrics(&self) -> Result<String, ServeError> {
        let (status, text) = self.request("GET", "/metrics", None)?;
        if status != 200 {
            return Err(ServeError::internal(format!("/metrics returned {status}")));
        }
        Ok(text)
    }

    /// Submit to `POST /tune` or `POST /fleet` (`endpoint` without slash).
    pub fn submit(&self, endpoint: &str, body: &Value) -> Result<Submission, ServeError> {
        let path = format!("/{endpoint}");
        let (_, v) = self.request_json("POST", &path, Some(&body.render()))?;
        let job = v
            .get("job")
            .and_then(Value::as_num)
            .ok_or_else(|| ServeError::internal("submission response missing `job`"))?
            as u64;
        Ok(Submission {
            job,
            key: v.get("key").and_then(Value::as_str).unwrap_or_default().to_string(),
            deduped: v.get("deduped") == Some(&Value::Bool(true)),
            status: v.get("status").and_then(Value::as_str).unwrap_or_default().to_string(),
        })
    }

    /// Convenience body builder for a tune request.
    pub fn tune_body(app: &str, device: &str, max_evals: u64) -> Value {
        let mut b = BTreeMap::new();
        b.insert("max_evals".to_string(), Value::Num(max_evals as f64));
        let mut o = BTreeMap::new();
        o.insert("app".to_string(), Value::Str(app.to_string()));
        o.insert("device".to_string(), Value::Str(device.to_string()));
        o.insert("budget".to_string(), Value::Obj(b));
        Value::Obj(o)
    }

    /// Convenience body builder for a fleet request.
    pub fn fleet_body(app: &str, devices: &[&str], max_evals: u64) -> Value {
        let mut b = BTreeMap::new();
        b.insert("max_evals".to_string(), Value::Num(max_evals as f64));
        let mut o = BTreeMap::new();
        o.insert("app".to_string(), Value::Str(app.to_string()));
        o.insert(
            "devices".to_string(),
            Value::Arr(devices.iter().map(|d| Value::Str(d.to_string())).collect()),
        );
        o.insert("budget".to_string(), Value::Obj(b));
        Value::Obj(o)
    }

    /// Fetch the current job view.
    pub fn job(&self, id: u64) -> Result<Value, ServeError> {
        Ok(self.request_json("GET", &format!("/jobs/{id}"), None)?.1)
    }

    /// Block until the job is terminal (or `timeout`), returning the final
    /// job view. A `failed` job is returned as a typed `ServeError` carrying
    /// the job's error class.
    pub fn wait(&self, id: u64, timeout: Duration) -> Result<Value, ServeError> {
        let deadline = Instant::now() + timeout;
        loop {
            // The server ends the stream when the job is terminal. However it
            // ended — that, its own 120 s deadline, our deadline, a broken
            // connection — the view decides what happened to the job.
            let streamed =
                self.exchange("GET", &format!("/jobs/{id}/stream"), None, Some(deadline));
            let view = self.job(id)?;
            match view.get("status").and_then(Value::as_str) {
                Some("done") => return Ok(view),
                Some("failed") => {
                    let class = view
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str)
                        .and_then(ErrorClass::from_code)
                        .unwrap_or(ErrorClass::Faulted);
                    let message = view
                        .get("error")
                        .and_then(|e| e.get("message"))
                        .and_then(Value::as_str)
                        .unwrap_or("job failed")
                        .to_string();
                    return Err(ServeError::new(class, message));
                }
                _ => {}
            }
            if Instant::now() >= deadline {
                return Err(ServeError::internal(format!("job {id} still running at timeout")));
            }
            // A live job whose stream broke before our deadline: report that
            // rather than reconnect in a loop.
            streamed?;
        }
    }

    /// Consume the chunked progress stream, returning its NDJSON lines
    /// (wave events followed by the terminal status line).
    pub fn stream_lines(&self, id: u64) -> Result<Vec<String>, ServeError> {
        let (status, body) = self.request("GET", &format!("/jobs/{id}/stream"), None)?;
        if status == 404 {
            return Err(ServeError::not_found(format!("no job {id}")));
        }
        if status != 200 {
            return Err(ServeError::internal(format!("stream returned {status}")));
        }
        Ok(body.lines().map(str::to_string).collect())
    }

    /// Ask the server to begin draining.
    pub fn shutdown_server(&self) -> Result<(), ServeError> {
        self.request_json("POST", "/shutdown", None)?;
        Ok(())
    }
}

/// Decode a chunked transfer body to completion, each chunk waited for no
/// longer than until `deadline` when there is one.
fn read_chunked(
    reader: &mut BufReader<TcpStream>,
    deadline: Option<Instant>,
) -> Result<String, ServeError> {
    let mut out = Vec::new();
    loop {
        if let Some(deadline) = deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ServeError::internal("deadline passed mid-stream"));
            }
            let _ = reader.get_ref().set_read_timeout(Some(left));
        }
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| ServeError::internal(format!("read chunk size: {e}")))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| ServeError::internal(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            // Trailing CRLF after the last chunk (optional trailers ignored).
            let mut end = String::new();
            let _ = reader.read_line(&mut end);
            break;
        }
        let mut chunk = vec![0u8; size + 2]; // data + CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| ServeError::internal(format!("read chunk: {e}")))?;
        chunk.truncate(size);
        out.extend_from_slice(&chunk);
    }
    String::from_utf8(out).map_err(|_| ServeError::internal("chunked body is not UTF-8"))
}

/// A marker so `PROTO` is re-checkable from client code.
pub fn proto() -> &'static str {
    PROTO
}
