//! Daemon API coverage: typed 4xx errors, progress streaming, metrics,
//! fault-injected jobs failing without killing the server, the
//! drain-on-shutdown lifecycle, and the waits being waits: nothing a client
//! does costs a poll interval, and nothing blocks shutdown.
//!
//! `tune::fault` installs a process-global plan, so the tests serialize on
//! one mutex (the same discipline as `crates/tune/tests/fault_injection.rs`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dpcons_serve::pool::CacheMode;
use dpcons_serve::{serve, Client, ErrorClass, ServerConfig};
use dpcons_tune::fault::{self, FaultPlan};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn start() -> (dpcons_serve::ServerHandle, Client) {
    let handle =
        serve(ServerConfig { workers: 2, cache: CacheMode::Off, ..ServerConfig::default() })
            .expect("server starts");
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

#[test]
fn bad_requests_get_typed_4xx_errors() {
    let _guard = serialize();
    let (handle, client) = start();

    let cases: Vec<(&str, &str, ErrorClass)> = vec![
        ("tune", "{definitely not json", ErrorClass::Usage),
        ("tune", r#"{"device":"k20c"}"#, ErrorClass::Usage),
        ("tune", r#"{"app":"SSSP","device":"gtx9000"}"#, ErrorClass::Invalid),
        ("tune", r#"{"app":"NotAnApp","device":"k20c"}"#, ErrorClass::Invalid),
        ("tune", r#"{"app":"SSSP","device":"k20c","budget":{"max_evals":0}}"#, ErrorClass::Invalid),
        (
            "tune",
            r#"{"app":"SSSP","device":"k20c","budget":{"max_evals":5000}}"#,
            ErrorClass::OverBudget,
        ),
        ("fleet", r#"{"app":"SSSP","devices":["k20c","warpdrive"]}"#, ErrorClass::Invalid),
        ("fleet", r#"{"app":"SSSP"}"#, ErrorClass::Usage),
    ];
    for (endpoint, body_text, want) in cases {
        // Post the raw text so the *server's* validation classifies it —
        // including the bodies that are not JSON at all.
        let err = client.post_raw(&format!("/{endpoint}"), body_text).unwrap_err();
        assert_eq!(err.class, want, "{endpoint} {body_text} -> {err}");
        assert_eq!(err.class.http_status().0 / 100, 4, "caller errors are 4xx");
    }

    // Unknown job and unknown route are 404s.
    let err = client.job(99_999).unwrap_err();
    assert_eq!(err.class, ErrorClass::NotFound);
    let err = client.stream_lines(99_999).unwrap_err();
    assert_eq!(err.class, ErrorClass::NotFound);

    handle.shutdown().expect("clean drain");
}

#[test]
fn jobs_stream_progress_and_feed_metrics() {
    let _guard = serialize();
    let (handle, client) = start();

    let body = Client::tune_body("SSSP", "k20c", 8);
    let sub = client.submit("tune", &body).unwrap();
    let view = client.wait(sub.job, Duration::from_secs(120)).unwrap();
    assert_eq!(view.get("status").and_then(|s| s.as_str()), Some("done"));
    let result = view.get("result").expect("done job carries a result");
    assert!(result.get("winner").and_then(|w| w.get("knobs")).is_some());
    assert_eq!(result.get("key").and_then(|k| k.as_str()), Some(sub.key.as_str()));

    // The job view recorded ordered waves summing to the evaluated count.
    let waves = view.get("waves").and_then(|w| w.as_arr()).unwrap();
    assert!(!waves.is_empty());
    let mut total = 0.0;
    for (i, w) in waves.iter().enumerate() {
        assert_eq!(w.get("wave").and_then(|v| v.as_num()), Some(i as f64));
        total += w.get("evaluated").and_then(|v| v.as_num()).unwrap();
    }
    let evaluated = result.get("evaluated").and_then(|v| v.as_num()).unwrap();
    let faulted = result.get("faulted").and_then(|v| v.as_num()).unwrap();
    assert_eq!(total, evaluated + faulted, "wave counts sum to evaluated candidates");

    // The stream endpoint replays the same waves as NDJSON and terminates
    // with the job's status.
    let lines = client.stream_lines(sub.job).unwrap();
    assert_eq!(lines.len(), waves.len() + 1, "one line per wave plus the status line");
    for (i, line) in lines[..waves.len()].iter().enumerate() {
        let w = dpcons_obs::jsonv::parse(line).unwrap();
        assert_eq!(w.get("wave").and_then(|v| v.as_num()), Some(i as f64));
    }
    let last = dpcons_obs::jsonv::parse(lines.last().unwrap()).unwrap();
    assert_eq!(last.get("status").and_then(|s| s.as_str()), Some("done"));

    // A second identical submission dedups onto the done job: instant done.
    let again = client.submit("tune", &body).unwrap();
    assert!(again.deduped);
    assert_eq!(again.job, sub.job);
    assert_eq!(again.status, "done");

    // So does a one-device `/fleet`: it is literally the `/tune` of that
    // device — same key, same job, no second sweep — and the one result
    // answers both in the singular and in the plural.
    let execs_before = dpcons_sim::functional_execs_total();
    let fleet = client.submit("fleet", &Client::fleet_body("SSSP", &["k20c"], 8)).unwrap();
    assert!(fleet.deduped, "a one-device fleet must dedup onto the finished tune");
    assert_eq!(
        (fleet.job, fleet.key.as_str(), fleet.status.as_str()),
        (sub.job, &*sub.key, "done")
    );
    assert_eq!(dpcons_sim::functional_execs_total(), execs_before, "no second sweep");
    let result = client.job(fleet.job).unwrap().get("result").cloned().unwrap();
    let winners = result.get("winners").and_then(|w| w.as_arr()).expect("winners array");
    assert_eq!(winners.len(), 1);
    assert_eq!(result.get("winner"), Some(&winners[0]));
    assert_eq!(result.get("device"), winners[0].get("device"));

    // /metrics renders the serve counters.
    let metrics = client.metrics().unwrap();
    for needle in [
        "serve.requests",
        "serve.jobs_done",
        "serve.deduped",
        "serve.queue_depth",
        "serve.request_us",
        "serve.queue_wait_us",
        "serve.job_us",
    ] {
        assert!(metrics.contains(needle), "/metrics missing {needle}:\n{metrics}");
    }

    handle.shutdown().expect("clean drain");
}

#[test]
fn fault_injected_job_fails_without_killing_the_server() {
    let _guard = serialize();
    let (handle, client) = start();

    // Every candidate evaluation panics: the sweep completes with no
    // feasible winner, the job reports `failed`, the server stays up.
    {
        let _scope = fault::install(FaultPlan { panic_rate: 1.0, ..FaultPlan::new(7) });
        let sub = client.submit("tune", &Client::tune_body("SSSP", "k20c", 8)).unwrap();
        let err = client.wait(sub.job, Duration::from_secs(120)).unwrap_err();
        assert_eq!(err.class, ErrorClass::Faulted, "{err}");
        let view = client.job(sub.job).unwrap();
        assert_eq!(view.get("status").and_then(|s| s.as_str()), Some("failed"));
    }

    // The plan is uninstalled; the same request now succeeds — proving both
    // that the server survived and that a failed job released its dedup key.
    assert!(client.healthz().is_ok(), "server must still answer after a failed job");
    let sub = client.submit("tune", &Client::tune_body("SSSP", "k20c", 8)).unwrap();
    assert!(!sub.deduped, "a failed job must not hold the dedup key");
    let view = client.wait(sub.job, Duration::from_secs(120)).unwrap();
    assert_eq!(view.get("status").and_then(|s| s.as_str()), Some("done"));

    handle.shutdown().expect("clean drain");
}

#[test]
fn draining_server_rejects_new_jobs_but_finishes_old_ones() {
    let _guard = serialize();
    let (handle, client) = start();

    let sub = client.submit("tune", &Client::tune_body("TH", "k20c", 4)).unwrap();
    client.shutdown_server().unwrap();

    // New submissions are refused while draining...
    let err = client.submit("tune", &Client::tune_body("TD", "k20c", 4)).unwrap_err();
    assert_eq!(err.class, ErrorClass::Unavailable);
    let health = client.healthz().unwrap();
    assert_eq!(health.get("draining"), Some(&dpcons_obs::jsonv::Value::Bool(true)));

    // ...but the already-admitted job still completes, a client that starts
    // waiting for it mid-drain gets its answer, and the drain is clean.
    let view = client.wait(sub.job, Duration::from_secs(120)).unwrap();
    assert_eq!(view.get("status").and_then(|s| s.as_str()), Some("done"));
    handle.shutdown().expect("drain finishes the queued job");
}

#[test]
fn a_stream_opened_before_the_drain_still_gets_its_terminal_line() {
    let _guard = serialize();
    let (handle, client) = start();

    // Every candidate stalls, so the job is still running when the drain
    // begins however fast the machine is.
    let _scope = fault::install(FaultPlan { delay_rate: 1.0, delay_ms: 100, ..FaultPlan::new(3) });
    let sub = client.submit("tune", &Client::tune_body("TH", "k20c", 8)).unwrap();

    // Open the stream by hand and read the status line: once it is here the
    // server is inside the stream, before the drain is requested.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write!(stream, "GET /jobs/{}/stream HTTP/1.1\r\ncontent-length: 0\r\n\r\n", sub.job).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    client.shutdown_server().unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("\"done\""),
        "the drain finished the job; its stream must say so:\n{rest}"
    );

    handle.shutdown().expect("clean drain");
}

#[test]
fn shutdown_right_after_serve_returns_and_closes_the_listener() {
    let _guard = serialize();
    for idle_client in [false, true] {
        let (handle, _client) = start();
        let addr = handle.addr();
        // A client that connected and never sent a byte must not matter.
        let _idle = idle_client.then(|| TcpStream::connect(addr).unwrap());
        let began = Instant::now();
        handle.shutdown().expect("nothing to drain");
        assert!(began.elapsed() < Duration::from_secs(5), "shutdown waited for its deadline");
        assert!(TcpStream::connect(addr).is_err(), "the accept thread is gone, and its listener");
    }
}

#[test]
fn requests_cost_no_poll_interval_and_a_silent_client_delays_nobody() {
    let _guard = serialize();
    let (handle, client) = start();

    // ~0.3 ms each on loopback; 10 ms each when accept slept between polls.
    let began = Instant::now();
    for _ in 0..20 {
        client.healthz().unwrap();
    }
    let took = began.elapsed();
    assert!(took < Duration::from_millis(100), "20 /healthz calls took {took:?}");

    // The server gives a request 10 s to arrive; that is the silent client's
    // wait, not its neighbour's.
    let _silent = TcpStream::connect(handle.addr()).unwrap();
    let began = Instant::now();
    client.healthz().unwrap();
    assert!(began.elapsed() < Duration::from_secs(1), "/healthz queued behind a silent client");

    handle.shutdown().expect("clean drain");
}
