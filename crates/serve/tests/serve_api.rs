//! Daemon API coverage: typed 4xx errors, progress streaming, metrics, a
//! faulted job failing without killing the server, the drain-on-shutdown
//! lifecycle, and the waits being waits: nothing a client does costs a poll
//! interval, and nothing blocks shutdown.
//!
//! Every fault here is one a client can cause: a fuel budget too small for
//! any candidate to finish. One test counts process-wide functional
//! executions and others time requests, so the tests serialize on one mutex.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dpcons_serve::http::MAX_REQUEST_HEAD_BYTES;
use dpcons_serve::pool::CacheMode;
use dpcons_serve::proto::{FUEL_CAP, MAX_CANDIDATE_MS_CAP, MAX_FLEET};
use dpcons_serve::{parse_request, serve, Client, ErrorClass, JobKind, Limits, ServerConfig};

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

/// The clamps an admitted budget gets: the one configurable cap
/// (`dpcons-serve --max-evals`) and the fixed ones.
#[test]
fn budgets_are_clamped_to_the_cap_and_the_fixed_limits() {
    let _guard = serialize();
    let budget = |body: &str, cap: usize| {
        parse_request(JobKind::Tune, body, &Limits { max_evals_cap: cap }).map(|spec| spec.budget)
    };
    let plain = r#"{"app":"TH","device":"k20c"}"#;
    // An omitted `max_evals` gets 24, or the cap when it is lower.
    assert_eq!(budget(plain, Limits::default().max_evals_cap).unwrap().max_evals, Some(24));
    assert_eq!(budget(plain, 8).unwrap().max_evals, Some(8));
    let err = budget(r#"{"app":"TH","device":"k20c","budget":{"max_evals":9}}"#, 8).unwrap_err();
    assert_eq!(err.class, ErrorClass::OverBudget, "{err}");
    assert_eq!(budget(plain, 8).unwrap().fuel, Some(FUEL_CAP), "fuel is always on");
    let slow = r#"{"app":"TH","device":"k20c","budget":{"max_candidate_ms":999999999}}"#;
    assert_eq!(budget(slow, 8).unwrap().max_candidate_ms, Some(MAX_CANDIDATE_MS_CAP));
    let names = ["\"k20c\""; MAX_FLEET + 1].join(",");
    let wide = format!(r#"{{"app":"TH","devices":[{names}]}}"#);
    let err = parse_request(JobKind::Fleet, &wide, &Limits::default()).unwrap_err();
    assert!(err.to_string().contains(&format!("fleet cap of {MAX_FLEET}")), "{err}");
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

    // A request head that has not ended by the bound is refused, whether it
    // is one header line without a newline or a flood of short headers. Each
    // head below is a valid `/healthz` request cut at exactly the bound.
    let bound = MAX_REQUEST_HEAD_BYTES as usize;
    let request_line = "GET /healthz HTTP/1.1\r\n";
    let long_line = format!("{request_line}x-pad: {}", "a".repeat(bound));
    let flood = format!("{request_line}{}", "x-a: 1\r\n".repeat(bound / 8));
    for (what, head) in [("oversized header line", long_line), ("header flood", flood)] {
        let response = send_raw(handle.addr(), &head.as_bytes()[..bound]);
        assert!(response.starts_with("HTTP/1.1 400"), "{what}: {response}");
        assert!(response.contains("\"bad_request\""), "{what}: {response}");
    }
    assert!(client.healthz().is_ok(), "the server outlives hostile request heads");

    handle.shutdown().expect("clean drain");
}

/// Send `bytes` on a fresh connection, close the sending half, and return
/// the whole response.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
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
    // Histograms show their distribution, not only count/sum/max/mean.
    let request_us = metrics.lines().find(|l| l.starts_with("serve.request_us ")).unwrap();
    assert!(request_us.contains(" p50<=") && request_us.contains(" p99<="), "{request_us}");

    handle.shutdown().expect("clean drain");
}

#[test]
fn a_faulted_job_fails_without_killing_the_server() {
    let _guard = serialize();
    let (handle, client) = start();

    // A one-step fuel budget times every candidate out: the sweep completes
    // with no feasible winner, the job reports `failed`, the server stays up.
    let starved = dpcons_obs::jsonv::parse(
        r#"{"app":"SSSP","device":"k20c","budget":{"max_evals":8,"fuel":1}}"#,
    )
    .unwrap();
    let fails = |job: u64| {
        let err = client.wait(job, Duration::from_secs(120)).unwrap_err();
        assert_eq!(err.class, ErrorClass::Faulted, "{err}");
        let view = client.job(job).unwrap();
        assert_eq!(view.get("status").and_then(|s| s.as_str()), Some("failed"));
    };
    let sub = client.submit("tune", &starved).unwrap();
    fails(sub.job);
    assert!(client.healthz().is_ok(), "server must still answer after a failed job");

    // The failed job released its dedup key: the same body is a new job,
    // which fails the same way.
    let again = client.submit("tune", &starved).unwrap();
    assert!(!again.deduped, "a failed job must not hold the dedup key");
    assert_ne!(again.job, sub.job);
    fails(again.job);

    // A normal body still finishes.
    let sub = client.submit("tune", &Client::tune_body("SSSP", "k20c", 8)).unwrap();
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

    // A four-device fleet sweep: long enough (about half a second) that the
    // job is still running when the drain begins, which is checked below.
    let body = Client::fleet_body("TH", &["k20c", "k40", "titan", "tk1"], 64);
    let sub = client.submit("fleet", &body).unwrap();

    // Open the stream by hand and read the status line: once it is here the
    // server is inside the stream, before the drain is requested.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write!(stream, "GET /jobs/{}/stream HTTP/1.1\r\ncontent-length: 0\r\n\r\n", sub.job).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    client.shutdown_server().unwrap();
    let view = client.job(sub.job).unwrap();
    let status = view.get("status").and_then(|s| s.as_str());
    assert!(
        matches!(status, Some("queued" | "running")),
        "the job must still be in flight when the drain begins: {status:?}"
    );
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
