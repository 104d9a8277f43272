//! The `dpcons-serve` daemon: tuning-as-a-service over HTTP/JSON.
//!
//! ```text
//! dpcons-serve [--addr HOST:PORT] [--workers N]
//!              [--cache-dir PATH | --no-cache]
//!              [--max-evals N] [--drain-ms MS]
//! ```
//!
//! Binds (default `127.0.0.1:7070`), serves `POST /tune`, `POST /fleet`,
//! `GET /jobs/{id}[/stream]`, `GET /metrics`, `GET /healthz`, and runs until
//! a client posts `/shutdown`, at which point it drains: stops admitting new
//! jobs (503), finishes everything already queued, joins the worker pool
//! within `--drain-ms`, and exits. Exit status follows the shared
//! [`dpcons_serve::ErrorClass`] mapping: `0` clean drain, `2` usage error,
//! `1` unclean drain.

use std::path::PathBuf;

use dpcons_serve::pool::CacheMode;
use dpcons_serve::{serve, ErrorClass, Limits, ServerConfig};

/// All invalid invocations funnel through the shared error taxonomy, the
/// same one that maps serve-side failures to HTTP statuses — exit codes and
/// statuses are derived from a single [`ErrorClass`] and cannot drift.
fn usage_err(msg: &str) -> ! {
    eprintln!("dpcons-serve: {msg}");
    eprintln!(
        "usage: dpcons-serve [--addr HOST:PORT] [--workers N] \
         [--cache-dir PATH | --no-cache] [--max-evals N] [--drain-ms MS]"
    );
    std::process::exit(ErrorClass::Usage.exit_code());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7070".to_string(),
        cache: CacheMode::Disk(PathBuf::from(".dpcons-tune-cache")),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(s) => cfg.addr = s.clone(),
                None => usage_err("--addr needs HOST:PORT"),
            },
            "--workers" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => usage_err("--workers needs a positive integer"),
            },
            "--cache-dir" => match it.next() {
                Some(p) => cfg.cache = CacheMode::Disk(PathBuf::from(p)),
                None => usage_err("--cache-dir needs a path"),
            },
            "--no-cache" => cfg.cache = CacheMode::Memory,
            "--max-evals" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    cfg.limits = Limits {
                        max_evals_cap: n,
                        default_max_evals: n.min(Limits::default().default_max_evals),
                        ..Limits::default()
                    }
                }
                _ => usage_err("--max-evals needs a positive integer"),
            },
            "--drain-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => cfg.drain_ms = ms,
                None => usage_err("--drain-ms needs a millisecond count"),
            },
            other => usage_err(&format!("unknown flag `{other}`")),
        }
    }

    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dpcons-serve: {e}");
            std::process::exit(e.class.exit_code());
        }
    };
    eprintln!("dpcons-serve: listening on {} (POST /shutdown to drain)", handle.addr());

    handle.wait_drain_requested();
    eprintln!("dpcons-serve: drain requested; finishing queued jobs");
    match handle.shutdown() {
        Ok(()) => eprintln!("dpcons-serve: drained cleanly"),
        Err(e) => {
            eprintln!("dpcons-serve: {e}");
            std::process::exit(e.class.exit_code());
        }
    }
}
