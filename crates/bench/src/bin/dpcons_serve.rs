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

/// Parse the command line (program name excluded) into a server
/// configuration; `Err` carries the usage message.
fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
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
                None => return Err("--addr needs HOST:PORT".into()),
            },
            "--workers" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => return Err("--workers needs a positive integer".into()),
            },
            "--cache-dir" => match it.next() {
                Some(p) => cfg.cache = CacheMode::Disk(PathBuf::from(p)),
                None => return Err("--cache-dir needs a path".into()),
            },
            "--no-cache" => cfg.cache = CacheMode::Off,
            "--max-evals" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.limits = Limits { max_evals_cap: n },
                _ => return Err("--max-evals needs a positive integer".into()),
            },
            "--drain-ms" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(ms) => cfg.drain_ms = ms,
                None => return Err("--drain-ms needs a millisecond count".into()),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args).unwrap_or_else(|msg| usage_err(&msg));

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

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_cache_turns_every_cache_layer_off() {
        // Not `CacheMode::Memory`: the process-wide memory layer is never
        // evicted, so it would keep every result the daemon computes.
        let cfg = parse(&["--no-cache"]).unwrap();
        assert!(matches!(cfg.cache, CacheMode::Off), "{:?}", cfg.cache);
    }

    #[test]
    fn cache_dir_selects_the_disk_cache_and_the_default_is_on_disk() {
        let cfg = parse(&["--cache-dir", "/tmp/elsewhere"]).unwrap();
        assert!(matches!(&cfg.cache, CacheMode::Disk(d) if d == Path::new("/tmp/elsewhere")));
        let cfg = parse(&[]).unwrap();
        assert!(matches!(&cfg.cache, CacheMode::Disk(d) if d == Path::new(".dpcons-tune-cache")));
        // The last cache flag wins.
        assert!(matches!(
            parse(&["--cache-dir", "x", "--no-cache"]).unwrap().cache,
            CacheMode::Off
        ));
        assert!(parse(&["--cache-dir"]).unwrap_err().contains("--cache-dir"));
    }
}
