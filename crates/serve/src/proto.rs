//! The `dpcons-serve v1` wire protocol: request parsing, server-side budget
//! clamping, and normalization into the exact cache keys the sweep substrate
//! uses.
//!
//! Normalization is the load-bearing step. Two requests are "the same job"
//! iff they normalize to the same key, and the key is computed by
//! [`dpcons_tune::cache_key_for`] — the function the sweep uses for its own
//! cache — so the in-flight dedup table and the result cache can never
//! disagree about identity. The key knows devices, not endpoints: a `/fleet`
//! request naming one device is the `/tune` of that device.
//! Clamping happens *before* keying: a request asking for more than the
//! server grants dedups against other requests clamped to the same grant.

use std::collections::BTreeMap;

use dpcons_apps::{benchmark_by_name, benchmark_names, Benchmark, Profile, RunConfig};
use dpcons_core::KnobSpace;
use dpcons_obs::jsonv::Value;
use dpcons_sim::GpuConfig;
use dpcons_tune::{cache_key_for, fingerprint, Budget};

use crate::error::ServeError;

/// Protocol identifier carried in every response body.
pub const PROTO: &str = "dpcons-serve v1";

/// Per-candidate fuel ceiling, also forced on a request that sets none or 0.
pub const FUEL_CAP: u64 = 50_000_000;
/// Ceiling for a request's per-candidate wall-clock soft deadline.
pub const MAX_CANDIDATE_MS_CAP: u64 = 60_000;
/// Most devices one `/fleet` request may name.
pub const MAX_FLEET: usize = 5;

/// Server-side budget clamps. With the constants above they bound every
/// admitted job's [`Budget`]: `max_evals` beyond the cap is a typed
/// `over_budget` rejection, `fuel` and `max_candidate_ms` are clamped
/// silently, and fuel is always on. Wave size is a crate constant
/// ([`dpcons_tune::WAVE_SIZE`]) — clients cannot widen it.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Hard ceiling on `budget.max_evals`; requests above it are rejected.
    pub max_evals_cap: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_evals_cap: 64 }
    }
}

/// Which endpoint admitted a job. It only decides whether the body names one
/// `device` or a list of `devices`; the sweep is the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Tune,
    Fleet,
}

impl JobKind {
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Tune => "tune",
            JobKind::Fleet => "fleet",
        }
    }
}

/// A fully normalized, admitted job: everything a worker needs to run the
/// sweep, plus the canonical `key` the job dedups and caches under.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub kind: JobKind,
    pub app: String,
    pub profile: Profile,
    /// Every device priced, the capture device first.
    pub devices: Vec<GpuConfig>,
    pub budget: Budget,
    pub space: KnobSpace,
    pub key: u64,
}

/// Build the benchmark registered under `name` (case-insensitive) — that one
/// only; a request never pays for the other six datasets.
pub fn find_app(name: &str, profile: Profile) -> Result<Box<dyn Benchmark>, ServeError> {
    benchmark_by_name(name, profile).ok_or_else(|| {
        let known: Vec<&str> = benchmark_names().collect();
        ServeError::invalid(format!("unknown app `{name}`; known apps: {}", known.join(", ")))
    })
}

fn parse_profile(v: &Value) -> Result<Profile, ServeError> {
    match v.get("profile") {
        None => Ok(Profile::Test),
        Some(Value::Str(s)) => match s.to_ascii_lowercase().as_str() {
            "test" => Ok(Profile::Test),
            "bench" => Ok(Profile::Bench),
            other => Err(ServeError::invalid(format!(
                "unknown profile `{other}` (expected \"test\" or \"bench\")"
            ))),
        },
        Some(_) => Err(ServeError::usage("`profile` must be a string")),
    }
}

fn field_u64(obj: &Value, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(ServeError::usage(format!("`budget.{key}` must be a non-negative integer"))),
    }
}

/// The keys a `budget` object may carry.
const BUDGET_KEYS: [&str; 3] = ["max_evals", "fuel", "max_candidate_ms"];

/// Parse and clamp the optional `budget` object. An unknown key is refused
/// rather than ignored, so a client never gets a different sweep than it
/// asked for.
fn parse_budget(v: &Value, limits: &Limits) -> Result<Budget, ServeError> {
    let budget = v.get("budget").cloned().unwrap_or(Value::Obj(BTreeMap::new()));
    let Some(obj) = budget.as_obj() else {
        return Err(ServeError::usage("`budget` must be an object"));
    };
    if let Some(key) = obj.keys().find(|k| !BUDGET_KEYS.contains(&k.as_str())) {
        return Err(ServeError::usage(format!(
            "unknown budget key `{key}` (expected one of: {})",
            BUDGET_KEYS.join(", ")
        )));
    }
    let max_evals = match field_u64(&budget, "max_evals")? {
        // Omitted: 24 evaluations, or the cap when it is lower.
        None => limits.max_evals_cap.min(24),
        Some(0) => {
            return Err(ServeError::invalid("budget.max_evals must be nonzero"));
        }
        Some(n) if n as usize > limits.max_evals_cap => {
            return Err(ServeError::over_budget(format!(
                "budget.max_evals {} exceeds this server's cap of {}",
                n, limits.max_evals_cap
            )));
        }
        Some(n) => n as usize,
    };
    // Fuel is always on: a client may tighten it below the cap, never
    // loosen it past the cap (or disable it).
    let fuel = field_u64(&budget, "fuel")?.unwrap_or(FUEL_CAP).min(FUEL_CAP);
    let fuel = if fuel == 0 { FUEL_CAP } else { fuel };
    let max_candidate_ms =
        field_u64(&budget, "max_candidate_ms")?.map(|ms| ms.min(MAX_CANDIDATE_MS_CAP));
    Ok(Budget { max_evals: Some(max_evals), fuel: Some(fuel), max_candidate_ms })
}

fn parse_device(name: &str) -> Result<GpuConfig, ServeError> {
    GpuConfig::by_name(name).ok_or_else(|| {
        ServeError::invalid(format!(
            "unknown device `{name}`; known devices: {}",
            GpuConfig::registry_names().join(", ")
        ))
    })
}

fn required_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, ServeError> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(ServeError::usage(format!("`{key}` must be a string"))),
        None => Err(ServeError::usage(format!("missing required field `{key}`"))),
    }
}

/// Parse a `POST /tune` or `POST /fleet` body into an admitted [`JobSpec`].
///
/// This runs the app's CPU oracle once to compute the dataset fingerprint —
/// the same fingerprint the sweep would compute — so the returned `key` is
/// byte-identical to the one the sweep stores its report under.
pub fn parse_request(kind: JobKind, body: &str, limits: &Limits) -> Result<JobSpec, ServeError> {
    let v = dpcons_obs::jsonv::parse(body)
        .map_err(|e| ServeError::usage(format!("malformed JSON body: {e}")))?;
    if v.as_obj().is_none() {
        return Err(ServeError::usage("request body must be a JSON object"));
    }
    let profile = parse_profile(&v)?;
    let app_name = required_str(&v, "app")?;
    let budget = parse_budget(&v, limits)?;

    let devices = match kind {
        JobKind::Tune => vec![parse_device(required_str(&v, "device")?)?],
        JobKind::Fleet => {
            let list = match v.get("devices") {
                Some(Value::Arr(a)) if !a.is_empty() => a,
                Some(Value::Arr(_)) => {
                    return Err(ServeError::invalid("`devices` must name at least one device"));
                }
                Some(_) => return Err(ServeError::usage("`devices` must be an array of strings")),
                None => return Err(ServeError::usage("missing required field `devices`")),
            };
            if list.len() > MAX_FLEET {
                return Err(ServeError::over_budget(format!(
                    "{} devices exceeds this server's fleet cap of {}",
                    list.len(),
                    MAX_FLEET
                )));
            }
            let mut fleet = Vec::with_capacity(list.len());
            for d in list {
                let name = d
                    .as_str()
                    .ok_or_else(|| ServeError::usage("`devices` must be an array of strings"))?;
                fleet.push(parse_device(name)?);
            }
            fleet
        }
    };

    let app = find_app(app_name, profile)?;
    let fp = fingerprint(app.as_ref());
    let space = KnobSpace::quick(devices[0].num_sms);
    let key =
        cache_key_for(app.name(), fp, &RunConfig::default(), &space, &budget, &devices, false);
    Ok(JobSpec { kind, app: app.name().to_string(), profile, devices, budget, space, key })
}

/// Render a `u64` key for the wire. Keys are full-width hashes; `jsonv`
/// holds numbers as `f64`, so they travel as fixed-width hex strings.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Build the standard JSON error body for a [`ServeError`].
pub fn error_body(err: &ServeError) -> Value {
    let mut e = BTreeMap::new();
    e.insert("code".to_string(), Value::Str(err.class.code().to_string()));
    e.insert("message".to_string(), Value::Str(err.message.clone()));
    let mut o = BTreeMap::new();
    o.insert("proto".to_string(), Value::Str(PROTO.to_string()));
    o.insert("error".to_string(), Value::Obj(e));
    Value::Obj(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorClass;

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn identical_bodies_normalize_to_identical_keys() {
        let a =
            parse_request(JobKind::Fleet, r#"{"app":"SSSP","devices":["k20c","k40"]}"#, &limits())
                .unwrap();
        let b = parse_request(
            JobKind::Fleet,
            r#"{ "devices" : ["k20c","k40"], "app" : "sssp", "profile": "test" }"#,
            &limits(),
        )
        .unwrap();
        assert_eq!(a.key, b.key, "field order, spacing, and app case must not matter");
    }

    #[test]
    fn over_cap_budget_dedups_with_clamped_budget() {
        // fuel above the cap is clamped before keying, so it is the same job
        // as one that asked for exactly the cap.
        let big = parse_request(
            JobKind::Tune,
            r#"{"app":"SSSP","device":"k20c","budget":{"fuel":999999999999}}"#,
            &limits(),
        )
        .unwrap();
        let capped =
            parse_request(JobKind::Tune, r#"{"app":"SSSP","device":"k20c"}"#, &limits()).unwrap();
        assert_eq!(big.key, capped.key);
        assert_eq!(big.budget.fuel, Some(FUEL_CAP));
    }

    #[test]
    fn typed_rejections() {
        let cases = [
            (JobKind::Tune, "{not json", ErrorClass::Usage),
            (JobKind::Tune, r#"{"device":"k20c"}"#, ErrorClass::Usage),
            (JobKind::Tune, r#"{"app":"SSSP","device":"gtx9000"}"#, ErrorClass::Invalid),
            (JobKind::Tune, r#"{"app":"NotAnApp","device":"k20c"}"#, ErrorClass::Invalid),
            (
                JobKind::Tune,
                r#"{"app":"SSSP","device":"k20c","budget":{"max_evals":0}}"#,
                ErrorClass::Invalid,
            ),
            (
                JobKind::Tune,
                r#"{"app":"SSSP","device":"k20c","budget":{"max_evals":100000}}"#,
                ErrorClass::OverBudget,
            ),
            // Unknown budget keys are refused, not ignored: a removed knob
            // and one that never existed.
            (
                JobKind::Tune,
                r#"{"app":"SSSP","device":"k20c","budget":{"patience":2}}"#,
                ErrorClass::Usage,
            ),
            (
                JobKind::Tune,
                r#"{"app":"SSSP","device":"k20c","budget":{"max_wave":4}}"#,
                ErrorClass::Usage,
            ),
            (JobKind::Fleet, r#"{"app":"SSSP","devices":[]}"#, ErrorClass::Invalid),
            (
                JobKind::Fleet,
                r#"{"app":"SSSP","devices":["k20c","k40","titan","tk1","tiny","k20c"]}"#,
                ErrorClass::OverBudget,
            ),
        ];
        for (kind, body, want) in cases {
            let err = parse_request(kind, body, &limits()).unwrap_err();
            assert_eq!(err.class, want, "{body} -> {err}");
        }
    }

    #[test]
    fn a_one_device_fleet_is_the_tune_of_that_device() {
        let t =
            parse_request(JobKind::Tune, r#"{"app":"SSSP","device":"k20c"}"#, &limits()).unwrap();
        let f = parse_request(JobKind::Fleet, r#"{"app":"SSSP","devices":["k20c"]}"#, &limits())
            .unwrap();
        assert_eq!(t.key, f.key, "one sweep, one key, whichever endpoint asked");
        let two =
            parse_request(JobKind::Fleet, r#"{"app":"SSSP","devices":["k20c","k40"]}"#, &limits())
                .unwrap();
        assert_ne!(t.key, two.key, "a second device is a different sweep");
    }
}
