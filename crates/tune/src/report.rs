//! The sweep's result type and its deterministic on-disk form.
//!
//! There is one report, for every sweep: a [`TuneReport`] is the knobs ×
//! device matrix over the devices the sweep priced, and a single-device tune
//! is simply the matrix with one column ([`FleetReport`] names the same
//! type). It lists every enumerated candidate with what happened to it
//! (evaluated, faulted, or skipped by the search budget), the
//! optional baseline runs, and one winner per device; the counts and the
//! winners are functions of the rows (`TuneReport::new`), so they cannot
//! disagree with them, in a sweep or in a cache file. A candidate runs
//! functionally once, on `devices[0]` (the capture device); its row holds
//! that run's [`Metrics`] plus one more [`Metrics`] for each further device,
//! re-timed from the capture.
//!
//! The textual serialization is the results-cache format: byte-for-byte
//! reproducible, order-preserving, with `f64` metrics stored as IEEE bit
//! patterns so a cache round trip is exact.

use dpcons_core::Knobs;

/// Profile metrics of one evaluated candidate (full app run) on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    pub cycles: u64,
    pub device_launches: u64,
    pub warp_exec_efficiency: f64,
    pub achieved_occupancy: f64,
    /// Whether the run's output matched the CPU oracle. Candidates that
    /// corrupt results (e.g. undersized buffers) are not re-timed and never
    /// ranked on any device.
    pub output_ok: bool,
}

/// What the search did with one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Ran to completion.
    Evaluated(Metrics),
    /// The run itself errored (transform or simulator fault) — including a
    /// statically infeasible point, which fails with the compiler's or
    /// simulator's own error.
    Failed(String),
    /// Not evaluated: the search budget stopped the sweep first.
    Skipped,
    /// The evaluation (or its timing replay) panicked; the panic was isolated
    /// to this candidate (payload recorded) and the rest of the sweep
    /// continued.
    Panicked(String),
    /// The watchdog stopped the run: the functional fuel budget
    /// ([`crate::Budget::fuel`]) was exhausted or the wall-clock soft
    /// deadline ([`crate::Budget::max_candidate_ms`]) passed.
    TimedOut(String),
}

impl Status {
    /// Whether this outcome is a fault the sweep survived (panicked, timed
    /// out, or errored) rather than a normal evaluation or skip.
    pub fn is_fault(&self) -> bool {
        matches!(self, Status::Failed(_) | Status::Panicked(_) | Status::TimedOut(_))
    }
}

/// One enumerated candidate and its outcome: one row of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    pub knobs: Knobs,
    pub status: Status,
    /// The run re-timed on `devices[1..]`, in device order. Filled only for
    /// an oracle-exact run of a multi-device sweep; empty otherwise.
    pub retimed: Vec<Metrics>,
}

impl CandidateOutcome {
    pub fn metrics(&self) -> Option<&Metrics> {
        match &self.status {
            Status::Evaluated(m) => Some(m),
            _ => None,
        }
    }

    /// Cycles on device `d` of a ranked row — one that ran oracle-exact.
    pub fn cycles_on(&self, d: usize) -> Option<u64> {
        let m = self.metrics().filter(|m| m.output_ok)?;
        match d.checked_sub(1) {
            None => Some(m.cycles),
            Some(other) => self.retimed.get(other).map(|c| c.cycles),
        }
    }
}

/// Ranked result of one sweep: the knobs × device matrix for one app. The
/// fields from `winners` down are derived from `candidates`.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub app: String,
    /// Display names of the devices priced; `devices[0]` is the capture
    /// device and the column order of every row.
    pub devices: Vec<String>,
    /// Dataset fingerprint (hash of the app's oracle output).
    pub fingerprint: u64,
    /// Full cache key ([`crate::cache_key_for`]).
    pub key: u64,
    /// Baseline cycles on the capture device: `no-dp`, `basic-dp` (when
    /// requested).
    pub baselines: Vec<(String, u64)>,
    /// Every candidate in deterministic search order.
    pub candidates: Vec<CandidateOutcome>,
    /// Per-device winner: index into `candidates` of the minimum-cycle
    /// oracle-exact row, `None` when no row is ranked.
    pub winners: Vec<Option<usize>>,
    pub evaluated: usize,
    pub failed: usize,
    pub skipped: usize,
    /// Candidates whose evaluation panicked (isolated, sweep continued).
    pub panicked: usize,
    /// Candidates stopped by the fuel/deadline watchdog.
    pub timed_out: usize,
    /// Knob points dropped before the sweep because an earlier candidate
    /// generates the same program (see [`crate::enumerate_candidates`]).
    pub collapsed: usize,
    /// Functional app executions the sweep performed (evaluated plus faulted
    /// candidates) — at most one per candidate, whatever the device count.
    pub functional_runs: u64,
    /// (candidate, device) timing datapoints produced from those runs.
    pub retimings: u64,
    /// True when this report came out of the results cache rather than a
    /// fresh sweep. Not serialized; ignored by [`TuneReport::eq`].
    pub from_cache: bool,
}

/// A multi-device sweep's report is the same matrix with more columns.
pub type FleetReport = TuneReport;

impl PartialEq for TuneReport {
    /// Equality of what defines a report; the derived fields follow from
    /// `candidates`, and `from_cache` is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app
            && self.devices == other.devices
            && self.fingerprint == other.fingerprint
            && self.key == other.key
            && self.baselines == other.baselines
            && self.candidates == other.candidates
            && self.collapsed == other.collapsed
    }
}

impl TuneReport {
    /// Assemble a fresh report around its rows, deriving the per-status
    /// counts, the per-device winners (minimum cycles among oracle-exact rows,
    /// earliest candidate on a tie) and the run/datapoint totals from them.
    pub(crate) fn new(
        app: String,
        devices: Vec<String>,
        fingerprint: u64,
        key: u64,
        baselines: Vec<(String, u64)>,
        candidates: Vec<CandidateOutcome>,
        collapsed: usize,
    ) -> TuneReport {
        let count = |f: fn(&Status) -> bool| candidates.iter().filter(|c| f(&c.status)).count();
        let evaluated = count(|s| matches!(s, Status::Evaluated(_)));
        let failed = count(|s| matches!(s, Status::Failed(_)));
        let panicked = count(|s| matches!(s, Status::Panicked(_)));
        let timed_out = count(|s| matches!(s, Status::TimedOut(_)));
        let column = |d: usize| {
            candidates.iter().enumerate().filter_map(move |(i, c)| Some((c.cycles_on(d)?, i)))
        };
        TuneReport {
            winners: (0..devices.len()).map(|d| column(d).min().map(|(_, i)| i)).collect(),
            evaluated,
            failed,
            skipped: count(|s| matches!(s, Status::Skipped)),
            panicked,
            timed_out,
            collapsed,
            functional_runs: (evaluated + failed + panicked + timed_out) as u64,
            retimings: (0..devices.len()).map(|d| column(d).count() as u64).sum(),
            from_cache: false,
            app,
            devices,
            fingerprint,
            key,
            baselines,
            candidates,
        }
    }

    /// Display name of the capture device.
    pub fn captured_on(&self) -> &str {
        &self.devices[0]
    }

    pub fn winner(&self, device: usize) -> Option<&CandidateOutcome> {
        self.winners.get(device).copied().flatten().map(|i| &self.candidates[i])
    }

    pub fn winner_knobs(&self, device: usize) -> Option<Knobs> {
        self.winner(device).map(|c| c.knobs)
    }

    pub fn winner_cycles(&self, device: usize) -> Option<u64> {
        self.winner(device).and_then(|c| c.cycles_on(device))
    }

    /// The capture device's winner — all there is to a single-device tune.
    pub fn best_knobs(&self) -> Option<Knobs> {
        self.winner_knobs(0)
    }

    pub fn best_cycles(&self) -> Option<u64> {
        self.winner_cycles(0)
    }

    /// The ranked rows, each with its cycles on every device in `devices`
    /// order.
    pub fn matrix(&self) -> impl Iterator<Item = (&CandidateOutcome, Vec<u64>)> {
        let columns = self.devices.len();
        self.candidates.iter().filter_map(move |c| {
            (0..columns).map(|d| c.cycles_on(d)).collect::<Option<Vec<u64>>>().map(|row| (c, row))
        })
    }

    /// Cycles of a named baseline, if it was measured.
    pub fn baseline(&self, label: &str) -> Option<u64> {
        self.baselines.iter().find(|(l, _)| l == label).map(|&(_, c)| c)
    }

    /// Capture-device cycles of the evaluated candidate with exactly these
    /// knobs (oracle-exact or not).
    pub fn cycles_for(&self, knobs: &Knobs) -> Option<u64> {
        self.candidates
            .iter()
            .find(|c| &c.knobs == knobs)
            .and_then(|c| c.metrics())
            .map(|m| m.cycles)
    }

    /// Total faulted candidates (panicked + timed out + failed).
    pub fn fault_count(&self) -> usize {
        self.panicked + self.timed_out + self.failed
    }

    /// Candidates whose outcome was a fault, with their indices.
    pub fn faulted(&self) -> impl Iterator<Item = (usize, &CandidateOutcome)> {
        self.candidates.iter().enumerate().filter(|(_, c)| c.status.is_fault())
    }

    // ------------------------------------------------------ serialization --

    /// Deterministic textual form (the cache file format).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{HEADER}\napp {}\n", self.app));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        s.push_str(&format!("key {:016x}\n", self.key));
        for d in &self.devices {
            s.push_str(&format!("device {d}\n"));
        }
        for (label, cycles) in &self.baselines {
            s.push_str(&format!("baseline {label} {cycles}\n"));
        }
        for c in &self.candidates {
            s.push_str(&format!("candidate {} ", c.knobs.label()));
            match &c.status {
                Status::Evaluated(m) => {
                    s.push_str("ok");
                    for m in std::iter::once(m).chain(&c.retimed) {
                        s.push_str(&format!(
                            " {} {} {:016x} {:016x} {}",
                            m.cycles,
                            m.device_launches,
                            m.warp_exec_efficiency.to_bits(),
                            m.achieved_occupancy.to_bits(),
                            u8::from(m.output_ok),
                        ));
                    }
                    s.push('\n');
                }
                Status::Failed(msg) => s.push_str(&format!("failed {}\n", sanitize(msg))),
                Status::Skipped => s.push_str("skipped\n"),
                Status::Panicked(msg) => s.push_str(&format!("panicked {}\n", sanitize(msg))),
                Status::TimedOut(msg) => s.push_str(&format!("timedout {}\n", sanitize(msg))),
            }
        }
        s.push_str(&format!("collapsed {}\n", self.collapsed));
        s.push_str("end\n");
        s
    }

    /// Parse [`TuneReport::to_text`] output. `from_cache` is set to `true`.
    pub fn from_text(text: &str) -> Result<TuneReport, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty cache entry")?;
        if header != HEADER {
            return Err(format!("unknown cache version `{header}`"));
        }
        let mut app = None;
        let mut fingerprint = None;
        let mut key = None;
        let mut devices: Vec<String> = Vec::new();
        let mut baselines = Vec::new();
        let mut candidates = Vec::new();
        let mut collapsed = None;
        let mut saw_end = false;
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "app" => app = Some(rest.to_string()),
                "fingerprint" => fingerprint = Some(hex(rest)?),
                "key" => key = Some(hex(rest)?),
                "device" => devices.push(rest.to_string()),
                "baseline" => {
                    let (label, cycles) =
                        rest.rsplit_once(' ').ok_or_else(|| format!("bad baseline `{rest}`"))?;
                    baselines.push((label.to_string(), dec(cycles)?));
                }
                "candidate" => candidates.push(parse_candidate(rest, devices.len())?),
                "collapsed" => collapsed = Some(dec(rest)? as usize),
                "end" => saw_end = true,
                other => return Err(format!("unknown cache line tag `{other}`")),
            }
        }
        if !saw_end {
            return Err("truncated cache entry (no `end` marker)".into());
        }
        if devices.is_empty() {
            return Err("cache entry has no devices".into());
        }
        Ok(TuneReport {
            from_cache: true,
            ..TuneReport::new(
                app.ok_or("missing app line")?,
                devices,
                fingerprint.ok_or("missing fingerprint line")?,
                key.ok_or("missing key line")?,
                baselines,
                candidates,
                collapsed.ok_or("missing collapsed line")?,
            )
        })
    }
}

/// First line of the text form; its version moves with
/// [`crate::tuner::CACHE_SCHEMA`].
const HEADER: &str = "dpcons-tune v5";

fn sanitize(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

fn dec(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
}

/// Parse one `candidate` line of a report over `n_devices` devices: an `ok`
/// row carries the capture run's metrics and, when oracle-exact, those of
/// every further device.
fn parse_candidate(rest: &str, n_devices: usize) -> Result<CandidateOutcome, String> {
    let (knobs_s, rest) =
        rest.split_once(' ').ok_or_else(|| format!("bad candidate line `{rest}`"))?;
    let knobs = Knobs::parse(knobs_s)?;
    let (kind, tail) = rest.split_once(' ').unwrap_or((rest, ""));
    let mut retimed = Vec::new();
    let status = match kind {
        "ok" => {
            let f: Vec<&str> = tail.split_whitespace().collect();
            let mut columns = f.chunks_exact(5).map(|c| {
                Ok(Metrics {
                    cycles: dec(c[0])?,
                    device_launches: dec(c[1])?,
                    warp_exec_efficiency: f64::from_bits(hex(c[2])?),
                    achieved_occupancy: f64::from_bits(hex(c[3])?),
                    output_ok: c[4] == "1",
                })
            });
            let captured: Metrics =
                columns.next().ok_or_else(|| format!("bad metrics `{tail}`"))??;
            retimed = columns.collect::<Result<_, String>>()?;
            let want = if captured.output_ok { n_devices } else { 1 };
            if f.len() != 5 * want {
                return Err(format!("bad column count for {n_devices} devices: `{tail}`"));
            }
            Status::Evaluated(captured)
        }
        "failed" => Status::Failed(tail.to_string()),
        "skipped" => Status::Skipped,
        "panicked" => Status::Panicked(tail.to_string()),
        "timedout" => Status::TimedOut(tail.to_string()),
        other => return Err(format!("unknown candidate status `{other}`")),
    };
    Ok(CandidateOutcome { knobs, status, retimed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_core::Granularity;
    use dpcons_sim::AllocKind;

    fn row(g: Granularity, alloc: AllocKind, status: Status) -> CandidateOutcome {
        let knobs = Knobs { granularity: g, alloc, per_buffer_size: Some(64), config: None };
        CandidateOutcome { knobs, status, retimed: Vec::new() }
    }

    fn metrics(cycles: u64, output_ok: bool) -> Metrics {
        Metrics {
            cycles,
            device_launches: 12,
            warp_exec_efficiency: 0.9137,
            achieved_occupancy: 0.417,
            output_ok,
        }
    }

    /// A report over `n_devices` devices with a row of every status; the two
    /// ranked rows tie, 100 cycles faster on each further device.
    fn sample(n_devices: usize) -> TuneReport {
        let ranked = |alloc| {
            let mut r = row(Granularity::Grid, alloc, Status::Evaluated(metrics(900, true)));
            r.retimed = (1..n_devices as u64).map(|d| metrics(900 - 100 * d, true)).collect();
            r
        };
        let devices = ["K20c-like", "K40-like", "Titan-like"][..n_devices].iter();
        TuneReport::new(
            "SSSP".into(),
            devices.map(|d| d.to_string()).collect(),
            0xDEADBEEF12345678,
            42,
            vec![("no-dp".into(), 1000), ("basic-dp".into(), 90_000)],
            vec![
                row(Granularity::Warp, AllocKind::Default, Status::Failed("analysis: no".into())),
                ranked(AllocKind::PreAlloc),
                row(Granularity::Block, AllocKind::Halloc, Status::Skipped),
                row(
                    Granularity::Block,
                    AllocKind::PreAlloc,
                    Status::Panicked("index out of bounds: the len is 4".into()),
                ),
                row(
                    Granularity::Warp,
                    AllocKind::PreAlloc,
                    Status::TimedOut("fuel exhausted: 64-step budget".into()),
                ),
                row(Granularity::Warp, AllocKind::Halloc, Status::Evaluated(metrics(5, false))),
                ranked(AllocKind::Halloc),
            ],
            2,
        )
    }

    #[test]
    fn derived_fields_follow_from_the_rows() {
        let r = sample(3);
        assert_eq!(r.winners, vec![Some(1); 3], "the earlier candidate keeps a tie");
        let counts = (r.evaluated, r.failed, r.skipped, r.panicked, r.timed_out);
        assert_eq!(counts, (3, 1, 1, 1, 1));
        assert_eq!((r.functional_runs, r.retimings, r.collapsed), (6, 2 * 3, 2));
        assert!(!r.from_cache);
    }

    #[test]
    fn text_roundtrip_is_exact_for_any_device_count() {
        for n in 1..=3 {
            let r = sample(n);
            let parsed = TuneReport::from_text(&r.to_text()).unwrap();
            assert!(parsed.from_cache);
            assert_eq!(parsed, r, "equality ignores from_cache");
            // And the re-serialization is byte-identical.
            assert_eq!(parsed.to_text(), r.to_text());
        }
    }

    #[test]
    fn accessors_find_winners_baselines_and_the_matrix() {
        let r = sample(2);
        assert_eq!(r.captured_on(), "K20c-like");
        assert_eq!(r.best_cycles(), Some(900));
        assert_eq!(r.best_knobs().unwrap().granularity, Granularity::Grid);
        assert_eq!(r.winner_knobs(1), r.best_knobs());
        assert_eq!(r.winner_cycles(1), Some(800));
        assert_eq!(r.winner_cycles(2), None, "no such device");
        assert_eq!(r.baseline("basic-dp"), Some(90_000));
        assert_eq!(r.baseline("nope"), None);
        // Only oracle-exact rows are in the matrix; the 5-cycle run that
        // corrupted its output still answers `cycles_for`, never ranks.
        let matrix: Vec<Vec<u64>> = r.matrix().map(|(_, cycles)| cycles).collect();
        assert_eq!(matrix, vec![vec![900, 800]; 2]);
        assert_eq!(r.cycles_for(&r.candidates[5].knobs), Some(5));
        assert_eq!(r.candidates[5].cycles_on(0), None);
    }

    #[test]
    fn fault_accessors_count_and_enumerate() {
        let r = sample(1);
        assert_eq!(r.fault_count(), 3);
        let faulted: Vec<usize> = r.faulted().map(|(i, _)| i).collect();
        assert_eq!(faulted, vec![0, 3, 4]);
        assert!(r.candidates[3].status.is_fault());
        assert!(!r.candidates[1].status.is_fault());
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        assert!(TuneReport::from_text("").is_err());
        assert!(TuneReport::from_text("dpcons-tune v3\n").is_err(), "stale schema is rejected");
        for n in 1..=2 {
            let text = sample(n).to_text();
            let broken = [
                text.replace("end\n", ""),
                text.replace("collapsed 2\n", ""),
                text.replace("collapsed 2\n", "collapsed two\n"),
                // One column per device on every ranked row.
                text.replace("device K20c-like\n", ""),
                text.replace("ok 900 12 ", "ok 900 "),
            ];
            for bad in &broken {
                assert_ne!(bad, &text);
                assert!(TuneReport::from_text(bad).is_err(), "{n} devices: accepted\n{bad}");
            }
        }
    }
}
