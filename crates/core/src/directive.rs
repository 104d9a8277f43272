//! The `#pragma dp` workload-consolidation directive (paper Table I).
//!
//! Grammar: `#pragma dp clause+` with clauses
//!
//! | clause    | argument                                                 |
//! |-----------|----------------------------------------------------------|
//! | `consldt` | `warp` \| `block` \| `grid` — consolidation granularity |
//! | `buffer`  | `default` \| `halloc` \| `custom` [, `perBufferSize: N` or variable name] [, `totalSize: N`] |
//! | `work`    | list of variables (indexes/pointers) to buffer           |
//! | `threads` | threads per block of the consolidated kernel (override)  |
//! | `blocks`  | blocks of the consolidated kernel (override)             |
//!
//! `consldt` and `work` are mandatory; the rest are tuning knobs
//! (Section IV.D).

use std::fmt;

/// Consolidation granularity (Section IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    Warp,
    Block,
    Grid,
}

impl Granularity {
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Warp => "warp",
            Granularity::Block => "block",
            Granularity::Grid => "grid",
        }
    }

    pub const ALL: [Granularity; 3] = [Granularity::Warp, Granularity::Block, Granularity::Grid];
}

/// Buffer allocation mechanism (Section IV.E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferKind {
    Default,
    Halloc,
    #[default]
    Custom,
}

/// Per-buffer capacity: a constant item count or a (uniform) variable naming
/// a runtime bound, e.g. the maximum child count of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizeSpec {
    Items(u64),
    Var(String),
}

/// A parsed `#pragma dp` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    pub granularity: Granularity,
    pub buffer: BufferKind,
    /// Per-buffer capacity in work items (warp/block level).
    pub per_buffer_size: Option<SizeSpec>,
    /// Total size of the pre-allocated pool, in items (grid level / custom).
    pub total_size: Option<u64>,
    /// Variables whose values form one work item in the buffer.
    pub work: Vec<String>,
    pub threads: Option<u32>,
    pub blocks: Option<u32>,
}

impl Directive {
    /// Construct a minimal directive programmatically.
    pub fn new(granularity: Granularity, work: &[&str]) -> Self {
        Directive {
            granularity,
            buffer: BufferKind::Custom,
            per_buffer_size: None,
            total_size: None,
            work: work.iter().map(|s| s.to_string()).collect(),
            threads: None,
            blocks: None,
        }
    }

    /// Parse the textual pragma form.
    pub fn parse(text: &str) -> Result<Self, DirectiveError> {
        Parser::new(text).parse()
    }

    // ---------------------------------------------------- tuning knobs --

    /// Replace the consolidation granularity.
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Replace the buffer allocation mechanism.
    pub fn with_buffer(mut self, b: BufferKind) -> Self {
        self.buffer = b;
        self
    }

    /// Override the per-buffer capacity (`None` keeps the directive's own).
    pub fn with_per_buffer_size(mut self, items: Option<u64>) -> Self {
        if let Some(n) = items {
            self.per_buffer_size = Some(SizeSpec::Items(n));
        }
        self
    }

    /// Override the consolidated kernel's `(blocks, threads)` clauses
    /// (`None` leaves configuration to the active [`crate::ConfigPolicy`]).
    pub fn with_config(mut self, config: Option<(u32, u32)>) -> Self {
        match config {
            Some((b, t)) => {
                self.blocks = Some(b);
                self.threads = Some(t);
            }
            None => {
                self.blocks = None;
                self.threads = None;
            }
        }
        self
    }

    /// Enumerate every tuning-knob variation of this directive over `space`
    /// (Section IV.D: the pragma's clauses *are* the tuning surface). The
    /// directive's `work` clause and any `totalSize` are preserved; each
    /// returned directive differs only in granularity, buffer kind,
    /// `perBufferSize`, and the `blocks`/`threads` configuration clauses.
    /// Degenerate configurations (`blocks == 0` or `threads == 0`) are
    /// silently skipped. Order is deterministic (row-major over the space).
    pub fn enumerate(&self, space: &KnobSpace) -> Vec<Directive> {
        let mut out = Vec::with_capacity(space.len());
        for &g in &space.granularities {
            for &b in &space.buffers {
                for &pbs in &space.per_buffer_sizes {
                    for &cfg in &space.configs {
                        if matches!(cfg, Some((bl, t)) if bl == 0 || t == 0) {
                            continue;
                        }
                        out.push(
                            self.clone()
                                .with_granularity(g)
                                .with_buffer(b)
                                .with_per_buffer_size(pbs)
                                .with_config(cfg),
                        );
                    }
                }
            }
        }
        out
    }

    /// Render back to pragma text (round-trip tested).
    pub fn to_pragma(&self) -> String {
        let mut s = format!("#pragma dp consldt({})", self.granularity.label());
        let kind = match self.buffer {
            BufferKind::Default => "default",
            BufferKind::Halloc => "halloc",
            BufferKind::Custom => "custom",
        };
        s.push_str(&format!(" buffer({kind}"));
        if let Some(p) = &self.per_buffer_size {
            match p {
                SizeSpec::Items(n) => s.push_str(&format!(", perBufferSize: {n}")),
                SizeSpec::Var(v) => s.push_str(&format!(", perBufferSize: {v}")),
            }
        }
        if let Some(t) = self.total_size {
            s.push_str(&format!(", totalSize: {t}"));
        }
        s.push(')');
        s.push_str(&format!(" work({})", self.work.join(", ")));
        if let Some(t) = self.threads {
            s.push_str(&format!(" threads({t})"));
        }
        if let Some(b) = self.blocks {
            s.push_str(&format!(" blocks({b})"));
        }
        s
    }
}

/// The grid of directive tuning knobs an autotuner sweeps: the cartesian
/// product of consolidation granularity, buffer mechanism, per-buffer
/// capacity, and consolidated-kernel `(blocks, threads)` configuration.
/// `None` entries mean "keep the base directive's / policy's choice".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobSpace {
    pub granularities: Vec<Granularity>,
    pub buffers: Vec<BufferKind>,
    pub per_buffer_sizes: Vec<Option<u64>>,
    pub configs: Vec<Option<(u32, u32)>>,
}

impl KnobSpace {
    /// A modest sweep suitable for CI and interactive use: all granularities
    /// and allocators, two buffer capacities, and a handful of configurations
    /// scaled to the device's SM count.
    pub fn quick(sms: u32) -> KnobSpace {
        KnobSpace {
            granularities: Granularity::ALL.to_vec(),
            buffers: vec![BufferKind::Custom, BufferKind::Halloc, BufferKind::Default],
            per_buffer_sizes: vec![None, Some(128)],
            configs: vec![None, Some((sms, 64)), Some((sms, 256)), Some((4 * sms, 256))],
        }
    }

    /// Upper bound on the number of enumerated candidates.
    pub fn len(&self) -> usize {
        self.granularities.len()
            * self.buffers.len()
            * self.per_buffer_sizes.len()
            * self.configs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parse errors with byte positions into the pragma text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveError {
    pub at: usize,
    pub message: String,
}

impl fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pragma parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for DirectiveError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> DirectiveError {
        DirectiveError { at: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, DirectiveError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let end = rest
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected identifier"));
        }
        let s = rest[..end].to_string();
        self.pos += end;
        Ok(s)
    }

    fn number(&mut self) -> Result<u64, DirectiveError> {
        let word = self.ident()?;
        word.parse::<u64>().map_err(|_| self.err(format!("expected number, found `{word}`")))
    }

    fn expect(&mut self, tok: &str) -> Result<(), DirectiveError> {
        if !self.eat(tok) {
            return Err(self.err(format!("expected `{tok}`")));
        }
        Ok(())
    }

    fn parse(mut self) -> Result<Directive, DirectiveError> {
        // Optional "#pragma" prefix, mandatory "dp".
        self.eat("#pragma");
        self.expect("dp")?;

        let mut granularity = None;
        let mut buffer = BufferKind::Custom;
        let mut per_buffer_size = None;
        let mut total_size = None;
        let mut work: Option<Vec<String>> = None;
        let mut threads = None;
        let mut blocks = None;

        loop {
            self.skip_ws();
            if self.pos >= self.text.len() {
                break;
            }
            let clause = self.ident()?;
            self.expect("(")?;
            match clause.as_str() {
                "consldt" => {
                    let g = self.ident()?;
                    granularity = Some(match g.as_str() {
                        "warp" => Granularity::Warp,
                        "block" => Granularity::Block,
                        "grid" => Granularity::Grid,
                        other => {
                            return Err(self.err(format!(
                                "unknown granularity `{other}` (expected warp|block|grid)"
                            )))
                        }
                    });
                }
                "buffer" => {
                    let kind = self.ident()?;
                    buffer = match kind.as_str() {
                        "default" => BufferKind::Default,
                        "halloc" => BufferKind::Halloc,
                        "custom" => BufferKind::Custom,
                        other => {
                            return Err(self.err(format!(
                                "unknown buffer type `{other}` (expected default|halloc|custom)"
                            )))
                        }
                    };
                    while self.eat(",") {
                        let key = self.ident()?;
                        self.expect(":")?;
                        match key.as_str() {
                            "perBufferSize" => {
                                let save = self.pos;
                                match self.number() {
                                    Ok(n) => per_buffer_size = Some(SizeSpec::Items(n)),
                                    Err(_) => {
                                        self.pos = save;
                                        per_buffer_size = Some(SizeSpec::Var(self.ident()?));
                                    }
                                }
                            }
                            "totalSize" => total_size = Some(self.number()?),
                            other => {
                                return Err(self.err(format!(
                                    "unknown buffer option `{other}` \
                                     (expected perBufferSize|totalSize)"
                                )))
                            }
                        }
                    }
                }
                "work" => {
                    let mut vars = vec![self.ident()?];
                    while self.eat(",") {
                        vars.push(self.ident()?);
                    }
                    work = Some(vars);
                }
                "threads" => {
                    threads = Some(self.number()? as u32);
                }
                "blocks" => {
                    blocks = Some(self.number()? as u32);
                }
                other => return Err(self.err(format!("unknown clause `{other}`"))),
            }
            self.expect(")")?;
        }

        let granularity =
            granularity.ok_or_else(|| self.err("missing mandatory clause `consldt`"))?;
        let work = work.ok_or_else(|| self.err("missing mandatory clause `work`"))?;
        if work.is_empty() {
            return Err(self.err("work clause must name at least one variable"));
        }
        Ok(Directive { granularity, buffer, per_buffer_size, total_size, work, threads, blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure4_example() {
        // Figure 4(a): block-level consolidation, custom buffer of 256
        // entries, buffering `curr`.
        let d = Directive::parse(
            "#pragma dp consldt(block) buffer(custom, perBufferSize: 256) work(curr)",
        )
        .unwrap();
        assert_eq!(d.granularity, Granularity::Block);
        assert_eq!(d.buffer, BufferKind::Custom);
        assert_eq!(d.per_buffer_size, Some(SizeSpec::Items(256)));
        assert_eq!(d.work, vec!["curr"]);
        assert_eq!(d.threads, None);
    }

    #[test]
    fn parses_all_clauses() {
        let d = Directive::parse(
            "dp consldt(grid) buffer(halloc, perBufferSize: maxdeg, totalSize: 1000000) \
             work(node, deg) threads(256) blocks(26)",
        )
        .unwrap();
        assert_eq!(d.granularity, Granularity::Grid);
        assert_eq!(d.buffer, BufferKind::Halloc);
        assert_eq!(d.per_buffer_size, Some(SizeSpec::Var("maxdeg".into())));
        assert_eq!(d.total_size, Some(1_000_000));
        assert_eq!(d.work, vec!["node", "deg"]);
        assert_eq!(d.threads, Some(256));
        assert_eq!(d.blocks, Some(26));
    }

    #[test]
    fn mandatory_clauses_enforced() {
        assert!(Directive::parse("#pragma dp work(x)").is_err());
        assert!(Directive::parse("#pragma dp consldt(warp)").is_err());
        assert!(Directive::parse("#pragma dp").is_err());
    }

    #[test]
    fn rejects_unknown_tokens_with_position() {
        let e = Directive::parse("#pragma dp consldt(threadgroup) work(x)").unwrap_err();
        assert!(e.message.contains("threadgroup"));
        let e = Directive::parse("#pragma dp consldt(warp) speed(11) work(x)").unwrap_err();
        assert!(e.message.contains("speed"));
        let e = Directive::parse("#pragma dp consldt(warp) buffer(custom, foo: 1) work(x)")
            .unwrap_err();
        assert!(e.message.contains("foo"));
    }

    #[test]
    fn pragma_roundtrip() {
        let cases = [
            "#pragma dp consldt(warp) buffer(custom) work(a)",
            "#pragma dp consldt(block) buffer(default, perBufferSize: 64) work(x, y)",
            "#pragma dp consldt(grid) buffer(custom, perBufferSize: deg, totalSize: 4096) \
             work(n) threads(128) blocks(13)",
        ];
        for c in cases {
            let d = Directive::parse(c).unwrap();
            let d2 = Directive::parse(&d.to_pragma()).unwrap();
            assert_eq!(d, d2, "round trip failed for `{c}`");
        }
    }

    #[test]
    fn whitespace_is_flexible() {
        let d = Directive::parse("  dp   consldt( warp )   work( a ,b,  c )").unwrap();
        assert_eq!(d.work, vec!["a", "b", "c"]);
        assert_eq!(d.granularity, Granularity::Warp);
    }

    #[test]
    fn empty_work_rejected() {
        assert!(Directive::parse("dp consldt(warp) work()").is_err());
    }

    #[test]
    fn enumerate_covers_the_knob_grid_and_preserves_work() {
        let base = Directive::parse(
            "dp consldt(block) buffer(custom, perBufferSize: 64, totalSize: 4096) work(a, b)",
        )
        .unwrap();
        let space = KnobSpace {
            granularities: vec![Granularity::Warp, Granularity::Grid],
            buffers: vec![BufferKind::Custom, BufferKind::Halloc],
            per_buffer_sizes: vec![None, Some(256)],
            configs: vec![None, Some((13, 128))],
        };
        let cands = base.enumerate(&space);
        assert_eq!(cands.len(), space.len());
        assert_eq!(cands.len(), 16);
        for c in &cands {
            assert_eq!(c.work, base.work, "work clause is not a tuning knob");
            assert_eq!(c.total_size, base.total_size);
        }
        // None per-buffer-size keeps the base's 64; Some overrides.
        assert!(cands.iter().any(|c| c.per_buffer_size == Some(SizeSpec::Items(64))));
        assert!(cands.iter().any(|c| c.per_buffer_size == Some(SizeSpec::Items(256))));
        // Config knob sets both clauses or clears both.
        assert!(cands.iter().any(|c| c.blocks == Some(13) && c.threads == Some(128)));
        assert!(cands.iter().any(|c| c.blocks.is_none() && c.threads.is_none()));
        // Deterministic order.
        assert_eq!(cands, base.enumerate(&space));
    }

    #[test]
    fn enumerate_skips_degenerate_configs() {
        let base = Directive::new(Granularity::Warp, &["x"]);
        let space = KnobSpace {
            granularities: vec![Granularity::Warp],
            buffers: vec![BufferKind::Custom],
            per_buffer_sizes: vec![None],
            configs: vec![Some((0, 128)), Some((4, 0)), Some((4, 128))],
        };
        let cands = base.enumerate(&space);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].blocks, Some(4));
    }

    #[test]
    fn enumerated_candidates_roundtrip_through_pragma_text() {
        let base = Directive::parse("dp consldt(warp) buffer(custom) work(u)").unwrap();
        for c in base.enumerate(&KnobSpace::quick(13)) {
            let reparsed = Directive::parse(&c.to_pragma()).unwrap();
            assert_eq!(c, reparsed);
        }
    }
}
