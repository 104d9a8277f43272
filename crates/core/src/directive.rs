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
//! (Section IV.D). The `buffer` kind names the simulator allocator that
//! serves the consolidation buffers: `default` and `halloc` are the device
//! heap allocators, `custom` is the pre-allocated pool
//! ([`AllocKind::PreAlloc`]).
//!
//! A [`Knobs`] value is one point of that tuning surface. [`Knobs::apply`]
//! is the only way a knob point becomes a directive and [`Knobs::of`] the
//! only way back.

use std::fmt;

use dpcons_sim::AllocKind;

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
    /// The allocator the `buffer` clause selects (`custom` = the pool).
    pub buffer: AllocKind,
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
            buffer: AllocKind::PreAlloc,
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

    /// Render back to pragma text (round-trip tested).
    pub fn to_pragma(&self) -> String {
        let mut s = format!("#pragma dp consldt({})", self.granularity.label());
        let kind = match self.buffer {
            AllocKind::Default => "default",
            AllocKind::Halloc => "halloc",
            AllocKind::PreAlloc => "custom",
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

/// One candidate point in the directive knob space: consolidation
/// granularity × buffer allocator × `perBufferSize` × consolidated-kernel
/// `(blocks, threads)`. The [`Knobs::label`] form is part of the
/// results-cache format, so it must round-trip exactly and never change
/// behind a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Knobs {
    pub granularity: Granularity,
    /// The allocator of the `buffer` clause.
    pub alloc: AllocKind,
    /// Per-buffer capacity in items; `None` = the app directive's own value.
    pub per_buffer_size: Option<u64>,
    /// `(blocks, threads)` of the consolidated kernel; `None` = no clauses,
    /// so `consolidate`'s policy argument or the paper's per-granularity
    /// `KC_X` policy picks the shape for the device (`cfg=-`).
    pub config: Option<(u32, u32)>,
}

impl Knobs {
    /// The knob coordinates of `d`: a symbolic `perBufferSize` and a lone
    /// `blocks` or `threads` clause have none (`None`).
    pub fn of(d: &Directive) -> Knobs {
        Knobs {
            granularity: d.granularity,
            alloc: d.buffer,
            per_buffer_size: match &d.per_buffer_size {
                Some(SizeSpec::Items(n)) => Some(*n),
                _ => None,
            },
            config: d.blocks.zip(d.threads),
        }
    }

    /// `d` with these knobs written into its clauses. `work` and `totalSize`
    /// are kept, and so is `d`'s `perBufferSize` when this point has none;
    /// the `blocks`/`threads` clauses are both set or both cleared.
    pub fn apply(&self, d: &Directive) -> Directive {
        let per_buffer_size =
            self.per_buffer_size.map(SizeSpec::Items).or_else(|| d.per_buffer_size.clone());
        Directive {
            granularity: self.granularity,
            buffer: self.alloc,
            per_buffer_size,
            blocks: self.config.map(|(b, _)| b),
            threads: self.config.map(|(_, t)| t),
            ..d.clone()
        }
    }

    /// Human-readable and cache-stable label, e.g.
    /// `grid/pre-alloc/pbs=256/cfg=13x64` or `warp/halloc/pbs=-/cfg=-`.
    pub fn label(&self) -> String {
        let pbs = match self.per_buffer_size {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        let cfg = match self.config {
            Some((b, t)) => format!("{b}x{t}"),
            None => "-".to_string(),
        };
        format!("{}/{}/pbs={}/cfg={}", self.granularity.label(), self.alloc.label(), pbs, cfg)
    }

    /// Parse the [`Knobs::label`] form back.
    pub fn parse(s: &str) -> Result<Knobs, String> {
        let parts: Vec<&str> = s.split('/').collect();
        if parts.len() != 4 {
            return Err(format!("bad knobs `{s}`"));
        }
        let granularity = Granularity::ALL
            .into_iter()
            .find(|g| g.label() == parts[0])
            .ok_or_else(|| format!("bad granularity `{}`", parts[0]))?;
        let alloc = [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc]
            .into_iter()
            .find(|a| a.label() == parts[1])
            .ok_or_else(|| format!("bad allocator `{}`", parts[1]))?;
        let pbs = parts[2].strip_prefix("pbs=").ok_or_else(|| format!("bad pbs field in `{s}`"))?;
        let per_buffer_size = match pbs {
            "-" => None,
            n => Some(n.parse::<u64>().map_err(|e| format!("bad pbs `{n}`: {e}"))?),
        };
        let cfg = parts[3].strip_prefix("cfg=").ok_or_else(|| format!("bad cfg field in `{s}`"))?;
        let config = match cfg {
            "-" => None,
            c => {
                let (b, t) = c.split_once('x').ok_or_else(|| format!("bad cfg `{c}`"))?;
                Some((
                    b.parse::<u32>().map_err(|e| format!("bad blocks `{b}`: {e}"))?,
                    t.parse::<u32>().map_err(|e| format!("bad threads `{t}`: {e}"))?,
                ))
            }
        };
        Ok(Knobs { granularity, alloc, per_buffer_size, config })
    }
}

/// The grid of directive tuning knobs an autotuner sweeps: the cartesian
/// product of consolidation granularity, buffer allocator, per-buffer
/// capacity, and consolidated-kernel `(blocks, threads)` configuration.
/// `None` entries mean "keep the base directive's / policy's choice".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobSpace {
    pub granularities: Vec<Granularity>,
    pub buffers: Vec<AllocKind>,
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
            buffers: vec![AllocKind::PreAlloc, AllocKind::Halloc, AllocKind::Default],
            per_buffer_sizes: vec![None, Some(128)],
            configs: vec![None, Some((sms, 64)), Some((sms, 256)), Some((4 * sms, 256))],
        }
    }

    /// The size of the knob product: an upper bound on the enumerated
    /// candidates, which skip degenerate configurations (`blocks` or
    /// `threads` of 0) and keep one point per generated program (grid level
    /// reads neither buffer knob; see [`crate::generated_buffer`]).
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
        while let Some(c) = self.text[self.pos..].chars().next().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
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

    /// The next word: a run of alphanumerics and `_` (a keyword, a number
    /// or a variable name).
    fn word(&mut self) -> Result<String, DirectiveError> {
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

    /// Whether the next word starts with a digit, so it can only be a number.
    fn at_number(&mut self) -> bool {
        self.skip_ws();
        self.text[self.pos..].starts_with(char::is_numeric)
    }

    /// A `u64` argument of `clause`; anything else is an error naming it.
    fn number(&mut self, clause: &str) -> Result<u64, DirectiveError> {
        let word = self.word()?;
        word.parse::<u64>().map_err(|_| {
            self.err(format!("`{clause}` expects a number below 2^64, found `{word}`"))
        })
    }

    /// A variable name argument of `clause`: a word not led by a digit.
    fn var(&mut self, clause: &str) -> Result<String, DirectiveError> {
        let digit_led = self.at_number();
        let word = self.word()?;
        if digit_led {
            return Err(self.err(format!("`{clause}` expects a variable name, found `{word}`")));
        }
        Ok(word)
    }

    /// A `u32` clause argument; a larger number is an error naming `clause`.
    fn count(&mut self, clause: &str) -> Result<u32, DirectiveError> {
        let n = self.number(clause)?;
        u32::try_from(n).map_err(|_| self.err(format!("`{clause}({n})` exceeds {}", u32::MAX)))
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
        let mut buffer = AllocKind::PreAlloc;
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
            let clause = self.word()?;
            self.expect("(")?;
            match clause.as_str() {
                "consldt" => {
                    let g = self.word()?;
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
                    let kind = self.word()?;
                    buffer = match kind.as_str() {
                        "default" => AllocKind::Default,
                        "halloc" => AllocKind::Halloc,
                        "custom" => AllocKind::PreAlloc,
                        other => {
                            return Err(self.err(format!(
                                "unknown buffer type `{other}` (expected default|halloc|custom)"
                            )))
                        }
                    };
                    while self.eat(",") {
                        let key = self.word()?;
                        self.expect(":")?;
                        match key.as_str() {
                            "perBufferSize" => {
                                per_buffer_size = Some(if self.at_number() {
                                    SizeSpec::Items(self.number("perBufferSize")?)
                                } else {
                                    SizeSpec::Var(self.var("perBufferSize")?)
                                })
                            }
                            "totalSize" => total_size = Some(self.number("totalSize")?),
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
                    let mut vars = vec![self.var("work")?];
                    while self.eat(",") {
                        vars.push(self.var("work")?);
                    }
                    work = Some(vars);
                }
                "threads" => threads = Some(self.count("threads")?),
                "blocks" => blocks = Some(self.count("blocks")?),
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
    fn buffer_clauses_map_one_to_one_onto_allocators() {
        let pairs = [
            ("default", AllocKind::Default),
            ("halloc", AllocKind::Halloc),
            ("custom", AllocKind::PreAlloc),
        ];
        for (token, a) in pairs {
            let d = Directive::parse(&format!("dp consldt(warp) buffer({token}) work(x)")).unwrap();
            assert_eq!(d.buffer, a);
            assert!(d.to_pragma().contains(&format!("buffer({token})")), "{}", d.to_pragma());
        }
    }

    #[test]
    fn parses_figure4_example() {
        // Figure 4(a): block-level consolidation, custom buffer of 256
        // entries, buffering `curr`.
        let d = Directive::parse(
            "#pragma dp consldt(block) buffer(custom, perBufferSize: 256) work(curr)",
        )
        .unwrap();
        assert_eq!(d.granularity, Granularity::Block);
        assert_eq!(d.buffer, AllocKind::PreAlloc);
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
        assert_eq!(d.buffer, AllocKind::Halloc);
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

    /// Whitespace is skipped a whole character at a time: a multi-byte
    /// space (U+3000, three bytes) between tokens parses, and one inside a
    /// token is a typed error, not a panic on a char boundary.
    #[test]
    fn non_ascii_whitespace_is_skipped_by_whole_characters() {
        let d = Directive::parse("dp\u{3000}consldt(warp)\u{a0}work(\u{2003}x)").unwrap();
        assert_eq!(d.granularity, Granularity::Warp);
        assert_eq!(d.work, vec!["x"]);
        let e = Directive::parse("dp consldt(\u{3000}) work(x)").unwrap_err();
        assert!(e.message.contains("identifier"), "{e}");
    }

    #[test]
    fn launch_shape_clauses_larger_than_u32_are_rejected() {
        let e = Directive::parse("dp consldt(warp) work(x) threads(4294967360)").unwrap_err();
        assert!(e.message.contains("threads(4294967360)"), "{e}");
        let e = Directive::parse("dp consldt(warp) work(x) blocks(4294967296)").unwrap_err();
        assert!(e.message.contains("blocks(4294967296)"), "{e}");
        let d = Directive::parse("dp consldt(warp) work(x) blocks(4294967295)").unwrap();
        assert_eq!(d.blocks, Some(u32::MAX));
    }

    /// A word led by a digit is a number or an error naming its clause,
    /// never a variable name.
    #[test]
    fn digit_led_words_are_numbers_or_errors_naming_the_clause() {
        let cases = [
            ("buffer(custom, perBufferSize: 12abc) work(x)", "perBufferSize", "12abc"),
            (
                "buffer(custom, perBufferSize: 99999999999999999999) work(x)",
                "perBufferSize",
                "9999",
            ),
            ("buffer(custom, totalSize: 12abc) work(x)", "totalSize", "12abc"),
            ("work(9u)", "work", "9u"),
        ];
        for (clauses, name, word) in cases {
            let e = Directive::parse(&format!("dp consldt(warp) {clauses}")).unwrap_err();
            assert!(e.message.contains(&format!("`{name}`")), "{clauses}: {e}");
            assert!(e.message.contains(word), "{clauses}: {e}");
        }
        let d = Directive::parse("dp consldt(warp) buffer(custom, perBufferSize: 12) work(x)");
        assert_eq!(d.unwrap().per_buffer_size, Some(SizeSpec::Items(12)));
    }

    #[test]
    fn empty_work_rejected() {
        assert!(Directive::parse("dp consldt(warp) work()").is_err());
    }

    #[test]
    fn knobs_label_roundtrips() {
        let cases = [
            Knobs {
                granularity: Granularity::Warp,
                alloc: AllocKind::Halloc,
                per_buffer_size: None,
                config: None,
            },
            Knobs {
                granularity: Granularity::Grid,
                alloc: AllocKind::PreAlloc,
                per_buffer_size: Some(256),
                config: Some((13, 64)),
            },
            Knobs {
                granularity: Granularity::Block,
                alloc: AllocKind::Default,
                per_buffer_size: Some(1),
                config: Some((1, 1024)),
            },
        ];
        for k in cases {
            assert_eq!(Knobs::parse(&k.label()).unwrap(), k, "{}", k.label());
        }
        assert!(Knobs::parse("warp/pre-alloc/pbs=1").is_err());
        assert!(Knobs::parse("nope/pre-alloc/pbs=-/cfg=-").is_err());
        assert!(Knobs::parse("warp/custom/pbs=-/cfg=-").is_err());
    }

    /// `apply` writes every knob into its clause and keeps the rest of the
    /// directive; `of` reads the knobs back, and a point without a
    /// `perBufferSize` or launch shape keeps the directive's own or has none.
    #[test]
    fn knobs_apply_and_of_are_inverse() {
        let base = Directive::parse(
            "dp consldt(block) buffer(custom, perBufferSize: 64, totalSize: 4096) work(a, b) \
             threads(32) blocks(2)",
        )
        .unwrap();
        let k = Knobs {
            granularity: Granularity::Grid,
            alloc: AllocKind::Halloc,
            per_buffer_size: Some(256),
            config: Some((13, 128)),
        };
        let d = k.apply(&base);
        assert_eq!(Knobs::of(&d), k);
        assert_eq!((d.work.clone(), d.total_size), (base.work.clone(), base.total_size));
        assert_eq!((d.blocks, d.threads), (Some(13), Some(128)));

        let k = Knobs { per_buffer_size: None, config: None, ..k };
        let d = k.apply(&base);
        assert_eq!(d.per_buffer_size, Some(SizeSpec::Items(64)), "None keeps the base's size");
        assert_eq!((d.blocks, d.threads), (None, None), "None clears both shape clauses");
        assert_eq!(Knobs::of(&d), Knobs { per_buffer_size: Some(64), ..k });

        let symbolic = Directive::parse(
            "dp consldt(warp) buffer(custom, perBufferSize: deg) \
                                         work(u) blocks(4)",
        )
        .unwrap();
        let k = Knobs::of(&symbolic);
        assert_eq!((k.per_buffer_size, k.config), (None, None));
        assert_eq!(k.apply(&symbolic), Directive { blocks: None, ..symbolic });
    }
}
