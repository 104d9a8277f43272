//! Tuning-knob value sets and their stable textual form.
//!
//! A [`Knobs`] value is one point in the directive configuration space of
//! paper Table I: consolidation granularity × buffer allocator ×
//! `perBufferSize` × consolidated-kernel `(blocks, threads)`. The textual
//! form is part of the results-cache format, so it must round-trip exactly
//! and never change behind a version.

use dpcons_core::{Directive, Granularity, SizeSpec};
use dpcons_sim::AllocKind;

/// One candidate point in the directive knob space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Knobs {
    pub granularity: Granularity,
    pub alloc: AllocKind,
    /// Per-buffer capacity in items; `None` = the app directive's own value.
    pub per_buffer_size: Option<u64>,
    /// `(blocks, threads)` of the consolidated kernel; `None` = the paper's
    /// per-granularity `KC_X` policy.
    pub config: Option<(u32, u32)>,
}

impl Knobs {
    /// Project an enumerated [`Directive`] onto its knob coordinates.
    pub fn from_directive(d: &Directive) -> Knobs {
        Knobs {
            granularity: d.granularity,
            alloc: d.buffer.into(),
            per_buffer_size: match &d.per_buffer_size {
                Some(SizeSpec::Items(n)) => Some(*n),
                _ => None,
            },
            config: match (d.blocks, d.threads) {
                (Some(b), Some(t)) => Some((b, t)),
                _ => None,
            },
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
        let granularity = match parts[0] {
            "warp" => Granularity::Warp,
            "block" => Granularity::Block,
            "grid" => Granularity::Grid,
            other => return Err(format!("bad granularity `{other}`")),
        };
        let alloc = match parts[1] {
            "default" => AllocKind::Default,
            "halloc" => AllocKind::Halloc,
            "pre-alloc" => AllocKind::PreAlloc,
            other => return Err(format!("bad allocator `{other}`")),
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_core::KnobSpace;

    #[test]
    fn label_roundtrips() {
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
    }

    #[test]
    fn from_directive_projects_all_enumerated_points() {
        let base = Directive::parse("dp consldt(warp) buffer(custom) work(u)").unwrap();
        for d in base.enumerate(&KnobSpace::quick(13)) {
            let k = Knobs::from_directive(&d);
            assert_eq!(k.granularity, d.granularity);
            assert_eq!(k.alloc, AllocKind::from(d.buffer));
        }
    }
}
