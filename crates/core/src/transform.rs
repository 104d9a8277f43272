//! The workload-consolidation code transformations (paper Section IV.C).
//!
//! Two cooperating rewrites:
//!
//! * **Child kernel transformation** — the input child kernel becomes a
//!   *consolidated* child that fetches work items from the consolidation
//!   buffer and processes them with the original code. The fetch granularity
//!   follows the child's launch-configuration class: solo-thread children get
//!   a grid-stride item loop, solo-block children a block-stride item loop,
//!   multi-block children a whole-grid per-item loop. The generated kernels
//!   are *moldable* (tunable configuration) whenever the input is.
//!
//! * **Parent kernel transformation** — (1) consolidation-buffer allocation
//!   before the prework, (2) prework kept in place, (3) the child launch
//!   replaced by buffer insertions, (4) the granularity's barrier inserted
//!   (implicit for warp, `__syncthreads` for block, an atomic-counter global
//!   barrier for grid), and (5) postwork handling — in place for warp/block;
//!   consolidated into a dedicated kernel launched by the last block after a
//!   `cudaDeviceSynchronize` for grid level, with prework dependencies
//!   duplicated via a backward slice.
//!
//! For parallel recursion (parent == child) the two transformations are
//! applied to the single kernel sequentially, yielding one consolidated
//! kernel per recursion level at grid granularity.
//!
//! Both templates build each step from the same code: the warp/block buffer
//! allocation, the insertion, the granularity barrier with its one launching
//! thread, the consolidated kernel's header and item fetch loop, and the
//! launch itself, whose `<<<grid, block>>>` is the one [`LaunchShape`]
//! [`consolidate`] resolves (the host launch of a recursive entry is that
//! shape at its seeded item).

use dpcons_ir::ast::{AllocScope, Expr, Kernel, Module, Param, ParamKind, Stmt};
use dpcons_ir::dsl::*;
use dpcons_sim::{AllocKind, GpuConfig, WARP_SIZE};

use crate::analysis::{analyze, const_eval, Analysis, ChildClass, LaunchInfo, TransformError};
use crate::directive::{Directive, Granularity, SizeSpec};
use crate::occupancy::{ConfigPolicy, KernelResources, LaunchShape};

/// The grid-level pool layout. The host passes the pool `__cons_pool`, one
/// barrier counter per buffer in `__cons_counter`, and for recursion the
/// level `__cons_level` (0) after them.
#[derive(Debug, Clone, PartialEq)]
pub struct GridExtras {
    /// Buffers the generated code addresses in the pool, one barrier-counter
    /// slot each: the single buffer of the irregular-loop template, or one
    /// per recursion level plus the buffer the deepest level inserts into.
    pub levels: usize,
    /// Word stride between per-level buffers in the pool (0 without recursion).
    pub level_stride: i64,
}

impl GridExtras {
    /// Pool word offsets of the per-buffer count headers. A buffer is its
    /// count at `off` followed by items at `off + 1 + slot * nv + j` with
    /// `slot < count`, so these are the only pool words consolidated code
    /// reads before writing: the host clears them (and nothing else) between
    /// launches.
    pub fn header_offsets(&self) -> impl Iterator<Item = usize> {
        let stride = self.level_stride as usize;
        (0..self.levels).map(move |level| level.saturating_mul(stride))
    }
}

/// Everything the host runtime needs to launch the consolidated code.
#[derive(Debug, Clone)]
pub struct TransformInfo {
    pub granularity: Granularity,
    pub recursive: bool,
    /// Kernel the host launches (the transformed parent, or the consolidated
    /// recursive kernel).
    pub entry: String,
    pub postwork: Option<String>,
    /// Launch-argument positions buffered per item (buffer layout order):
    /// an item is `buffered_positions.len()` words.
    pub buffered_positions: Vec<usize>,
    /// Launch-argument positions passed through to the consolidated child.
    pub passthrough_positions: Vec<usize>,
    /// The consolidated kernel's launch shape; a recursive entry's host
    /// launch is this shape at its one seeded item.
    pub shape: LaunchShape,
    pub grid_extras: Option<GridExtras>,
}

/// Result of consolidation: the rewritten module plus launch metadata.
#[derive(Debug, Clone)]
pub struct Consolidated {
    pub module: Module,
    pub info: TransformInfo,
}

/// [`WARP_SIZE`] as an IR immediate.
const WARP: i64 = WARP_SIZE as i64;

/// Recursion levels that can execute (device nesting limit + root): the
/// divisor of `totalSize` and, through [`GridExtras::levels`], the number of
/// pool buffers and barrier counters the host runtime maintains.
const GRID_LEVELS: usize = 25;

/// Guard selecting the first lane of the block's *last* warp. After the
/// consolidation barrier any single thread may perform the launch; using the
/// last warp's leader (instead of thread 0) also matches the simulator's
/// sequential-warp memory model, in which earlier warps' buffer insertions
/// complete before the last warp runs.
fn last_warp_leader() -> Expr {
    land(eq(rem(tid(), i(WARP)), i(0)), eq(div(tid(), i(WARP)), div(sub(ntid(), i(1)), i(WARP))))
}

/// Apply the workload-consolidation transformation to `parent_name` in
/// `module` according to `directive`, selecting nested-kernel configurations
/// for `gpu`. This is the one place a consolidated launch shape is decided:
/// the directive's `blocks`/`threads` clauses when it has both, else
/// `policy`, else the paper's per-granularity `KC_X` policy.
pub fn consolidate(
    module: &Module,
    parent_name: &str,
    directive: &Directive,
    gpu: &GpuConfig,
    policy: Option<ConfigPolicy>,
) -> Result<Consolidated, TransformError> {
    let analysis = analyze(module, parent_name, directive)?;
    let ctx = Ctx::new(module, parent_name, directive, &analysis, gpu, policy)?;
    if analysis.recursive {
        ctx.transform_recursive()
    } else {
        ctx.transform_irregular_loop()
    }
}

/// The buffer clauses of `d` as the code [`consolidate`] generates reads
/// them: `None` at grid level, whose buffers live in the host's pool whatever
/// the allocator and `perBufferSize`; else the allocator and the per-buffer
/// capacity in items, folded to a constant where it folds. Without
/// `perBufferSize` the capacity is 4 items per thread of the scope:
/// `4 × warpSize` at warp level, `4 × blockDim.x` at block level. Two
/// directives that differ only in clauses this drops generate one program.
pub fn generated_buffer(d: &Directive) -> Option<(AllocKind, Expr)> {
    let capacity = match (&d.per_buffer_size, d.granularity) {
        (_, Granularity::Grid) => return None,
        (Some(SizeSpec::Items(n)), _) => i(*n as i64),
        (Some(SizeSpec::Var(name)), _) => v(name),
        (None, Granularity::Warp) => i(WARP * 4),
        (None, Granularity::Block) => mul(ntid(), i(4)),
    };
    Some((d.buffer, const_eval(&capacity).map_or(capacity, Expr::I)))
}

struct Ctx<'a> {
    module: &'a Module,
    parent: &'a Kernel,
    child: &'a Kernel,
    directive: &'a Directive,
    a: &'a Analysis,
    shape: LaunchShape,
}

impl<'a> Ctx<'a> {
    fn new(
        module: &'a Module,
        parent_name: &str,
        directive: &'a Directive,
        a: &'a Analysis,
        gpu: &GpuConfig,
        policy: Option<ConfigPolicy>,
    ) -> Result<Self, TransformError> {
        let parent = module.get(parent_name).expect("analysis checked existence");
        let child = module.get(&a.launch.target).expect("analysis checked existence");
        // Validate a Var-based perBufferSize against the parent's params.
        if let Some(SizeSpec::Var(name)) = &directive.per_buffer_size {
            if parent.param_index(name).is_none() {
                return Err(TransformError::NonUniformArg {
                    kernel: parent_name.to_string(),
                    position: usize::MAX,
                    detail: format!("perBufferSize variable `{name}` is not a kernel parameter"),
                });
            }
        }
        let shape = match directive.blocks.zip(directive.threads) {
            Some((b, t)) => LaunchShape::Fixed(b, t),
            None => {
                let res = KernelResources {
                    regs_per_thread: child.regs_per_thread,
                    shared_bytes: child.shared_bytes,
                };
                policy
                    .unwrap_or_else(|| ConfigPolicy::default_for(directive.granularity))
                    .shape(gpu, res, &a.launch)
            }
        };
        Ok(Ctx { module, parent, child, directive, a, shape })
    }

    fn launch(&self) -> &LaunchInfo {
        &self.a.launch
    }

    fn nv(&self) -> usize {
        self.launch().buffered.len()
    }

    fn child_cons_name(&self) -> String {
        format!("{}__cons", self.child.name)
    }

    fn postwork_name(&self) -> String {
        format!("{}__postwork", self.parent.name)
    }

    /// Pool stride between recursion levels (grid level), in words.
    fn level_stride(&self) -> i64 {
        let items = match self.directive.total_size {
            Some(t) => (t as i64 / GRID_LEVELS as i64).max(64),
            None => 1 << 16,
        };
        1 + items * self.nv() as i64
    }

    // ------------------------------------------------------------------
    // The paper's steps, shared by both templates.
    // ------------------------------------------------------------------

    /// Step (1) at warp/block level: allocate the buffer `buf`/`off` of
    /// `1 (count) + capacity * nv` words in the granularity's scope and zero
    /// its count from one thread (at block level behind a barrier). `None` at
    /// grid level, whose buffers live in the host's pool.
    fn alloc_buffer(&self, buf: &str, off: &str) -> Option<Vec<Stmt>> {
        let (_, capacity) = generated_buffer(self.directive)?;
        let words = add(i(1), mul(capacity, i(self.nv() as i64)));
        let zero = vec![store(v(buf), v(off), i(0))];
        Some(if self.directive.granularity == Granularity::Warp {
            vec![
                alloc(buf, off, words, AllocScope::Warp),
                when(eq(rem(tid(), i(WARP)), i(0)), zero),
            ]
        } else {
            vec![alloc(buf, off, words, AllocScope::Block), when(eq(tid(), i(0)), zero), sync()]
        })
    }

    /// The grid-level pool parameters: pool, barrier counters, and for
    /// recursion the level.
    fn grid_params(&self) -> Vec<Param> {
        let mut out = vec![
            Param { name: "__cons_pool".into(), kind: ParamKind::Array },
            Param { name: "__cons_counter".into(), kind: ParamKind::Array },
        ];
        if self.a.recursive {
            out.push(Param { name: "__cons_level".into(), kind: ParamKind::Scalar });
        }
        out
    }

    /// Step (3): the buffer insertion replacing the child launch: reserve a
    /// slot with an atomic counter bump, then store the work variables.
    fn insertion_stmts(&self, buf: &str, off: &str) -> Vec<Stmt> {
        let nv = self.nv() as i64;
        let mut out = vec![atomic_add(Some("__cons_slot"), v(buf), v(off), i(1))];
        for (j, &pos) in self.launch().buffered.iter().enumerate() {
            let item_base = add(add(v(off), i(1)), mul(v("__cons_slot"), i(nv)));
            out.push(store(v(buf), add(item_base, i(j as i64)), self.launch().args[pos].clone()));
        }
        out
    }

    /// Replace the unique Launch statement within `stmts` by `replacement`.
    fn replace_launch(&self, stmts: &[Stmt], replacement: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Launch { .. } => out.extend_from_slice(replacement),
                Stmt::If(c, t, e) => out.push(Stmt::If(
                    c.clone(),
                    self.replace_launch(t, replacement),
                    self.replace_launch(e, replacement),
                )),
                Stmt::While(c, b) => {
                    out.push(Stmt::While(c.clone(), self.replace_launch(b, replacement)))
                }
                Stmt::For { var, lo, hi, step, body } => out.push(Stmt::For {
                    var: var.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: step.clone(),
                    body: self.replace_launch(body, replacement),
                }),
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// The consolidated launch over the items buffered in `buf`/`off`: read
    /// their count into `cnt` and launch the consolidated child with `args`
    /// in the one [`LaunchShape`] when there are any. A recursive grid-level
    /// launch first records the next level's block count for its barrier.
    fn launch_buffered(&self, cnt: &str, buf: &str, off: &str, args: Vec<Expr>) -> Vec<Stmt> {
        let (grid, block) = self.shape.exprs(v(cnt));
        let mut then = Vec::new();
        if self.a.recursive && self.directive.granularity == Granularity::Grid {
            then.push(store(v("__cons_counter"), add(v("__cons_level"), i(1)), grid.clone()));
        }
        then.push(launch(&self.child_cons_name(), grid, block, args));
        vec![let_(cnt, load(v(buf), v(off))), when(gt(v(cnt), i(0)), then)]
    }

    /// Step (4): the granularity's barrier, after which one thread runs
    /// `launch`: lane 0 of each warp (a warp runs in lockstep), the last
    /// warp's leader after `__syncthreads`, or the last warp's leader of the
    /// last block to arrive at the grid barrier counter `__cons_counter[slot]`.
    fn barrier_then(&self, slot: Expr, launch: Vec<Stmt>) -> Vec<Stmt> {
        match self.directive.granularity {
            Granularity::Warp => vec![when(eq(rem(tid(), i(WARP)), i(0)), launch)],
            Granularity::Block => vec![sync(), when(last_warp_leader(), launch)],
            Granularity::Grid => vec![when(
                last_warp_leader(),
                vec![
                    atomic_add(Some("__cons_bar"), v("__cons_counter"), slot, i(-1)),
                    when(eq(v("__cons_bar"), i(1)), launch),
                ],
            )],
        }
    }

    /// Pass-through argument expressions for the consolidated child launch.
    /// (They are uniform, so they remain valid wherever the launch moves.)
    fn passthrough_args(&self) -> Vec<Expr> {
        self.launch().passthrough.iter().map(|&p| self.launch().args[p].clone()).collect()
    }

    fn info(&self, postwork: Option<String>) -> TransformInfo {
        let recursive = self.a.recursive;
        TransformInfo {
            granularity: self.directive.granularity,
            recursive,
            entry: if recursive { self.child_cons_name() } else { self.parent.name.clone() },
            postwork,
            buffered_positions: self.launch().buffered.clone(),
            passthrough_positions: self.launch().passthrough.clone(),
            shape: self.shape,
            grid_extras: (self.directive.granularity == Granularity::Grid).then(|| GridExtras {
                levels: if recursive { GRID_LEVELS + 1 } else { 1 },
                level_stride: if recursive { self.level_stride() } else { 0 },
            }),
        }
    }

    // ------------------------------------------------------------------
    // Child transformation.
    // ------------------------------------------------------------------

    /// The consolidated child's header: the child's resources and its
    /// pass-through parameters (the buffer parameters follow).
    fn cons_kernel(&self) -> Kernel {
        let mut k = Kernel::new(&self.child_cons_name());
        k.regs_per_thread = self.child.regs_per_thread;
        k.shared_bytes = self.child.shared_bytes;
        for &p in &self.launch().passthrough {
            k.params.push(self.child.params[p].clone());
        }
        k
    }

    /// Wrap `body` in the item-fetch loop appropriate to the child class,
    /// binding each buffered child parameter from the buffer per item.
    fn fetch_loop(&self, body: Vec<Stmt>) -> Vec<Stmt> {
        let nv = self.nv() as i64;
        let mut inner = Vec::new();
        for (j, &pos) in self.launch().buffered.iter().enumerate() {
            let idx =
                add(add(v("__cons_off"), i(1)), add(mul(v("__cons_item"), i(nv)), i(j as i64)));
            inner.push(let_(&self.child.params[pos].name, load(v("__cons_buf"), idx)));
        }
        inner.extend(body);
        let (first, stride) = match self.launch().class {
            // Moldable grid-stride loop: every thread fetches items.
            ChildClass::SoloThread => (gtid(), mul(ntid(), ncta())),
            // Moldable block-stride loop: each block fetches an item and its
            // threads process it cooperatively; a barrier separates
            // consecutive items.
            ChildClass::SoloBlock => {
                inner.push(sync());
                (cta_id(), ncta())
            }
            // The whole grid cooperates on each item in turn.
            ChildClass::MultiBlock => (i(0), i(1)),
        };
        inner.push(assign("__cons_item", add(v("__cons_item"), stride)));
        vec![
            let_("__cons_cnt", load(v("__cons_buf"), v("__cons_off"))),
            let_("__cons_item", first),
            while_(lt(v("__cons_item"), v("__cons_cnt")), inner),
        ]
    }

    // ------------------------------------------------------------------
    // Parent transformation (irregular loops: parent != child).
    // ------------------------------------------------------------------

    fn transform_irregular_loop(self) -> Result<Consolidated, TransformError> {
        let g = self.directive.granularity;
        let mut module = self.module.clone();

        // 1. Consolidated child: fetch loop + original body.
        let mut child_cons = self.cons_kernel();
        child_cons.params.extend(buffer_params());
        child_cons.body = self.fetch_loop(self.child.body.clone());
        module.add(child_cons);

        // 2. Transformed parent.
        let mut parent = self.parent.clone();
        let split = self.launch().top_level_index;
        let prework: Vec<Stmt> = parent.body[..=split].to_vec();
        let postwork: Vec<Stmt> = parent.body[split + 1..].to_vec();

        // (1) buffer allocation before the prework.
        let mut body = match self.alloc_buffer("__cons_buf", "__cons_off") {
            Some(alloc) => alloc,
            None => {
                parent.params.extend(self.grid_params());
                vec![let_("__cons_buf", v("__cons_pool")), let_("__cons_off", i(0))]
            }
        };

        // (2)+(3) prework with the launch replaced by buffer insertions.
        let insertion = self.insertion_stmts("__cons_buf", "__cons_off");
        body.extend(self.replace_launch(&prework, &insertion));

        // (4) barrier + consolidated launch.
        let mut cons_args = self.passthrough_args();
        cons_args.extend([v("__cons_buf"), v("__cons_off")]);
        let mut do_launch =
            self.launch_buffered("__cons_cnt", "__cons_buf", "__cons_off", cons_args);

        // (5) postwork: in place for warp/block; at grid level consolidated
        // into its own kernel, launched after the children complete.
        let mut postwork_kernel = None;
        if g == Granularity::Grid && self.a.has_postwork {
            do_launch.push(device_sync());
            let pw_args: Vec<Expr> = self.parent.params.iter().map(|p| v(&p.name)).collect();
            do_launch.push(launch(&self.postwork_name(), ncta(), ntid(), pw_args));
            let mut pw = Kernel::new(&self.postwork_name());
            pw.params = self.parent.params.clone();
            pw.regs_per_thread = self.parent.regs_per_thread;
            pw.shared_bytes = self.parent.shared_bytes;
            pw.body = prework_slice(&prework, &postwork);
            pw.body.extend(strip_device_sync(&postwork));
            postwork_kernel = Some(pw.name.clone());
            module.add(pw);
        }
        body.extend(self.barrier_then(i(0), do_launch));
        if g != Granularity::Grid {
            body.extend(guard_device_sync(&postwork));
        }

        parent.body = body;
        module.replace(parent);
        Ok(Consolidated { module, info: self.info(postwork_kernel) })
    }

    // ------------------------------------------------------------------
    // Recursion (parent == child): child then parent transformation applied
    // sequentially to the single kernel.
    // ------------------------------------------------------------------

    fn transform_recursive(self) -> Result<Consolidated, TransformError> {
        let mut module = self.module.clone();
        let mut k = self.cons_kernel();

        // This level's buffer (`__cons_buf`/`__cons_off`) arrives as
        // parameters (warp/block) or is this level's pool slice (grid); the
        // next level's (`__cons_nbuf`/`__cons_noff`) is allocated or is the
        // next slice.
        let mut body = match self.alloc_buffer("__cons_nbuf", "__cons_noff") {
            Some(alloc) => {
                k.params.extend(buffer_params());
                alloc
            }
            None => {
                k.params.extend(self.grid_params());
                let stride = self.level_stride();
                vec![
                    let_("__cons_buf", v("__cons_pool")),
                    let_("__cons_off", mul(v("__cons_level"), i(stride))),
                    let_("__cons_nbuf", v("__cons_pool")),
                    let_("__cons_noff", mul(add(v("__cons_level"), i(1)), i(stride))),
                ]
            }
        };

        // Child transformation: fetch loop over this level's items, with the
        // recursive launch replaced by insertion into the next-level buffer.
        let insertion = self.insertion_stmts("__cons_nbuf", "__cons_noff");
        body.extend(self.fetch_loop(self.replace_launch(&self.child.body, &insertion)));

        // Parent transformation: barrier + next-level launch.
        let mut next_args = self.passthrough_args();
        if self.directive.granularity == Granularity::Grid {
            next_args.extend([v("__cons_pool"), v("__cons_counter"), add(v("__cons_level"), i(1))]);
        } else {
            next_args.extend([v("__cons_nbuf"), v("__cons_noff")]);
        }
        let do_launch =
            self.launch_buffered("__cons_ncnt", "__cons_nbuf", "__cons_noff", next_args);
        body.extend(self.barrier_then(v("__cons_level"), do_launch));

        k.body = body;
        module.add(k);
        Ok(Consolidated { module, info: self.info(None) })
    }
}

/// The `__cons_buf`/`__cons_off` parameters through which a consolidated
/// kernel receives the buffer it fetches from.
fn buffer_params() -> [Param; 2] {
    [
        Param { name: "__cons_buf".into(), kind: ParamKind::Array },
        Param { name: "__cons_off".into(), kind: ParamKind::Scalar },
    ]
}

// ----------------------------------------------------------------------
// Postwork support: prework slicing and device-sync handling.
// ----------------------------------------------------------------------

/// Names defined anywhere inside a statement (including nested bodies).
fn stmt_defined_names(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Let(n, _) | Stmt::Assign(n, _) => out.push(n.clone()),
        Stmt::Atomic { old: Some(n), .. } => out.push(n.clone()),
        Stmt::Alloc { handle_var, offset_var, .. } => {
            out.push(handle_var.clone());
            out.push(offset_var.clone());
        }
        Stmt::If(_, t, e) => {
            for x in t.iter().chain(e) {
                stmt_defined_names(x, out);
            }
        }
        Stmt::While(_, b) => {
            for x in b {
                stmt_defined_names(x, out);
            }
        }
        Stmt::For { var, body, .. } => {
            out.push(var.clone());
            for x in body {
                stmt_defined_names(x, out);
            }
        }
        _ => {}
    }
}

/// All names referenced anywhere inside a statement tree.
fn stmt_referenced_names(s: &Stmt, out: &mut Vec<String>) {
    dpcons_ir::visit_stmts(std::slice::from_ref(s), &mut |x| {
        dpcons_ir::stmt_exprs(x, &mut |e| {
            for n in dpcons_ir::expr_refs(e) {
                out.push(n);
            }
        });
    });
}

/// Remove the launch statement from a statement tree (used when slicing the
/// prework for the consolidated postwork kernel).
fn strip_launch(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Launch { .. } => {}
            Stmt::If(c, t, e) => out.push(Stmt::If(c.clone(), strip_launch(t), strip_launch(e))),
            Stmt::While(c, b) => out.push(Stmt::While(c.clone(), strip_launch(b))),
            Stmt::For { var, lo, hi, step, body } => out.push(Stmt::For {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                step: step.clone(),
                body: strip_launch(body),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Backward slice of the prework: the top-level prework statements (with the
/// launch removed) that define names the postwork reads, transitively
/// (Section IV.C: "dependencies between the prework and the postwork are
/// handled by duplicating in the postwork the relevant portions of prework").
pub fn prework_slice(prework: &[Stmt], postwork: &[Stmt]) -> Vec<Stmt> {
    let mut needed: Vec<String> = Vec::new();
    for s in postwork {
        stmt_referenced_names(s, &mut needed);
    }
    let candidates = strip_launch(prework);
    let mut keep = vec![false; candidates.len()];
    // Walk backwards so transitively-needed definitions are picked up.
    loop {
        let mut changed = false;
        for (idx, s) in candidates.iter().enumerate().rev() {
            if keep[idx] {
                continue;
            }
            let mut defined = Vec::new();
            stmt_defined_names(s, &mut defined);
            if defined.iter().any(|d| needed.contains(d)) {
                keep[idx] = true;
                stmt_referenced_names(s, &mut needed);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    candidates.into_iter().zip(keep).filter_map(|(s, k)| if k { Some(s) } else { None }).collect()
}

/// In postwork kept in the parent (warp/block level), a bare
/// `cudaDeviceSynchronize` executed by every thread is rewritten to a
/// `tid == 0` guard: the block-granularity wait semantics are identical and
/// it matches the sim's segmentation model.
fn guard_device_sync(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::DeviceSync => when(eq(tid(), i(0)), vec![device_sync()]),
            Stmt::If(c, t, e) => Stmt::If(c.clone(), guard_device_sync(t), guard_device_sync(e)),
            other => other.clone(),
        })
        .collect()
}

/// In the consolidated postwork kernel the children are already complete, so
/// any original `cudaDeviceSynchronize` becomes a no-op and is dropped.
fn strip_device_sync(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts
        .iter()
        .filter(|s| !matches!(s, Stmt::DeviceSync))
        .map(|s| match s {
            Stmt::If(c, t, e) => Stmt::If(c.clone(), strip_device_sync(t), strip_device_sync(e)),
            other => other.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::const_eval;

    fn irregular_module() -> Module {
        let mut m = Module::new();
        m.add(KernelBuilder::new("child").array("out").scalar("item").body(vec![store(
            v("out"),
            v("item"),
            tid(),
        )]));
        m.add(KernelBuilder::new("parent").array("out").scalar("n").body(vec![
            let_("id", gtid()),
            when(lt(v("id"), v("n")), vec![launch("child", i(1), i(32), vec![v("out"), v("id")])]),
        ]));
        m
    }

    fn recursive_module() -> Module {
        let mut m = Module::new();
        m.add(KernelBuilder::new("rec").array("next").scalar("node").body(vec![
            let_("c", load(v("next"), v("node"))),
            when(gt(v("c"), i(0)), vec![launch("rec", i(1), i(32), vec![v("next"), v("c")])]),
        ]));
        m
    }

    fn with_level(e: &Expr, level: i64) -> Expr {
        match e {
            Expr::Ref(n) if n == "__cons_level" => i(level),
            Expr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(with_level(a, level)), Box::new(with_level(b, level)))
            }
            other => other.clone(),
        }
    }

    /// Every pool offset a generated kernel loads a buffer count from
    /// (`__cons_cnt` / `__cons_ncnt`), over all levels that can execute.
    fn count_load_offsets(cons: &Consolidated) -> Vec<usize> {
        let mut out = Vec::new();
        for k in &cons.module.kernels {
            let mut lets: Vec<(&str, &Expr)> = Vec::new();
            dpcons_ir::visit_stmts(&k.body, &mut |s| {
                if let Stmt::Let(n, e) = s {
                    lets.push((n, e));
                }
            });
            for (name, e) in &lets {
                let Expr::Load(_, idx) = e else { continue };
                if !matches!(*name, "__cons_cnt" | "__cons_ncnt") {
                    continue;
                }
                let Expr::Ref(off) = &**idx else { panic!("count loaded from {idx:?}") };
                // The consolidated child takes the offset as a parameter; it
                // is the launching parent's `__cons_off`, collected there.
                let Some((_, def)) = lets.iter().find(|(n, _)| n == off) else {
                    assert!(k.param_index(off).is_some(), "`{off}` undefined in `{}`", k.name);
                    continue;
                };
                let levels = if cons.info.recursive { GRID_LEVELS as i64 } else { 1 };
                for level in 0..levels {
                    let at = const_eval(&with_level(def, level)).expect("offset is level-affine");
                    out.push(at as usize);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The launch shape's one precedence: both `blocks`/`threads` clauses,
    /// then the policy argument, then the paper's per-granularity default.
    #[test]
    fn launch_shape_clauses_beat_the_policy_argument_which_beats_the_default() {
        let gpu = GpuConfig::k20c();
        let shape = |pragma: &str, arg: Option<ConfigPolicy>| {
            let dir = Directive::parse(pragma).unwrap();
            consolidate(&irregular_module(), "parent", &dir, &gpu, arg).unwrap().info.shape
        };
        let shaped = "dp consldt(block) work(id) blocks(7) threads(96)";
        let bare = "dp consldt(block) work(id)";
        let arg = Some(ConfigPolicy::OneToOne);
        let kc16 = shape(bare, Some(ConfigPolicy::Kc(16)));
        assert!(matches!(kc16, LaunchShape::Fixed(..)), "{kc16:?}");
        // The child `<<<1, 32>>>` is block-mapped: 1-1 is a 32-thread block per item.
        assert_eq!(shape(shaped, arg), LaunchShape::Fixed(7, 96));
        assert_eq!(shape(shaped, None), LaunchShape::Fixed(7, 96));
        assert_eq!(shape(bare, arg), LaunchShape::BlockPerItem(32));
        assert_eq!(shape(bare, None), kc16, "block level defaults to KC_16");
        // A lone clause is not a launch shape.
        assert_eq!(
            shape("dp consldt(block) work(id) blocks(7)", arg),
            LaunchShape::BlockPerItem(32)
        );
    }

    /// A recursive kernel's host entry is launched in the shape its device
    /// launches use: under 1-1 with the child's static `<<<1, 32>>>`, one
    /// 32-thread block for the one seeded item, at every granularity.
    #[test]
    fn one_to_one_recursive_host_entry_uses_the_child_block() {
        let gpu = GpuConfig::k20c();
        for g in Granularity::ALL {
            let dir = Directive::parse(&format!("dp consldt({}) work(c)", g.label())).unwrap();
            let cons =
                consolidate(&recursive_module(), "rec", &dir, &gpu, Some(ConfigPolicy::OneToOne))
                    .unwrap();
            let device = dpcons_ir::module_to_string(&cons.module);
            assert!(device.contains("rec__cons<<<__cons_ncnt, 32>>>"), "{device}");
            let mut engine =
                dpcons_sim::Engine::new(gpu.clone(), dpcons_sim::AllocKind::PreAlloc, 1 << 16);
            let ids = std::collections::HashMap::from([(cons.info.entry.clone(), 0)]);
            let prepared =
                crate::prepare_launch(&mut engine, &cons.info, &ids, &[0, 1], (1, 32), 1 << 12)
                    .unwrap();
            assert_eq!((prepared.spec.grid, prepared.spec.block), (1, 32), "{}", g.label());
        }
    }

    #[test]
    fn grid_levels_cover_nesting_limit() {
        // The host launch at depth 0 plus every nested depth the device allows.
        assert_eq!(GRID_LEVELS as u32, GpuConfig::k20c().max_nesting_depth + 1);
    }

    #[test]
    fn header_offsets_are_where_generated_code_loads_counts() {
        let gpu = GpuConfig::k20c();
        let cases = [
            (irregular_module(), "parent", "dp consldt(grid) work(id)"),
            (recursive_module(), "rec", "dp consldt(grid) work(c)"),
            (recursive_module(), "rec", "dp consldt(grid) buffer(custom, totalSize: 5000) work(c)"),
        ];
        for (module, parent, pragma) in cases {
            let dir = Directive::parse(pragma).unwrap();
            let cons = consolidate(&module, parent, &dir, &gpu, None).unwrap();
            let extras = cons.info.grid_extras.as_ref().unwrap();
            let cleared: Vec<usize> = extras.header_offsets().collect();
            assert_eq!(cleared, count_load_offsets(&cons), "{pragma}");
            assert_eq!(cleared.len(), extras.levels);
        }
    }
}
