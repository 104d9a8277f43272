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

use dpcons_ir::ast::{AllocScope, Expr, Kernel, Module, Param, ParamKind, Stmt};
use dpcons_ir::dsl::*;
use dpcons_sim::{GpuConfig, WARP_SIZE};

use crate::analysis::{analyze, Analysis, ChildClass, LaunchInfo, TransformError};
use crate::directive::{Directive, Granularity, SizeSpec};
use crate::occupancy::{ConfigPolicy, KernelResources};

/// Names of the extra parameters a grid-level transformed kernel receives.
#[derive(Debug, Clone, PartialEq)]
pub struct GridExtras {
    pub pool_param: String,
    pub counter_param: String,
    /// Present only for recursion: the recursion level scalar.
    pub level_param: Option<String>,
    /// Word stride between per-level buffers in the pool (recursion).
    pub level_stride: i64,
}

impl GridExtras {
    /// Buffers the generated code addresses in the pool, one barrier-counter
    /// slot each: the single buffer of the irregular-loop template, or one
    /// per recursion level plus the buffer the deepest level inserts into.
    pub fn levels(&self) -> usize {
        if self.level_param.is_some() {
            GRID_LEVELS + 1
        } else {
            1
        }
    }

    /// Pool word offsets of the per-buffer count headers. A buffer is its
    /// count at `off` followed by items at `off + 1 + slot * nv + j` with
    /// `slot < count`, so these are the only pool words consolidated code
    /// reads before writing: the host clears them (and nothing else) between
    /// launches.
    pub fn header_offsets(&self) -> impl Iterator<Item = usize> {
        let stride = self.level_stride as usize;
        (0..self.levels()).map(move |level| level.saturating_mul(stride))
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
    /// Number of buffered variables per work item.
    pub nv: usize,
    /// Launch-argument positions buffered per item (buffer layout order).
    pub buffered_positions: Vec<usize>,
    /// Launch-argument positions passed through to the consolidated child.
    pub passthrough_positions: Vec<usize>,
    pub child_class: ChildClass,
    pub child_config: ConfigPolicy,
    /// Static `(blocks, threads)` when the policy is static.
    pub resolved_config: Option<(u32, u32)>,
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
/// for `gpu`. The consolidated kernel's launch shape comes from the
/// directive's `blocks`/`threads` clauses when it has both, else from
/// `policy`, else from the paper's per-granularity `KC_X` policy.
pub fn consolidate(
    module: &Module,
    parent_name: &str,
    directive: &Directive,
    gpu: &GpuConfig,
    policy: Option<ConfigPolicy>,
) -> Result<Consolidated, TransformError> {
    let analysis = analyze(module, parent_name, directive)?;
    let policy = directive
        .blocks
        .zip(directive.threads)
        .map(|(b, t)| ConfigPolicy::Custom(b, t))
        .or(policy)
        .unwrap_or_else(|| ConfigPolicy::default_for(directive.granularity));
    let ctx = Ctx::new(module, parent_name, directive, &analysis, gpu, policy)?;
    if analysis.recursive {
        ctx.transform_recursive()
    } else {
        ctx.transform_irregular_loop()
    }
}

struct Ctx<'a> {
    module: &'a Module,
    parent: &'a Kernel,
    child: &'a Kernel,
    directive: &'a Directive,
    a: &'a Analysis,
    policy: ConfigPolicy,
    resolved: Option<(u32, u32)>,
}

impl<'a> Ctx<'a> {
    fn new(
        module: &'a Module,
        parent_name: &str,
        directive: &'a Directive,
        a: &'a Analysis,
        gpu: &GpuConfig,
        policy: ConfigPolicy,
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
        let res = KernelResources {
            regs_per_thread: child.regs_per_thread,
            shared_bytes: child.shared_bytes,
        };
        let resolved = policy.resolve(gpu, res);
        Ok(Ctx { module, parent, child, directive, a, policy, resolved })
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

    /// Buffer capacity in items for warp/block-level buffers.
    fn capacity_expr(&self) -> Expr {
        match &self.directive.per_buffer_size {
            Some(SizeSpec::Items(n)) => i(*n as i64),
            Some(SizeSpec::Var(name)) => v(name),
            None => match self.directive.granularity {
                Granularity::Warp => i(WARP * 4),
                _ => mul(ntid(), i(4)),
            },
        }
    }

    /// Words for one warp/block buffer: `1 (count) + capacity * nv`.
    fn buffer_words_expr(&self) -> Expr {
        add(i(1), mul(self.capacity_expr(), i(self.nv() as i64)))
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
    // Shared codegen pieces.
    // ------------------------------------------------------------------

    /// Buffer insertion replacing the child launch: reserve a slot with an
    /// atomic counter bump, then store the work variables.
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

    /// `(grid, block)` expressions for launching the consolidated child,
    /// given the in-scope count variable name.
    fn child_config_exprs(&self, cnt: &str) -> (Expr, Expr) {
        match (self.policy, self.resolved) {
            (ConfigPolicy::OneToOne, _) => match self.launch().class {
                ChildClass::SoloThread => {
                    // As many threads as items: <<<ceil(cnt/1024), min(cnt,1024)>>>.
                    (div(add(v(cnt), i(1023)), i(1024)), min_(v(cnt), i(1024)))
                }
                _ => {
                    // As many blocks as items; threads from the original child
                    // config when static, else a reasonable default.
                    let t = crate::analysis::const_eval(&self.launch().block).unwrap_or(256);
                    (v(cnt), i(t))
                }
            },
            (_, Some((b, t))) => (i(b as i64), i(t as i64)),
            (_, None) => unreachable!("static policies always resolve"),
        }
    }

    /// Pass-through argument expressions for the consolidated child launch.
    /// (They are uniform, so they remain valid wherever the launch moves.)
    fn passthrough_args(&self) -> Vec<Expr> {
        self.launch().passthrough.iter().map(|&p| self.launch().args[p].clone()).collect()
    }

    // ------------------------------------------------------------------
    // Child transformation.
    // ------------------------------------------------------------------

    /// Build the consolidated child kernel: fetch loop + original body.
    fn build_child_cons(&self) -> Kernel {
        let child = self.child;
        let launch = self.launch();
        let mut k = Kernel::new(&self.child_cons_name());
        k.regs_per_thread = child.regs_per_thread;
        k.shared_bytes = child.shared_bytes;
        for &p in &launch.passthrough {
            k.params.push(child.params[p].clone());
        }
        k.params.push(Param { name: "__cons_buf".into(), kind: ParamKind::Array });
        k.params.push(Param { name: "__cons_off".into(), kind: ParamKind::Scalar });

        // Per-item prologue: bind each buffered child parameter from the buffer.
        let nv = self.nv() as i64;
        let mut item_prologue = Vec::new();
        for (j, &pos) in launch.buffered.iter().enumerate() {
            let idx =
                add(add(v("__cons_off"), i(1)), add(mul(v("__cons_item"), i(nv)), i(j as i64)));
            item_prologue.push(let_(&child.params[pos].name, load(v("__cons_buf"), idx)));
        }

        let body = child.body.clone();
        k.body = self.fetch_loop(item_prologue, body);
        k
    }

    /// Wrap `body` in the item-fetch loop appropriate to the child class.
    fn fetch_loop(&self, item_prologue: Vec<Stmt>, body: Vec<Stmt>) -> Vec<Stmt> {
        let mut inner = item_prologue;
        inner.extend(body);
        let header = vec![let_("__cons_cnt", load(v("__cons_buf"), v("__cons_off")))];
        match self.launch().class {
            ChildClass::SoloThread => {
                // Moldable grid-stride loop: every thread fetches items.
                inner.push(assign("__cons_item", add(v("__cons_item"), mul(ntid(), ncta()))));
                let mut out = header;
                out.push(let_("__cons_item", gtid()));
                out.push(while_(lt(v("__cons_item"), v("__cons_cnt")), inner));
                out
            }
            ChildClass::SoloBlock => {
                // Moldable block-stride loop: each block fetches an item and
                // its threads process it cooperatively; a barrier separates
                // consecutive items.
                inner.push(sync());
                inner.push(assign("__cons_item", add(v("__cons_item"), ncta())));
                let mut out = header;
                out.push(let_("__cons_item", cta_id()));
                out.push(while_(lt(v("__cons_item"), v("__cons_cnt")), inner));
                out
            }
            ChildClass::MultiBlock => {
                // The whole grid cooperates on each item in turn.
                inner.push(assign("__cons_item", add(v("__cons_item"), i(1))));
                let mut out = header;
                out.push(let_("__cons_item", i(0)));
                out.push(while_(lt(v("__cons_item"), v("__cons_cnt")), inner));
                out
            }
        }
    }

    // ------------------------------------------------------------------
    // Parent transformation (irregular loops: parent != child).
    // ------------------------------------------------------------------

    fn transform_irregular_loop(self) -> Result<Consolidated, TransformError> {
        let g = self.directive.granularity;
        let mut module = self.module.clone();

        // 1. Consolidated child.
        let child_cons = self.build_child_cons();
        module.add(child_cons);

        // 2. Transformed parent.
        let mut parent = self.parent.clone();
        let split = self.launch().top_level_index;
        let prework: Vec<Stmt> = parent.body[..=split].to_vec();
        let postwork: Vec<Stmt> = parent.body[split + 1..].to_vec();

        let mut body = Vec::new();
        let mut grid_extras = None;

        // (1) buffer allocation before the prework.
        match g {
            Granularity::Warp => {
                body.push(alloc(
                    "__cons_buf",
                    "__cons_off",
                    self.buffer_words_expr(),
                    AllocScope::Warp,
                ));
                body.push(when(
                    eq(rem(tid(), i(WARP)), i(0)),
                    vec![store(v("__cons_buf"), v("__cons_off"), i(0))],
                ));
            }
            Granularity::Block => {
                body.push(alloc(
                    "__cons_buf",
                    "__cons_off",
                    self.buffer_words_expr(),
                    AllocScope::Block,
                ));
                body.push(when(
                    eq(tid(), i(0)),
                    vec![store(v("__cons_buf"), v("__cons_off"), i(0))],
                ));
                body.push(sync());
            }
            Granularity::Grid => {
                parent.params.push(Param { name: "__cons_pool".into(), kind: ParamKind::Array });
                parent.params.push(Param { name: "__cons_counter".into(), kind: ParamKind::Array });
                grid_extras = Some(GridExtras {
                    pool_param: "__cons_pool".into(),
                    counter_param: "__cons_counter".into(),
                    level_param: None,
                    level_stride: 0,
                });
                body.push(let_("__cons_buf", v("__cons_pool")));
                body.push(let_("__cons_off", i(0)));
            }
        }

        // (2)+(3) prework with the launch replaced by buffer insertions.
        let insertion = self.insertion_stmts("__cons_buf", "__cons_off");
        body.extend(self.replace_launch(&prework, &insertion));

        // (4) barrier + consolidated launch.
        let (grid_e, block_e) = self.child_config_exprs("__cons_cnt");
        let mut cons_args = self.passthrough_args();
        cons_args.push(v("__cons_buf"));
        cons_args.push(v("__cons_off"));
        let do_launch = vec![
            let_("__cons_cnt", load(v("__cons_buf"), v("__cons_off"))),
            when(
                gt(v("__cons_cnt"), i(0)),
                vec![launch(&self.child_cons_name(), grid_e, block_e, cons_args)],
            ),
        ];
        match g {
            Granularity::Warp => {
                body.push(when(eq(rem(tid(), i(WARP)), i(0)), do_launch));
            }
            Granularity::Block => {
                body.push(sync());
                body.push(when(last_warp_leader(), do_launch));
            }
            Granularity::Grid => {
                let mut last_block = do_launch;
                if self.a.has_postwork {
                    // (5) postwork consolidated into its own kernel, launched
                    // after the children complete.
                    last_block.push(device_sync());
                    let pw_args: Vec<Expr> =
                        self.parent.params.iter().map(|p| v(&p.name)).collect();
                    last_block.push(launch(&self.postwork_name(), ncta(), ntid(), pw_args));
                }
                body.push(when(
                    last_warp_leader(),
                    vec![
                        atomic_add(Some("__cons_bar"), v("__cons_counter"), i(0), i(-1)),
                        when(eq(v("__cons_bar"), i(1)), last_block),
                    ],
                ));
            }
        }

        // (5) postwork: in place for warp/block; moved for grid.
        let mut postwork_kernel = None;
        match g {
            Granularity::Grid => {
                if self.a.has_postwork {
                    let mut pw = Kernel::new(&self.postwork_name());
                    pw.params = self.parent.params.clone();
                    pw.regs_per_thread = self.parent.regs_per_thread;
                    pw.shared_bytes = self.parent.shared_bytes;
                    let mut pw_body = prework_slice(&prework, &postwork);
                    pw_body.extend(strip_device_sync(&postwork));
                    pw.body = pw_body;
                    postwork_kernel = Some(pw.name.clone());
                    module.add(pw);
                }
            }
            _ => {
                body.extend(guard_device_sync(&postwork));
            }
        }

        parent.body = body;
        let entry = parent.name.clone();
        module.replace(parent);

        Ok(Consolidated {
            module,
            info: TransformInfo {
                granularity: g,
                recursive: false,
                entry,
                postwork: postwork_kernel,
                nv: self.nv(),
                buffered_positions: self.launch().buffered.clone(),
                passthrough_positions: self.launch().passthrough.clone(),
                child_class: self.launch().class,
                child_config: self.policy,
                resolved_config: self.resolved,
                grid_extras,
            },
        })
    }

    // ------------------------------------------------------------------
    // Recursion (parent == child): child then parent transformation applied
    // sequentially to the single kernel.
    // ------------------------------------------------------------------

    fn transform_recursive(self) -> Result<Consolidated, TransformError> {
        let g = self.directive.granularity;
        let mut module = self.module.clone();
        let launch_info = self.launch();
        let name = self.child_cons_name();

        let mut k = Kernel::new(&name);
        k.regs_per_thread = self.child.regs_per_thread;
        k.shared_bytes = self.child.shared_bytes;
        for &p in &launch_info.passthrough {
            k.params.push(self.child.params[p].clone());
        }

        let mut prologue: Vec<Stmt> = Vec::new();
        let mut grid_extras = None;
        let stride = self.level_stride();
        // Current-level buffer (`__cons_buf`/`__cons_off`) and next-level
        // buffer (`__cons_nbuf`/`__cons_noff`).
        match g {
            Granularity::Grid => {
                k.params.push(Param { name: "__cons_pool".into(), kind: ParamKind::Array });
                k.params.push(Param { name: "__cons_counter".into(), kind: ParamKind::Array });
                k.params.push(Param { name: "__cons_level".into(), kind: ParamKind::Scalar });
                grid_extras = Some(GridExtras {
                    pool_param: "__cons_pool".into(),
                    counter_param: "__cons_counter".into(),
                    level_param: Some("__cons_level".into()),
                    level_stride: stride,
                });
                prologue.push(let_("__cons_buf", v("__cons_pool")));
                prologue.push(let_("__cons_off", mul(v("__cons_level"), i(stride))));
                prologue.push(let_("__cons_nbuf", v("__cons_pool")));
                prologue.push(let_("__cons_noff", mul(add(v("__cons_level"), i(1)), i(stride))));
            }
            Granularity::Warp => {
                k.params.push(Param { name: "__cons_buf".into(), kind: ParamKind::Array });
                k.params.push(Param { name: "__cons_off".into(), kind: ParamKind::Scalar });
                prologue.push(alloc(
                    "__cons_nbuf",
                    "__cons_noff",
                    self.buffer_words_expr(),
                    AllocScope::Warp,
                ));
                prologue.push(when(
                    eq(rem(tid(), i(WARP)), i(0)),
                    vec![store(v("__cons_nbuf"), v("__cons_noff"), i(0))],
                ));
            }
            Granularity::Block => {
                k.params.push(Param { name: "__cons_buf".into(), kind: ParamKind::Array });
                k.params.push(Param { name: "__cons_off".into(), kind: ParamKind::Scalar });
                prologue.push(alloc(
                    "__cons_nbuf",
                    "__cons_noff",
                    self.buffer_words_expr(),
                    AllocScope::Block,
                ));
                prologue.push(when(
                    eq(tid(), i(0)),
                    vec![store(v("__cons_nbuf"), v("__cons_noff"), i(0))],
                ));
                prologue.push(sync());
            }
        }

        // Child-transformation: fetch loop over this level's items, with the
        // recursive launch replaced by insertion into the next-level buffer.
        let insertion = self.insertion_stmts("__cons_nbuf", "__cons_noff");
        let body = self.replace_launch(&self.child.body, &insertion);
        let nv = self.nv() as i64;
        let mut item_prologue = Vec::new();
        for (j, &pos) in launch_info.buffered.iter().enumerate() {
            let idx =
                add(add(v("__cons_off"), i(1)), add(mul(v("__cons_item"), i(nv)), i(j as i64)));
            item_prologue.push(let_(&self.child.params[pos].name, load(v("__cons_buf"), idx)));
        }
        let fetch = self.fetch_loop(item_prologue, body);

        // Parent-transformation: barrier + next-level launch.
        let (grid_e, block_e) = self.child_config_exprs("__cons_ncnt");
        let mut next_args: Vec<Expr> = self.passthrough_args();
        match g {
            Granularity::Grid => {
                next_args.push(v("__cons_pool"));
                next_args.push(v("__cons_counter"));
                next_args.push(add(v("__cons_level"), i(1)));
            }
            _ => {
                next_args.push(v("__cons_nbuf"));
                next_args.push(v("__cons_noff"));
            }
        }
        let mut do_launch = vec![let_("__cons_ncnt", load(v("__cons_nbuf"), v("__cons_noff")))];
        match g {
            Granularity::Grid => {
                // Record the next level's block count for its global barrier,
                // then recurse.
                do_launch.push(when(
                    gt(v("__cons_ncnt"), i(0)),
                    vec![
                        store(v("__cons_counter"), add(v("__cons_level"), i(1)), grid_e.clone()),
                        launch(&name, grid_e, block_e, next_args),
                    ],
                ));
            }
            _ => {
                do_launch.push(when(
                    gt(v("__cons_ncnt"), i(0)),
                    vec![launch(&name, grid_e, block_e, next_args)],
                ));
            }
        }

        let mut tail = Vec::new();
        match g {
            Granularity::Warp => {
                tail.push(when(eq(rem(tid(), i(WARP)), i(0)), do_launch));
            }
            Granularity::Block => {
                tail.push(sync());
                tail.push(when(last_warp_leader(), do_launch));
            }
            Granularity::Grid => {
                tail.push(when(
                    last_warp_leader(),
                    vec![
                        atomic_add(
                            Some("__cons_bar"),
                            v("__cons_counter"),
                            v("__cons_level"),
                            i(-1),
                        ),
                        when(eq(v("__cons_bar"), i(1)), do_launch),
                    ],
                ));
            }
        }

        let mut body = prologue;
        body.extend(fetch);
        body.extend(tail);
        k.body = body;
        module.add(k);

        Ok(Consolidated {
            module,
            info: TransformInfo {
                granularity: g,
                recursive: true,
                entry: name,
                postwork: None,
                nv: self.nv(),
                buffered_positions: launch_info.buffered.clone(),
                passthrough_positions: launch_info.passthrough.clone(),
                child_class: launch_info.class,
                child_config: self.policy,
                resolved_config: self.resolved,
                grid_extras,
            },
        })
    }
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
        let policy = |pragma: &str, arg: Option<ConfigPolicy>| {
            let dir = Directive::parse(pragma).unwrap();
            consolidate(&irregular_module(), "parent", &dir, &gpu, arg).unwrap().info.child_config
        };
        let shaped = "dp consldt(block) work(id) blocks(7) threads(96)";
        let bare = "dp consldt(block) work(id)";
        let arg = Some(ConfigPolicy::OneToOne);
        assert_eq!(policy(shaped, arg), ConfigPolicy::Custom(7, 96));
        assert_eq!(policy(shaped, None), ConfigPolicy::Custom(7, 96));
        assert_eq!(policy(bare, arg), ConfigPolicy::OneToOne);
        assert_eq!(policy(bare, None), ConfigPolicy::default_for(Granularity::Block));
        // A lone clause is not a launch shape.
        assert_eq!(policy("dp consldt(block) work(id) blocks(7)", arg), ConfigPolicy::OneToOne);
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
            assert_eq!(cleared.len(), extras.levels());
        }
    }
}
