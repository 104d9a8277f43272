//! Name resolution and validation: AST → slot-based executable form.
//!
//! The compile pass resolves parameter/local names to dense slots, assigns
//! static instruction costs to every statement (charged per warp by the
//! interpreter), checks launch targets and arities, and enforces lexical
//! scoping. It is the moral equivalent of the front-end semantic checks the
//! paper gets from the ROSE/EDG infrastructure.

use std::collections::HashMap;

use crate::ast::{AllocScope, AtomicOp, BinOp, Expr, Kernel, Module, ParamKind, Stmt, UnOp};

/// Compile-time errors for IR programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    Undefined { kernel: String, name: String },
    AssignToParam { kernel: String, name: String },
    DuplicateParam { kernel: String, name: String },
    DuplicateKernel { name: String },
    UnknownLaunchTarget { kernel: String, target: String },
    LaunchArity { kernel: String, target: String, expected: usize, got: usize },
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::Undefined { kernel, name } => {
                write!(f, "kernel `{kernel}`: reference to undefined name `{name}`")
            }
            IrError::AssignToParam { kernel, name } => {
                write!(f, "kernel `{kernel}`: assignment to parameter `{name}`")
            }
            IrError::DuplicateParam { kernel, name } => {
                write!(f, "kernel `{kernel}`: duplicate parameter `{name}`")
            }
            IrError::DuplicateKernel { name } => write!(f, "duplicate kernel `{name}`"),
            IrError::UnknownLaunchTarget { kernel, target } => {
                write!(f, "kernel `{kernel}`: launch of unknown kernel `{target}`")
            }
            IrError::LaunchArity { kernel, target, expected, got } => write!(
                f,
                "kernel `{kernel}`: launch of `{target}` with {got} arguments, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for IrError {}

/// Compiled expression with slot-resolved references.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    I(i64),
    Gtid,
    Tid,
    CtaId,
    NTid,
    NCta,
    Depth,
    Arg(u16),
    Var(u16),
    Load(Box<CExpr>, Box<CExpr>),
    Un(UnOp, Box<CExpr>),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
}

/// Compiled statement. `ops` is the static arithmetic cost of the statement's
/// expressions, charged once per warp execution (SIMT lockstep).
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    Assign {
        slot: u16,
        value: CExpr,
        ops: u32,
    },
    Store {
        handle: CExpr,
        index: CExpr,
        value: CExpr,
        ops: u32,
    },
    Atomic {
        op: AtomicOp,
        old: Option<u16>,
        handle: CExpr,
        index: CExpr,
        value: CExpr,
        value2: Option<CExpr>,
        ops: u32,
    },
    If {
        cond: CExpr,
        then: Vec<CStmt>,
        els: Vec<CStmt>,
        ops: u32,
    },
    While {
        cond: CExpr,
        body: Vec<CStmt>,
        ops: u32,
    },
    For {
        var: u16,
        lo: CExpr,
        hi: CExpr,
        step: CExpr,
        body: Vec<CStmt>,
        ops: u32,
    },
    Compute {
        units: CExpr,
        ops: u32,
    },
    Launch {
        target: usize,
        grid: CExpr,
        block: CExpr,
        args: Vec<CExpr>,
        ops: u32,
    },
    Sync,
    DeviceSync,
    Alloc {
        handle_slot: u16,
        offset_slot: u16,
        words: CExpr,
        scope: AllocScope,
        site: u32,
        ops: u32,
    },
    Return,
}

/// Compiled kernel.
#[derive(Debug, Clone)]
pub struct CKernel {
    pub name: String,
    pub param_kinds: Vec<ParamKind>,
    pub n_slots: u16,
    pub body: Vec<CStmt>,
    pub regs_per_thread: u32,
    pub shared_bytes: u32,
}

/// Compiled module: all kernels, launch targets resolved to indices.
#[derive(Debug, Clone)]
pub struct CModule {
    pub kernels: Vec<CKernel>,
    pub by_name: HashMap<String, usize>,
}

/// Static arithmetic op count of an expression (Bin/Un nodes).
pub fn expr_ops(e: &Expr) -> u32 {
    let mut n = 0;
    crate::ast::visit_expr(e, &mut |x| {
        if matches!(x, Expr::Bin(..) | Expr::Un(..) | Expr::Gtid) {
            n += 1;
        }
    });
    n
}

struct Scope<'m> {
    module: &'m Module,
    kernel_name: String,
    params: HashMap<String, u16>,
    /// Stack of lexical scopes mapping name -> slot.
    locals: Vec<HashMap<String, u16>>,
    n_slots: u16,
    n_alloc_sites: u32,
}

impl<'m> Scope<'m> {
    fn lookup(&self, name: &str) -> Option<CExpr> {
        for scope in self.locals.iter().rev() {
            if let Some(&s) = scope.get(name) {
                return Some(CExpr::Var(s));
            }
        }
        self.params.get(name).map(|&i| CExpr::Arg(i))
    }

    fn declare(&mut self, name: &str) -> u16 {
        let slot = self.n_slots;
        self.n_slots += 1;
        self.locals.last_mut().unwrap().insert(name.to_string(), slot);
        slot
    }

    fn undefined(&self, name: &str) -> IrError {
        IrError::Undefined { kernel: self.kernel_name.clone(), name: name.to_string() }
    }

    fn cexpr(&self, e: &Expr) -> Result<CExpr, IrError> {
        Ok(match e {
            Expr::I(v) => CExpr::I(*v),
            Expr::Gtid => CExpr::Gtid,
            Expr::Tid => CExpr::Tid,
            Expr::CtaId => CExpr::CtaId,
            Expr::NTid => CExpr::NTid,
            Expr::NCta => CExpr::NCta,
            Expr::Depth => CExpr::Depth,
            Expr::Ref(n) => self.lookup(n).ok_or_else(|| self.undefined(n))?,
            Expr::Load(h, i) => CExpr::Load(Box::new(self.cexpr(h)?), Box::new(self.cexpr(i)?)),
            Expr::Un(op, a) => CExpr::Un(*op, Box::new(self.cexpr(a)?)),
            Expr::Bin(op, a, b) => {
                CExpr::Bin(*op, Box::new(self.cexpr(a)?), Box::new(self.cexpr(b)?))
            }
        })
    }

    fn cstmts(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, IrError> {
        self.locals.push(HashMap::new());
        let result = self.cstmts_flat(stmts);
        self.locals.pop();
        result
    }

    fn cstmts_flat(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, IrError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.cstmt(s)?);
        }
        Ok(out)
    }

    fn cstmt(&mut self, s: &Stmt) -> Result<CStmt, IrError> {
        Ok(match s {
            Stmt::Let(name, e) => {
                let value = self.cexpr(e)?;
                let slot = self.declare(name);
                CStmt::Assign { slot, value, ops: expr_ops(e) }
            }
            Stmt::Assign(name, e) => {
                let value = self.cexpr(e)?;
                let target = self.lookup(name).ok_or_else(|| self.undefined(name))?;
                match target {
                    CExpr::Var(slot) => CStmt::Assign { slot, value, ops: expr_ops(e) },
                    _ => {
                        return Err(IrError::AssignToParam {
                            kernel: self.kernel_name.clone(),
                            name: name.clone(),
                        })
                    }
                }
            }
            Stmt::Store(h, i, v) => CStmt::Store {
                handle: self.cexpr(h)?,
                index: self.cexpr(i)?,
                value: self.cexpr(v)?,
                ops: expr_ops(h) + expr_ops(i) + expr_ops(v),
            },
            Stmt::Atomic { op, old, handle, index, value, value2 } => {
                let handle_c = self.cexpr(handle)?;
                let index_c = self.cexpr(index)?;
                let value_c = self.cexpr(value)?;
                let value2_c = value2.as_ref().map(|v| self.cexpr(v)).transpose()?;
                let ops = expr_ops(handle)
                    + expr_ops(index)
                    + expr_ops(value)
                    + value2.as_ref().map_or(0, expr_ops);
                let old_slot = old.as_ref().map(|n| self.declare(n));
                CStmt::Atomic {
                    op: *op,
                    old: old_slot,
                    handle: handle_c,
                    index: index_c,
                    value: value_c,
                    value2: value2_c,
                    ops,
                }
            }
            Stmt::If(c, t, e) => CStmt::If {
                cond: self.cexpr(c)?,
                then: self.cstmts(t)?,
                els: self.cstmts(e)?,
                ops: expr_ops(c),
            },
            Stmt::While(c, b) => {
                CStmt::While { cond: self.cexpr(c)?, body: self.cstmts(b)?, ops: expr_ops(c) }
            }
            Stmt::For { var, lo, hi, step, body } => {
                let lo_c = self.cexpr(lo)?;
                let hi_c = self.cexpr(hi)?;
                let step_c = self.cexpr(step)?;
                self.locals.push(HashMap::new());
                let var_slot = self.declare(var);
                let body_c = self.cstmts_flat(body);
                self.locals.pop();
                CStmt::For {
                    var: var_slot,
                    lo: lo_c,
                    hi: hi_c,
                    step: step_c,
                    body: body_c?,
                    ops: expr_ops(lo) + expr_ops(hi) + expr_ops(step) + 1,
                }
            }
            Stmt::Compute(e) => CStmt::Compute { units: self.cexpr(e)?, ops: expr_ops(e) },
            Stmt::Launch { kernel, grid, block, args } => {
                let target = self.module.kernels.iter().position(|k| &k.name == kernel).ok_or(
                    IrError::UnknownLaunchTarget {
                        kernel: self.kernel_name.clone(),
                        target: kernel.clone(),
                    },
                )?;
                let expected = self.module.kernels[target].params.len();
                if args.len() != expected {
                    return Err(IrError::LaunchArity {
                        kernel: self.kernel_name.clone(),
                        target: kernel.clone(),
                        expected,
                        got: args.len(),
                    });
                }
                let mut ops = expr_ops(grid) + expr_ops(block);
                let args_c = args
                    .iter()
                    .map(|a| {
                        ops += expr_ops(a);
                        self.cexpr(a)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                CStmt::Launch {
                    target,
                    grid: self.cexpr(grid)?,
                    block: self.cexpr(block)?,
                    args: args_c,
                    ops,
                }
            }
            Stmt::Sync => CStmt::Sync,
            Stmt::DeviceSync => CStmt::DeviceSync,
            Stmt::Alloc { handle_var, offset_var, words, scope } => {
                let words_c = self.cexpr(words)?;
                let ops = expr_ops(words);
                let handle_slot = self.declare(handle_var);
                let offset_slot = self.declare(offset_var);
                let site = self.n_alloc_sites;
                self.n_alloc_sites += 1;
                CStmt::Alloc { handle_slot, offset_slot, words: words_c, scope: *scope, site, ops }
            }
            Stmt::Return => CStmt::Return,
        })
    }
}

/// Compile one kernel against its module (for launch-target resolution).
pub fn compile_kernel(module: &Module, k: &Kernel) -> Result<CKernel, IrError> {
    let mut params = HashMap::new();
    for (i, p) in k.params.iter().enumerate() {
        if params.insert(p.name.clone(), i as u16).is_some() {
            return Err(IrError::DuplicateParam { kernel: k.name.clone(), name: p.name.clone() });
        }
    }
    let mut scope = Scope {
        module,
        kernel_name: k.name.clone(),
        params,
        locals: vec![],
        n_slots: 0,
        n_alloc_sites: 0,
    };
    let body = scope.cstmts(&k.body)?;
    Ok(CKernel {
        name: k.name.clone(),
        param_kinds: k.params.iter().map(|p| p.kind).collect(),
        n_slots: scope.n_slots,
        body,
        regs_per_thread: k.regs_per_thread,
        shared_bytes: k.shared_bytes,
    })
}

/// Compile a whole module.
pub fn compile_module(module: &Module) -> Result<CModule, IrError> {
    let mut by_name = HashMap::new();
    for (i, k) in module.kernels.iter().enumerate() {
        if by_name.insert(k.name.clone(), i).is_some() {
            return Err(IrError::DuplicateKernel { name: k.name.clone() });
        }
    }
    let kernels =
        module.kernels.iter().map(|k| compile_kernel(module, k)).collect::<Result<Vec<_>, _>>()?;
    Ok(CModule { kernels, by_name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Param;
    use crate::dsl::*;

    fn one_kernel_module(k: Kernel) -> Module {
        let mut m = Module::new();
        m.add(k);
        m
    }

    #[test]
    fn resolves_params_and_locals() {
        let k = KernelBuilder::new("k")
            .array("a")
            .scalar("n")
            .body(vec![let_("x", add(v("n"), i(1))), assign("x", load(v("a"), v("x")))]);
        let m = one_kernel_module(k);
        let cm = compile_module(&m).unwrap();
        let ck = &cm.kernels[0];
        assert_eq!(ck.n_slots, 1);
        match &ck.body[0] {
            CStmt::Assign { slot: 0, value, .. } => {
                assert_eq!(
                    value,
                    &CExpr::Bin(BinOp::Add, Box::new(CExpr::Arg(1)), Box::new(CExpr::I(1)))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_name_rejected() {
        let k = KernelBuilder::new("k").body(vec![let_("x", v("nope"))]);
        let err = compile_module(&one_kernel_module(k)).unwrap_err();
        assert_eq!(err, IrError::Undefined { kernel: "k".into(), name: "nope".into() });
    }

    #[test]
    fn assign_to_param_rejected() {
        let k = KernelBuilder::new("k").scalar("n").body(vec![assign("n", i(0))]);
        let err = compile_module(&one_kernel_module(k)).unwrap_err();
        assert_eq!(err, IrError::AssignToParam { kernel: "k".into(), name: "n".into() });
    }

    #[test]
    fn locals_are_lexically_scoped() {
        // `y` declared inside the If must not be visible after it.
        let k = KernelBuilder::new("k")
            .body(vec![if_(i(1), vec![let_("y", i(5))], vec![]), let_("z", v("y"))]);
        let err = compile_module(&one_kernel_module(k)).unwrap_err();
        assert!(matches!(err, IrError::Undefined { .. }));
    }

    #[test]
    fn shadowing_allocates_fresh_slot() {
        let k = KernelBuilder::new("k").body(vec![
            let_("x", i(1)),
            if_(i(1), vec![let_("x", i(2)), assign("x", i(3))], vec![]),
            assign("x", i(4)),
        ]);
        let cm = compile_module(&one_kernel_module(k)).unwrap();
        assert_eq!(cm.kernels[0].n_slots, 2);
        // Outer assigns go to slot 0, inner to slot 1.
        match (&cm.kernels[0].body[2], &cm.kernels[0].body[1]) {
            (CStmt::Assign { slot: 0, .. }, CStmt::If { then, .. }) => match &then[1] {
                CStmt::Assign { slot: 1, .. } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_target_and_arity_validated() {
        let child = KernelBuilder::new("child").scalar("x").body(vec![]);
        let parent = KernelBuilder::new("parent").body(vec![launch("child", i(1), i(32), vec![])]);
        let mut m = Module::new();
        m.add(child).add(parent);
        let err = compile_module(&m).unwrap_err();
        assert_eq!(
            err,
            IrError::LaunchArity {
                kernel: "parent".into(),
                target: "child".into(),
                expected: 1,
                got: 0
            }
        );

        let parent2 = KernelBuilder::new("parent").body(vec![launch("ghost", i(1), i(32), vec![])]);
        let mut m2 = Module::new();
        m2.add(parent2);
        assert!(matches!(compile_module(&m2).unwrap_err(), IrError::UnknownLaunchTarget { .. }));
    }

    #[test]
    fn duplicate_kernels_and_params_rejected() {
        let mut m = Module::new();
        m.add(Kernel::new("k")).add(Kernel::new("k"));
        assert!(matches!(compile_module(&m).unwrap_err(), IrError::DuplicateKernel { .. }));

        let mut k = Kernel::new("p");
        k.params.push(Param { name: "a".into(), kind: ParamKind::Scalar });
        k.params.push(Param { name: "a".into(), kind: ParamKind::Array });
        assert!(matches!(
            compile_module(&one_kernel_module(k)).unwrap_err(),
            IrError::DuplicateParam { .. }
        ));
    }

    #[test]
    fn for_var_scoped_to_body() {
        let k = KernelBuilder::new("k")
            .body(vec![for_("i", i(0), i(4), vec![compute(v("i"))]), let_("x", v("i"))]);
        assert!(matches!(
            compile_module(&one_kernel_module(k)).unwrap_err(),
            IrError::Undefined { .. }
        ));
    }

    #[test]
    fn static_op_costs_counted() {
        let e = add(mul(v("a"), i(2)), neg(v("b")));
        assert_eq!(expr_ops(&e), 3);
        assert_eq!(expr_ops(&gtid()), 1);
        assert_eq!(expr_ops(&i(7)), 0);
    }

    #[test]
    fn alloc_sites_get_unique_ids() {
        let k = KernelBuilder::new("k").body(vec![
            alloc("b1", "o1", i(64), AllocScope::Warp),
            alloc("b2", "o2", i(64), AllocScope::Block),
        ]);
        let cm = compile_module(&one_kernel_module(k)).unwrap();
        let sites: Vec<u32> = cm.kernels[0]
            .body
            .iter()
            .filter_map(|s| match s {
                CStmt::Alloc { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, vec![0, 1]);
    }
}
