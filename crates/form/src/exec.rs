//! The executable backend: an interpreter that runs an IR [`Program`]
//! against the *real* `alya-core` machinery.
//!
//! The interpreter owns no numerics of its own — workspace traffic goes
//! through [`Ws`], gathers and the scatter through `alya_core::gather`,
//! geometry and the Vreman closure through `alya_core::ops` — so a derived
//! program that matches the handwritten kernel's statement order
//! necessarily matches its floating-point results bit for bit *and* its
//! instrumented event stream event for event. Both properties are what
//! analyzer pass 10 checks.

use std::ops::Range;

use alya_core::drivers::{with_nut, CPU_VECTOR_DIM};
use alya_core::gather::{self, DirectSink, ScatterSink};
use alya_core::input::AssemblyInput;
use alya_core::layout::{self, Layout};
use alya_core::ops;
use alya_core::workspace::Ws;
use alya_fem::element::{tet4_shape, ElementKind, Tet4, TET4_GAUSS, TET4_LOCAL_GRADS};
use alya_fem::VectorField;
use alya_machine::{NoRecord, Recorder, Space, TraceRecorder};

use crate::ir::{Expr, Ix, Program, Stmt, Sym};

/// One tracked private value: the interpreter's stand-in for the
/// handwritten kernels' `Pv` (same `Def`/`Use` id discipline).
#[derive(Debug, Clone, Copy)]
struct PSlot {
    id: u32,
    val: f64,
}

/// Per-element interpreter state: the gathered node list, silent
/// temporaries, and tracked private values.
struct Frame {
    nodes: [u32; 4],
    tmps: Vec<(Sym, Vec<f64>)>,
    privs: Vec<(Sym, Vec<PSlot>)>,
    /// Next private-value id — fresh per element, like `PrivAlloc`.
    next_id: u32,
}

impl Frame {
    fn new() -> Self {
        Frame {
            nodes: [0; 4],
            tmps: Vec::new(),
            privs: Vec::new(),
            next_id: 0,
        }
    }

    fn tmp_slot(&mut self, buf: Sym, i: usize) -> &mut f64 {
        let arr = match self.tmps.iter().position(|(n, _)| *n == buf) {
            Some(p) => &mut self.tmps[p].1,
            None => {
                self.tmps.push((buf, Vec::new()));
                &mut self.tmps.last_mut().expect("just pushed").1
            }
        };
        if arr.len() <= i {
            arr.resize(i + 1, 0.0);
        }
        &mut arr[i]
    }

    fn tmp_read(&self, buf: Sym, i: usize) -> f64 {
        let arr = self
            .tmps
            .iter()
            .find(|(n, _)| *n == buf)
            .unwrap_or_else(|| panic!("read of undefined temp {buf:?}"));
        arr.1[i]
    }

    fn priv_read(&self, buf: Sym, i: usize) -> PSlot {
        let arr = self
            .privs
            .iter()
            .find(|(n, _)| *n == buf)
            .unwrap_or_else(|| panic!("read of undefined private array {buf:?}"));
        arr.1[i]
    }

    fn priv_slot(&mut self, buf: Sym, i: usize) -> &mut PSlot {
        let arr = match self.privs.iter().position(|(n, _)| *n == buf) {
            Some(p) => &mut self.privs[p].1,
            None => {
                self.privs.push((buf, Vec::new()));
                &mut self.privs.last_mut().expect("just pushed").1
            }
        };
        if arr.len() <= i {
            arr.resize(
                i + 1,
                PSlot {
                    id: u32::MAX,
                    val: 0.0,
                },
            );
        }
        &mut arr[i]
    }
}

/// Read-only execution context threaded through the walk.
struct Ctx<'a> {
    prog: &'a Program,
    input: &'a AssemblyInput<'a>,
    e: usize,
    lay: &'a Layout,
}

/// Resolves an affine index against the enclosing loop variables.
fn resolve_ix(i: &Ix, env: &[(Sym, i64)]) -> usize {
    let mut v = i.base;
    for &(coeff, var) in &i.terms {
        let val = env
            .iter()
            .rev()
            .find(|&&(n, _)| n == var)
            .unwrap_or_else(|| panic!("unbound loop variable {var:?}"))
            .1;
        v += coeff * val;
    }
    usize::try_from(v).unwrap_or_else(|_| panic!("negative index {v}"))
}

/// Evaluates one expression left-to-right depth-first, emitting exactly
/// the events the handwritten kernel's equivalent Rust expression would.
fn eval_expr<R: Recorder>(
    ctx: &Ctx<'_>,
    frame: &Frame,
    env: &[(Sym, i64)],
    ws: &Ws<'_>,
    rec: &mut R,
    expr: &Expr,
) -> f64 {
    match expr {
        Expr::K(v) => *v,
        Expr::Rho => ctx.input.props.density,
        Expr::Mu => ctx.input.props.viscosity,
        Expr::VremanC => ctx.input.vreman_c,
        Expr::BodyForce(i) => ctx.input.body_force[resolve_ix(i, env)],
        Expr::GaussWeight(i) => ElementKind::Tet4.gauss_weight(resolve_ix(i, env)),
        Expr::Shape(g, a) => Tet4::SHAPE[resolve_ix(g, env)][resolve_ix(a, env)],
        Expr::LocalGrad(a, r) => TET4_LOCAL_GRADS[resolve_ix(a, env)][resolve_ix(r, env)],
        Expr::Ws(buf, i) => {
            let v = ctx.prog.ws_base(buf) + resolve_ix(i, env);
            ws.ld(v, ctx.lay, rec)
        }
        Expr::Priv(buf, i) => {
            let slot = frame.priv_read(buf, resolve_ix(i, env));
            if R::ENABLED {
                rec.use_(slot.id);
            }
            slot.val
        }
        Expr::Tmp(buf, i) => frame.tmp_read(buf, resolve_ix(i, env)),
        Expr::DensityAt(t) => {
            let t = eval_expr(ctx, frame, env, ws, rec, t);
            rec.flop(4);
            ctx.input.density_at(t)
        }
        Expr::ViscosityAt(t) => {
            let t = eval_expr(ctx, frame, env, ws, rec, t);
            rec.flop(4);
            ctx.input.viscosity_at(t)
        }
        Expr::Neg(a) => -eval_expr(ctx, frame, env, ws, rec, a),
        Expr::Add(a, b) => {
            let a = eval_expr(ctx, frame, env, ws, rec, a);
            let b = eval_expr(ctx, frame, env, ws, rec, b);
            a + b
        }
        Expr::Sub(a, b) => {
            let a = eval_expr(ctx, frame, env, ws, rec, a);
            let b = eval_expr(ctx, frame, env, ws, rec, b);
            a - b
        }
        Expr::Mul(a, b) => {
            let a = eval_expr(ctx, frame, env, ws, rec, a);
            let b = eval_expr(ctx, frame, env, ws, rec, b);
            a * b
        }
        Expr::Cbrt(a) => eval_expr(ctx, frame, env, ws, rec, a).cbrt(),
    }
}

/// Reads a 9-slot temp as a row-major 3×3 matrix.
fn tmp_mat3(frame: &Frame, buf: Sym) -> [[f64; 3]; 3] {
    let mut m = [[0.0; 3]; 3];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = frame.tmp_read(buf, 3 * r + c);
        }
    }
    m
}

/// Writes a node-major component-minor 12-slot temp from `[[f64; 3]; 4]`.
fn tmp_put12(frame: &mut Frame, buf: Sym, vals: [[f64; 3]; 4]) {
    for (a, v) in vals.iter().enumerate() {
        for (d, &x) in v.iter().enumerate() {
            *frame.tmp_slot(buf, 3 * a + d) = x;
        }
    }
}

/// Executes one statement.
fn exec_stmt<R: Recorder, S: ScatterSink>(
    ctx: &Ctx<'_>,
    frame: &mut Frame,
    env: &mut Vec<(Sym, i64)>,
    ws: &mut Ws<'_>,
    sink: &mut S,
    rec: &mut R,
    stmt: &Stmt,
) {
    match stmt {
        Stmt::For { var, count, body } => {
            for i in 0..*count {
                env.push((var, i));
                for s in body {
                    exec_stmt(ctx, frame, env, ws, sink, rec, s);
                }
                env.pop();
            }
        }
        Stmt::Flop(n) => rec.flop(*n),
        Stmt::Fma(n) => rec.fma(*n),
        Stmt::WsSt { buf, ix, val } => {
            let v = eval_expr(ctx, frame, env, ws, rec, val);
            let slot = ctx.prog.ws_base(buf) + resolve_ix(ix, env);
            ws.st(slot, v, ctx.lay, rec);
        }
        Stmt::WsAcc { buf, ix, inc } => {
            let v = eval_expr(ctx, frame, env, ws, rec, inc);
            let slot = ctx.prog.ws_base(buf) + resolve_ix(ix, env);
            ws.acc(slot, v, ctx.lay, rec);
        }
        Stmt::TmpSt { buf, ix, val } => {
            let v = eval_expr(ctx, frame, env, ws, rec, val);
            let i = resolve_ix(ix, env);
            *frame.tmp_slot(buf, i) = v;
        }
        Stmt::PrivDef { buf, ix, val } => {
            let v = eval_expr(ctx, frame, env, ws, rec, val);
            let i = resolve_ix(ix, env);
            let id = frame.next_id;
            frame.next_id += 1;
            if R::ENABLED {
                rec.def(id);
            }
            *frame.priv_slot(buf, i) = PSlot { id, val: v };
        }
        Stmt::PrivSet { buf, ix, val } => {
            let v = eval_expr(ctx, frame, env, ws, rec, val);
            let i = resolve_ix(ix, env);
            let slot = frame.priv_slot(buf, i);
            if R::ENABLED {
                rec.def(slot.id);
            }
            slot.val = v;
        }
        Stmt::GatherConn => {
            frame.nodes = gather::gather_conn(ctx.input, ctx.e, ctx.lay, rec);
        }
        Stmt::GatherCoords { dst } => {
            let c = gather::gather_coords(ctx.input, &frame.nodes, ctx.lay, rec);
            tmp_put12(frame, dst, c);
        }
        Stmt::GatherVelocity { dst } => {
            let v = gather::gather_velocity(ctx.input, &frame.nodes, ctx.lay, rec);
            tmp_put12(frame, dst, v);
        }
        Stmt::GatherPressure { dst } => {
            let p = gather::gather_scalar(
                ctx.input.pressure,
                layout::PRES_BASE,
                &frame.nodes,
                ctx.lay,
                rec,
            );
            for (a, &x) in p.iter().enumerate() {
                *frame.tmp_slot(dst, a) = x;
            }
        }
        Stmt::GatherTemperature { dst } => {
            let t = gather::gather_scalar(
                ctx.input.temperature,
                layout::TEMP_BASE,
                &frame.nodes,
                ctx.lay,
                rec,
            );
            for (a, &x) in t.iter().enumerate() {
                *frame.tmp_slot(dst, a) = x;
            }
        }
        Stmt::GatherNut { dst } => {
            let v = match ctx.input.nu_t {
                Some(nut) => {
                    if R::ENABLED {
                        rec.gload(ctx.lay.elemental(layout::NUT_BASE, ctx.e));
                    }
                    nut[ctx.e]
                }
                None => 0.0,
            };
            *frame.tmp_slot(dst, 0) = v;
        }
        Stmt::Det3 { m, dst } => {
            let mat = tmp_mat3(frame, m);
            *frame.tmp_slot(dst, 0) = ops::det3(&mat, rec);
        }
        Stmt::Inv3 { m, det, dst } => {
            let mat = tmp_mat3(frame, m);
            let d = frame.tmp_read(det, 0);
            let inv = ops::inv3(&mat, d, rec);
            for (r, row) in inv.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    *frame.tmp_slot(dst, 3 * r + c) = v;
                }
            }
        }
        Stmt::Tet4Grads { coords, grads, vol } => {
            let mut c = [[0.0; 3]; 4];
            for (a, row) in c.iter_mut().enumerate() {
                for (d, v) in row.iter_mut().enumerate() {
                    *v = frame.tmp_read(coords, 3 * a + d);
                }
            }
            let (g, v) = ops::tet4_grads(&c, rec);
            tmp_put12(frame, grads, g);
            *frame.tmp_slot(vol, 0) = v;
        }
        Stmt::Shape4 { g, dst } => {
            let sha = tet4_shape(TET4_GAUSS[resolve_ix(g, env)]);
            for (a, &x) in sha.iter().enumerate() {
                *frame.tmp_slot(dst, a) = x;
            }
        }
        Stmt::Vreman { grad, delta, dst } => {
            let g = tmp_mat3(frame, grad);
            let d = eval_expr(ctx, frame, env, ws, rec, delta);
            *frame.tmp_slot(dst, 0) = ops::vreman(&g, d, ctx.input.vreman_c, rec);
        }
        Stmt::Scatter { src } => {
            let mut elrhs = [[0.0; 3]; 4];
            for (a, row) in elrhs.iter_mut().enumerate() {
                for (d, v) in row.iter_mut().enumerate() {
                    *v = frame.tmp_read(src, 3 * a + d);
                }
            }
            let nodes = frame.nodes;
            gather::scatter_elemental(sink, &nodes, &elrhs, ctx.lay, rec);
        }
        Stmt::EmitNode { node, dim, val } => {
            let v = eval_expr(ctx, frame, env, ws, rec, val);
            let a = resolve_ix(node, env);
            let d = resolve_ix(dim, env);
            sink.add(frame.nodes[a], d, v, ctx.lay, rec);
        }
    }
}

/// Interprets `prog` for one element, scattering through `sink` and
/// recording through `rec` — the derived counterpart of
/// `alya_core::drivers::assemble_element`.
#[allow(clippy::too_many_arguments)]
pub fn run_ir<R: Recorder, S: ScatterSink>(
    prog: &Program,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
    ws: &mut Ws<'_>,
    sink: &mut S,
    rec: &mut R,
) {
    let ctx = Ctx {
        prog,
        input,
        e,
        lay,
    };
    let mut frame = Frame::new();
    let mut env: Vec<(Sym, i64)> = Vec::new();
    for block in &prog.blocks {
        for stmt in &block.stmts {
            exec_stmt(&ctx, &mut frame, &mut env, ws, sink, rec, stmt);
        }
    }
}

/// Interprets `prog` on `elements`, in order, into a fresh RHS through one
/// [`DirectSink`] and one reused workspace — the body of both
/// [`trace_generated`] and [`assemble_generated`]. The ν_t pass is
/// attached exactly as the drivers attach it.
fn run_elements<R: Recorder>(
    prog: &Program,
    input: &AssemblyInput,
    elements: Range<usize>,
    lay: &Layout,
    rec: &mut R,
) -> VectorField {
    with_nut(prog.variant, input, |input| {
        let mut ws_buf = vec![0.0; prog.variant.nvalues().max(1)];
        let mut rhs = VectorField::zeros(input.mesh.num_nodes());
        let mut sink = DirectSink { rhs: &mut rhs };
        for e in elements {
            let mut ws = match prog.space {
                Some(Space::Global) => Ws::global(&mut ws_buf, 1, 0),
                _ => Ws::local(&mut ws_buf),
            };
            run_ir(prog, input, e, lay, &mut ws, &mut sink, rec);
        }
        rhs
    })
}

/// Traces one element of a derived program — the exact mirror of
/// `alya_core::drivers::trace_element` (same ν_t pre-pass, same workspace
/// shape, same [`DirectSink`]), so the two event streams are comparable
/// index by index.
pub fn trace_generated(
    prog: &Program,
    input: &AssemblyInput,
    e: usize,
    lay: &Layout,
) -> TraceRecorder {
    let mut rec = TraceRecorder::new();
    run_elements(prog, input, e..e + 1, lay, &mut rec);
    rec
}

/// Serial whole-mesh assembly of a derived program, elements in id order
/// into one [`DirectSink`] — the order `alya_core::assemble_serial` scatters
/// in, so analyzer pass 10 can require the two RHS vectors to be bitwise
/// equal. A test-time oracle: no driver runs it.
pub fn assemble_generated(prog: &Program, input: &AssemblyInput) -> VectorField {
    let lay = Layout::cpu(0, CPU_VECTOR_DIM, input.mesh.num_nodes());
    let ne = input.mesh.num_elements();
    run_elements(prog, input, 0..ne, &lay, &mut NoRecord)
}
