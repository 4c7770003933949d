//! The paper's kernel transformations as IR-to-IR rewrite passes.
//!
//! Each variant is derived, never re-described:
//!
//! * [`privatize_workspace`] (B → P): flips the workspace address space to
//!   thread-local. No statement changes — exactly the paper's "laid out in
//!   private memory" step.
//! * [`restructure_specialize`] (B → RS): keeps the gather and scatter
//!   blocks of the base form (minus the temperature/ν_t gathers the
//!   constant-property specialization makes dead), folds the
//!   runtime-dispatched constitutive evaluations to the constants
//!   [`Expr::Rho`]/[`Expr::Mu`], and replaces the per-Gauss-point generic
//!   geometry + elemental-matrix pipeline with the restructured
//!   once-per-element blocks (constant gradients, on-the-fly Vreman,
//!   direct RHS accumulation).
//! * [`privatize_scalars`] (RS → RSP): every surviving workspace buffer
//!   becomes a tracked private scalar array ([`Stmt::PrivDef`]). The
//!   mechanical sub-rewrites are store privatization
//!   (`privatize_block`), definition sinking for the velocity gradient
//!   (`sink_defs`), the load-fold peephole that moves a single-use
//!   load past a flop annotation (`fold_tmp`), and per-Gauss-point array
//!   contraction of the advection/convection vectors (12 slots → 3
//!   short-lived ones, which forces the convection accumulation to fuse
//!   into the Gauss loop).
//! * [`recombine`] (RSP → RSPR): re-expands the convection vector to one
//!   long-lived register per `(g, d)` and recombines the three
//!   accumulation loops node-major, shrinking peak pressure below the
//!   contract budget — the paper's final recombination.
//!
//! Every pass is pinned by analyzer pass 10: the derived program must
//! reproduce the handwritten kernel's event stream *exactly*, so a rewrite
//! that reorders so much as one load fails the audit.

use alya_core::variant::Variant;
use alya_machine::Space;
use std::ops::{Mul, Neg, Sub};

use crate::base::{fr, pdef, scatter_block, tst, wacc, wst};
use crate::ir::{iv, ix, k, pv, tmp, ws, Block, Expr, Program, Stmt, Sym};

// ---- Generic rewrite machinery ---------------------------------------------

/// Bottom-up expression rewriter: applies `f` to every node (children
/// first); `None` keeps the (child-rewritten) node.
fn rewrite_expr(e: &Expr, f: &dyn Fn(&Expr) -> Option<Expr>) -> Expr {
    let walk = |x: &Expr| Box::new(rewrite_expr(x, f));
    let rebuilt = match e {
        Expr::DensityAt(a) => Expr::DensityAt(walk(a)),
        Expr::ViscosityAt(a) => Expr::ViscosityAt(walk(a)),
        Expr::Neg(a) => Expr::Neg(walk(a)),
        Expr::Cbrt(a) => Expr::Cbrt(walk(a)),
        Expr::Add(a, b) => Expr::Add(walk(a), walk(b)),
        Expr::Sub(a, b) => Expr::Sub(walk(a), walk(b)),
        Expr::Mul(a, b) => Expr::Mul(walk(a), walk(b)),
        other => other.clone(),
    };
    f(&rebuilt).unwrap_or(rebuilt)
}

/// Statement-tree rewriter: applies `fe` to every expression and `fs` to
/// every (expression-rewritten) statement; `fs` returning `None` keeps the
/// statement.
fn rewrite_stmts(
    stmts: &[Stmt],
    fe: &dyn Fn(&Expr) -> Option<Expr>,
    fs: &dyn Fn(&Stmt) -> Option<Stmt>,
) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| {
            let s2 = match s {
                Stmt::For { var, count, body } => Stmt::For {
                    var,
                    count: *count,
                    body: rewrite_stmts(body, fe, fs),
                },
                Stmt::WsSt { buf, ix, val } => Stmt::WsSt {
                    buf,
                    ix: ix.clone(),
                    val: rewrite_expr(val, fe),
                },
                Stmt::WsAcc { buf, ix, inc } => Stmt::WsAcc {
                    buf,
                    ix: ix.clone(),
                    inc: rewrite_expr(inc, fe),
                },
                Stmt::TmpSt { buf, ix, val } => Stmt::TmpSt {
                    buf,
                    ix: ix.clone(),
                    val: rewrite_expr(val, fe),
                },
                Stmt::PrivDef { buf, ix, val } => Stmt::PrivDef {
                    buf,
                    ix: ix.clone(),
                    val: rewrite_expr(val, fe),
                },
                Stmt::PrivSet { buf, ix, val } => Stmt::PrivSet {
                    buf,
                    ix: ix.clone(),
                    val: rewrite_expr(val, fe),
                },
                Stmt::Vreman { grad, delta, dst } => Stmt::Vreman {
                    grad,
                    delta: rewrite_expr(delta, fe),
                    dst,
                },
                other => other.clone(),
            };
            fs(&s2).unwrap_or(s2)
        })
        .collect()
}

/// Looks up a buffer rename.
fn renamed(renames: &[(Sym, Sym)], buf: Sym) -> Option<Sym> {
    renames
        .iter()
        .find(|&&(from, _)| from == buf)
        .map(|&(_, to)| to)
}

/// The store-privatization rewrite: workspace stores of the renamed
/// buffers become fresh private-value definitions, workspace loads become
/// tracked private reads. Buffers not in the map are untouched;
/// accumulates must have been restructured away before this runs.
fn privatize_block(b: &Block, renames: &[(Sym, Sym)]) -> Block {
    let fe = |e: &Expr| -> Option<Expr> {
        if let Expr::Ws(buf, i) = e {
            renamed(renames, buf).map(|to| Expr::Priv(to, i.clone()))
        } else {
            None
        }
    };
    let fs = |s: &Stmt| -> Option<Stmt> {
        match s {
            Stmt::WsSt { buf, ix, val } => renamed(renames, buf).map(|to| Stmt::PrivDef {
                buf: to,
                ix: ix.clone(),
                val: val.clone(),
            }),
            Stmt::WsAcc { buf, .. } => {
                assert!(
                    renamed(renames, buf).is_none(),
                    "accumulate into {buf:?} must be restructured before privatization"
                );
                None
            }
            _ => None,
        }
    };
    Block {
        tag: b.tag,
        stmts: rewrite_stmts(&b.stmts, &fe, &fs),
    }
}

/// The definition-sinking rewrite: private definitions of `buf` inside a
/// loop nest become silent stores to `raw`, and one definition loop per
/// slot is appended — the handwritten kernels define the whole velocity
/// gradient *after* computing it, keeping `Def` order contiguous.
fn sink_defs(b: &Block, buf: Sym, raw: Sym, def_loop: Vec<Stmt>) -> Block {
    let fs = |s: &Stmt| -> Option<Stmt> {
        if let Stmt::PrivDef { buf: pb, ix, val } = s {
            (*pb == buf).then(|| Stmt::TmpSt {
                buf: raw,
                ix: ix.clone(),
                val: val.clone(),
            })
        } else {
            None
        }
    };
    let mut stmts = rewrite_stmts(&b.stmts, &|_| None, &fs);
    stmts.extend(def_loop);
    Block { tag: b.tag, stmts }
}

/// The load-fold peephole: removes the single silent load `TmpSt{buf}` and
/// substitutes its value expression at every read site — in the
/// handwritten RSP this is what moves the volume read *past* the flop
/// annotation that precedes the Vreman call.
fn fold_tmp(stmts: &[Stmt], buf: Sym) -> Vec<Stmt> {
    let mut folded: Option<Expr> = None;
    let mut kept: Vec<Stmt> = Vec::new();
    for s in stmts {
        if let Stmt::TmpSt { buf: tb, val, .. } = s {
            if *tb == buf {
                assert!(folded.is_none(), "fold_tmp: {buf:?} stored twice");
                folded = Some(val.clone());
                continue;
            }
        }
        kept.push(s.clone());
    }
    let val = folded.unwrap_or_else(|| panic!("fold_tmp: no store to {buf:?}"));
    let fe = |e: &Expr| -> Option<Expr> {
        if let Expr::Tmp(tb, _) = e {
            (*tb == buf).then(|| val.clone())
        } else {
            None
        }
    };
    rewrite_stmts(&kept, &fe, &|_| None)
}

// ---- B → P -----------------------------------------------------------------

/// Workspace privatization: same statements, thread-local address space.
pub fn privatize_workspace(base: &Program) -> Program {
    assert_eq!(base.variant, Variant::B, "P is derived from the base form");
    let mut p = base.clone();
    p.name = "P";
    p.variant = Variant::P;
    p.space = Some(Space::Local);
    p
}

// ---- B → RS ----------------------------------------------------------------

/// The RS workspace catalog (13 arrays, down from 25).
fn rs_buffers() -> Vec<(Sym, usize)> {
    vec![
        ("ELCOD", 12),
        ("ELVEL", 12),
        ("ELPRE", 4),
        ("CARTE", 12),
        ("VOL", 1),
        ("GVE", 9),
        ("NUT", 1),
        ("GPADV", 12),
        ("GPCON", 12),
        ("PBAR", 1),
        ("FORCE", 3),
        ("DIFF", 12),
        ("ELRHS", 12),
    ]
}

/// Restructured geometry: constant gradients computed once per element.
fn rs_geometry_block() -> Block {
    Block {
        tag: "geometry",
        stmts: vec![
            fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![tst(
                        "elcod_t",
                        ix(0).t(3, "a").t(1, "d"),
                        ws("ELCOD", ix(0).t(3, "a").t(1, "d")),
                    )],
                )],
            ),
            Stmt::Tet4Grads {
                coords: "elcod_t",
                grads: "grads_t",
                vol: "vol_t",
            },
            fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![wst(
                        "CARTE",
                        ix(0).t(3, "a").t(1, "d"),
                        tmp("grads_t", ix(0).t(3, "a").t(1, "d")),
                    )],
                )],
            ),
            wst("VOL", ix(0), tmp("vol_t", ix(0))),
        ],
    }
}

/// Constant velocity gradient, computed once.
fn rs_gve_block() -> Block {
    Block {
        tag: "gve",
        stmts: vec![fr(
            "i",
            3,
            vec![fr(
                "j",
                3,
                vec![
                    tst("gv_acc", ix(0), k(0.0)),
                    fr(
                        "a",
                        4,
                        vec![tst(
                            "gv_acc",
                            ix(0),
                            tmp("gv_acc", ix(0)).plus(
                                ws("CARTE", ix(0).t(3, "a").t(1, "i"))
                                    .mul(ws("ELVEL", ix(0).t(3, "a").t(1, "j"))),
                            ),
                        )],
                    ),
                    Stmt::Fma(4),
                    wst("GVE", ix(0).t(3, "i").t(1, "j"), tmp("gv_acc", ix(0))),
                ],
            )],
        )],
    }
}

/// On-the-fly Vreman ν_t: one value per element.
fn rs_vreman_block() -> Block {
    Block {
        tag: "vreman",
        stmts: vec![
            fr(
                "i",
                3,
                vec![fr(
                    "j",
                    3,
                    vec![tst(
                        "gve_t",
                        ix(0).t(3, "i").t(1, "j"),
                        ws("GVE", ix(0).t(3, "i").t(1, "j")),
                    )],
                )],
            ),
            tst("vol_v", ix(0), ws("VOL", ix(0))),
            Stmt::Flop(2),
            Stmt::Vreman {
                grad: "gve_t",
                delta: Expr::Cbrt(Box::new(tmp("vol_v", ix(0)))),
                dst: "nut_t",
            },
            wst("NUT", ix(0), tmp("nut_t", ix(0))),
        ],
    }
}

/// Per-Gauss-point advection and convection vectors.
fn rs_gauss_vectors_block() -> Block {
    Block {
        tag: "gauss-vectors",
        stmts: vec![fr(
            "g",
            4,
            vec![
                fr(
                    "d",
                    3,
                    vec![
                        tst("adv_acc", ix(0), k(0.0)),
                        fr(
                            "a",
                            4,
                            vec![tst(
                                "adv_acc",
                                ix(0),
                                tmp("adv_acc", ix(0)).plus(
                                    Expr::Shape(iv("g"), iv("a"))
                                        .mul(ws("ELVEL", ix(0).t(3, "a").t(1, "d"))),
                                ),
                            )],
                        ),
                        Stmt::Fma(4),
                        wst("GPADV", ix(0).t(3, "g").t(1, "d"), tmp("adv_acc", ix(0))),
                    ],
                ),
                fr(
                    "d",
                    3,
                    vec![
                        tst("con_acc", ix(0), k(0.0)),
                        fr(
                            "i",
                            3,
                            vec![tst(
                                "con_acc",
                                ix(0),
                                tmp("con_acc", ix(0)).plus(
                                    ws("GPADV", ix(0).t(3, "g").t(1, "i"))
                                        .mul(ws("GVE", ix(0).t(3, "i").t(1, "d"))),
                                ),
                            )],
                        ),
                        Stmt::Fma(3),
                        Stmt::Flop(1),
                        wst(
                            "GPCON",
                            ix(0).t(3, "g").t(1, "d"),
                            Expr::Rho.mul(tmp("con_acc", ix(0))),
                        ),
                    ],
                ),
            ],
        )],
    }
}

/// Mean elemental pressure and the constant body-force vector.
fn rs_mean_pressure_force_block() -> Block {
    Block {
        tag: "mean-pressure-force",
        stmts: vec![
            tst("pbar_acc", ix(0), k(0.0)),
            fr(
                "a",
                4,
                vec![tst(
                    "pbar_acc",
                    ix(0),
                    tmp("pbar_acc", ix(0)).plus(ws("ELPRE", iv("a"))),
                )],
            ),
            Stmt::Flop(4),
            wst("PBAR", ix(0), k(0.25).mul(tmp("pbar_acc", ix(0)))),
            fr(
                "d",
                3,
                vec![
                    Stmt::Flop(1),
                    wst("FORCE", iv("d"), Expr::Rho.mul(Expr::BodyForce(iv("d")))),
                ],
            ),
        ],
    }
}

/// Direct RHS accumulation: convection, pressure + force, diffusion.
fn rs_accumulate_block() -> Block {
    let mut stmts = vec![
        tst("vol_r", ix(0), ws("VOL", ix(0))),
        Stmt::Flop(1),
        tst("gpvol_t", ix(0), k(0.25).mul(tmp("vol_r", ix(0)))),
        fr(
            "a",
            4,
            vec![fr(
                "d",
                3,
                vec![wst("ELRHS", ix(0).t(3, "a").t(1, "d"), k(0.0))],
            )],
        ),
        fr(
            "g",
            4,
            vec![fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![
                        tst("con_r", ix(0), ws("GPCON", ix(0).t(3, "g").t(1, "d"))),
                        Stmt::Flop(2),
                        wacc(
                            "ELRHS",
                            ix(0).t(3, "a").t(1, "d"),
                            tmp("gpvol_t", ix(0))
                                .neg()
                                .mul(Expr::Shape(iv("g"), iv("a")))
                                .mul(tmp("con_r", ix(0))),
                        ),
                    ],
                )],
            )],
        ),
        tst("pbar_r", ix(0), ws("PBAR", ix(0))),
        fr(
            "a",
            4,
            vec![fr(
                "d",
                3,
                vec![
                    tst("car_r", ix(0), ws("CARTE", ix(0).t(3, "a").t(1, "d"))),
                    tst("f_r", ix(0), ws("FORCE", iv("d"))),
                    Stmt::Fma(2),
                    Stmt::Flop(2),
                    wacc(
                        "ELRHS",
                        ix(0).t(3, "a").t(1, "d"),
                        tmp("vol_r", ix(0))
                            .mul(tmp("pbar_r", ix(0)))
                            .mul(tmp("car_r", ix(0)))
                            .plus(tmp("gpvol_t", ix(0)).mul(tmp("f_r", ix(0)))),
                    ),
                ],
            )],
        ),
        tst("nut_r", ix(0), ws("NUT", ix(0))),
        Stmt::Flop(2),
        tst(
            "mueff_t",
            ix(0),
            Expr::Mu.plus(Expr::Rho.mul(tmp("nut_r", ix(0)))),
        ),
    ];
    stmts.push(fr(
        "a",
        4,
        vec![fr(
            "d",
            3,
            vec![
                tst("flux_t", ix(0), k(0.0)),
                fr(
                    "b",
                    4,
                    vec![
                        tst("gdot_t", ix(0), k(0.0)),
                        fr(
                            "i",
                            3,
                            vec![tst(
                                "gdot_t",
                                ix(0),
                                tmp("gdot_t", ix(0)).plus(
                                    ws("CARTE", ix(0).t(3, "a").t(1, "i"))
                                        .mul(ws("CARTE", ix(0).t(3, "b").t(1, "i"))),
                                ),
                            )],
                        ),
                        Stmt::Fma(3),
                        tst("u_t", ix(0), ws("ELVEL", ix(0).t(3, "b").t(1, "d"))),
                        Stmt::Fma(1),
                        tst(
                            "flux_t",
                            ix(0),
                            tmp("flux_t", ix(0)).plus(tmp("gdot_t", ix(0)).mul(tmp("u_t", ix(0)))),
                        ),
                    ],
                ),
                wst("DIFF", ix(0).t(3, "a").t(1, "d"), tmp("flux_t", ix(0))),
                tst("flux_r", ix(0), ws("DIFF", ix(0).t(3, "a").t(1, "d"))),
                Stmt::Flop(2),
                wacc(
                    "ELRHS",
                    ix(0).t(3, "a").t(1, "d"),
                    tmp("vol_r", ix(0))
                        .neg()
                        .mul(tmp("mueff_t", ix(0)))
                        .mul(tmp("flux_r", ix(0))),
                ),
            ],
        )],
    ));
    Block {
        tag: "accumulate",
        stmts,
    }
}

/// Restructuring + specialization: constant properties, constant
/// gradients, no elemental matrices. The gather and scatter blocks of the
/// base form are carried over (minus the gathers the specialization makes
/// dead); the generic interior is replaced by the restructured pipeline.
pub fn restructure_specialize(base: &Program) -> Program {
    assert_eq!(base.variant, Variant::B, "RS is derived from the base form");
    // The specialization constant-folds the runtime constitutive model.
    let specialize = |e: &Expr| -> Option<Expr> {
        match e {
            Expr::DensityAt(_) => Some(Expr::Rho),
            Expr::ViscosityAt(_) => Some(Expr::Mu),
            _ => None,
        }
    };
    // Blocks the restructuring eliminates outright (dead after
    // specialization, or replaced by the direct accumulation).
    for dead in [
        "gather-temperature",
        "gather-nut",
        "matrices",
        "emat",
        "mass",
        "rhs",
    ] {
        let _ = base.block(dead);
    }
    let carry = |tag: Sym| -> Block {
        let b = base.block(tag);
        Block {
            tag: b.tag,
            stmts: rewrite_stmts(&b.stmts, &specialize, &|_| None),
        }
    };
    let blocks = vec![
        carry("gather-conn"),
        carry("gather-coords"),
        carry("gather-velocity"),
        carry("gather-pressure"),
        rs_geometry_block(),
        rs_gve_block(),
        rs_vreman_block(),
        rs_gauss_vectors_block(),
        rs_mean_pressure_force_block(),
        rs_accumulate_block(),
        carry("scatter"),
    ];
    debug_assert_eq!(scatter_block("ELRHS"), base.block("scatter").clone());
    Program {
        name: "RS",
        variant: Variant::Rs,
        space: Some(Space::Global),
        buffers: rs_buffers(),
        blocks,
    }
}

// ---- RS → RSP --------------------------------------------------------------

/// Buffer → private-array renames of the scalar-privatization pass.
const RSP_RENAMES: &[(Sym, Sym)] = &[
    ("ELCOD", "coords"),
    ("ELVEL", "vel"),
    ("ELPRE", "pre"),
    ("CARTE", "grads"),
    ("VOL", "vol"),
    ("GVE", "gve"),
    ("NUT", "nut"),
    ("ELRHS", "rhs"),
];

/// RHS accumulator definitions plus the folded `gpvol` constant — hoisted
/// ahead of the (now fused) Gauss loop.
fn rsp_rhs_init_block() -> Block {
    Block {
        tag: "rhs-init",
        stmts: vec![
            fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![pdef("rhs", ix(0).t(3, "a").t(1, "d"), k(0.0))],
                )],
            ),
            Stmt::Flop(1),
            tst("gpvol_t", ix(0), k(0.25).mul(pv("vol", ix(0)))),
        ],
    }
}

/// The fused Gauss loop: contracted advection/convection vectors (3
/// short-lived registers each, re-defined per point) and the convection
/// accumulation folded in — contraction leaves it nowhere else to go.
fn rsp_gauss_block() -> Block {
    Block {
        tag: "gauss",
        stmts: vec![fr(
            "g",
            4,
            vec![
                fr(
                    "d",
                    3,
                    vec![
                        tst("adv_raw", iv("d"), k(0.0)),
                        fr(
                            "a",
                            4,
                            vec![tst(
                                "adv_raw",
                                iv("d"),
                                tmp("adv_raw", iv("d")).plus(
                                    Expr::Shape(iv("g"), iv("a"))
                                        .mul(pv("vel", ix(0).t(3, "a").t(1, "d"))),
                                ),
                            )],
                        ),
                        Stmt::Fma(4),
                    ],
                ),
                fr("d", 3, vec![pdef("adv", iv("d"), tmp("adv_raw", iv("d")))]),
                fr(
                    "d",
                    3,
                    vec![
                        tst("con_acc", ix(0), k(0.0)),
                        fr(
                            "i",
                            3,
                            vec![tst(
                                "con_acc",
                                ix(0),
                                tmp("con_acc", ix(0)).plus(
                                    pv("adv", iv("i")).mul(pv("gve", ix(0).t(3, "i").t(1, "d"))),
                                ),
                            )],
                        ),
                        Stmt::Fma(3),
                        Stmt::Flop(1),
                        tst("con_raw", iv("d"), Expr::Rho.mul(tmp("con_acc", ix(0)))),
                    ],
                ),
                fr("d", 3, vec![pdef("con", iv("d"), tmp("con_raw", iv("d")))]),
                fr(
                    "a",
                    4,
                    vec![fr(
                        "d",
                        3,
                        vec![
                            Stmt::Flop(2),
                            tst(
                                "inc_t",
                                ix(0),
                                tmp("gpvol_t", ix(0))
                                    .neg()
                                    .mul(Expr::Shape(iv("g"), iv("a")))
                                    .mul(pv("con", iv("d"))),
                            ),
                            Stmt::Flop(1),
                            Stmt::PrivSet {
                                buf: "rhs",
                                ix: ix(0).t(3, "a").t(1, "d"),
                                val: pv("rhs", ix(0).t(3, "a").t(1, "d")).plus(tmp("inc_t", ix(0))),
                            },
                        ],
                    )],
                ),
            ],
        )],
    }
}

/// Mean pressure, effective viscosity, then the pressure/force and
/// diffusion accumulations over tracked private scalars.
fn rsp_tail_block() -> Block {
    Block {
        tag: "tail",
        stmts: vec![
            Stmt::Flop(4),
            pdef(
                "pbar",
                ix(0),
                k(0.25).mul(
                    pv("pre", ix(0))
                        .plus(pv("pre", ix(1)))
                        .plus(pv("pre", ix(2)))
                        .plus(pv("pre", ix(3))),
                ),
            ),
            Stmt::Flop(2),
            pdef(
                "mu_eff",
                ix(0),
                Expr::Mu.plus(Expr::Rho.mul(pv("nut", ix(0)))),
            ),
            tst("volv_t", ix(0), pv("vol", ix(0))),
            fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![
                        Stmt::Fma(2),
                        Stmt::Flop(2),
                        tst(
                            "inc_t",
                            ix(0),
                            tmp("volv_t", ix(0))
                                .mul(pv("pbar", ix(0)))
                                .mul(pv("grads", ix(0).t(3, "a").t(1, "d")))
                                .plus(
                                    tmp("gpvol_t", ix(0))
                                        .mul(Expr::Rho)
                                        .mul(Expr::BodyForce(iv("d"))),
                                ),
                        ),
                        Stmt::Flop(1),
                        Stmt::PrivSet {
                            buf: "rhs",
                            ix: ix(0).t(3, "a").t(1, "d"),
                            val: pv("rhs", ix(0).t(3, "a").t(1, "d")).plus(tmp("inc_t", ix(0))),
                        },
                    ],
                )],
            ),
            fr(
                "a",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![
                        tst("flux_t", ix(0), k(0.0)),
                        fr(
                            "b",
                            4,
                            vec![
                                tst("gdot_t", ix(0), k(0.0)),
                                fr(
                                    "i",
                                    3,
                                    vec![tst(
                                        "gdot_t",
                                        ix(0),
                                        tmp("gdot_t", ix(0)).plus(
                                            pv("grads", ix(0).t(3, "a").t(1, "i"))
                                                .mul(pv("grads", ix(0).t(3, "b").t(1, "i"))),
                                        ),
                                    )],
                                ),
                                Stmt::Fma(3),
                                Stmt::Fma(1),
                                tst(
                                    "flux_t",
                                    ix(0),
                                    tmp("flux_t", ix(0)).plus(
                                        tmp("gdot_t", ix(0))
                                            .mul(pv("vel", ix(0).t(3, "b").t(1, "d"))),
                                    ),
                                ),
                            ],
                        ),
                        Stmt::Flop(3),
                        Stmt::PrivSet {
                            buf: "rhs",
                            ix: ix(0).t(3, "a").t(1, "d"),
                            val: pv("rhs", ix(0).t(3, "a").t(1, "d")).sub(
                                tmp("volv_t", ix(0))
                                    .mul(pv("mu_eff", ix(0)))
                                    .mul(tmp("flux_t", ix(0))),
                            ),
                        },
                    ],
                )],
            ),
        ],
    }
}

/// Scalar privatization: the surviving workspace arrays become tracked
/// private values, the advection/convection vectors contract to per-point
/// registers (fusing the convection accumulation into the Gauss loop), and
/// `PBAR`/`FORCE`/`DIFF` disappear into their use sites.
pub fn privatize_scalars(rs: &Program) -> Program {
    assert_eq!(rs.variant, Variant::Rs, "RSP is derived from RS");
    let gve_defs = fr(
        "i",
        3,
        vec![fr(
            "j",
            3,
            vec![pdef(
                "gve",
                ix(0).t(3, "i").t(1, "j"),
                tmp("gve_raw", ix(0).t(3, "i").t(1, "j")),
            )],
        )],
    );
    let vreman = privatize_block(rs.block("vreman"), RSP_RENAMES);
    let vreman = Block {
        tag: vreman.tag,
        stmts: fold_tmp(&vreman.stmts, "vol_v"),
    };
    // The restructured accumulation blocks are replaced, not mapped: the
    // contraction of GPADV/GPCON and the elimination of PBAR/FORCE/DIFF
    // change the loop structure itself. Assert they exist so the pass
    // breaks loudly if the RS derivation changes shape.
    for replaced in ["gauss-vectors", "mean-pressure-force", "accumulate"] {
        let _ = rs.block(replaced);
    }
    let blocks = vec![
        rs.block("gather-conn").clone(),
        privatize_block(rs.block("gather-coords"), RSP_RENAMES),
        privatize_block(rs.block("gather-velocity"), RSP_RENAMES),
        privatize_block(rs.block("gather-pressure"), RSP_RENAMES),
        privatize_block(rs.block("geometry"), RSP_RENAMES),
        sink_defs(
            &privatize_block(rs.block("gve"), RSP_RENAMES),
            "gve",
            "gve_raw",
            vec![gve_defs],
        ),
        vreman,
        rsp_rhs_init_block(),
        rsp_gauss_block(),
        rsp_tail_block(),
        privatize_block(rs.block("scatter"), RSP_RENAMES),
    ];
    Program {
        name: "RSP",
        variant: Variant::Rsp,
        space: None,
        buffers: Vec::new(),
        blocks,
    }
}

// ---- RSP → RSPR ------------------------------------------------------------

/// Recombination: the convection vector is re-expanded to one long-lived
/// register per `(g, d)` (un-fusing the accumulation from the Gauss loop),
/// and the three accumulation loops are recombined node-major with three
/// short-lived per-node registers — the shape whose peak pressure fits the
/// contract budget without spills.
pub fn recombine(rsp: &Program) -> Program {
    assert_eq!(rsp.variant, Variant::Rsp, "RSPR is derived from RSP");
    // Gauss loop: drop the fused accumulation, widen the con definitions
    // from per-point `d` to long-lived `3g + d`.
    let gauss = rsp.block("gauss");
    let widened = {
        let fs = |s: &Stmt| -> Option<Stmt> {
            if let Stmt::PrivDef {
                buf: "con",
                ix: i,
                val,
            } = s
            {
                assert_eq!(*i, iv("d"), "con contraction shape changed");
                Some(Stmt::PrivDef {
                    buf: "con",
                    ix: ix(0).t(3, "g").t(1, "d"),
                    val: val.clone(),
                })
            } else {
                None
            }
        };
        let mut stmts = rewrite_stmts(&gauss.stmts, &|_| None, &fs);
        let [Stmt::For { body, .. }] = stmts.as_mut_slice() else {
            panic!("gauss block is one Gauss loop");
        };
        let dropped = body.pop().expect("gauss loop has a fused accumulation");
        assert!(
            matches!(&dropped, Stmt::For { var, .. } if *var == "a"),
            "the dropped statement is the fused node-loop accumulation"
        );
        Block {
            tag: "gauss",
            stmts,
        }
    };
    // Tail prologue: pbar and mu_eff definitions carried over verbatim;
    // the volume read gains the single gpvol fold (rhs-init is gone).
    let tail = rsp.block("tail");
    let mut prologue: Vec<Stmt> = tail.stmts[..4].to_vec();
    assert!(
        matches!(prologue[1], Stmt::PrivDef { buf: "pbar", .. })
            && matches!(prologue[3], Stmt::PrivDef { buf: "mu_eff", .. }),
        "tail prologue is the pbar/mu_eff definitions"
    );
    prologue.push(Stmt::Flop(1));
    prologue.push(tst("volv_t", ix(0), pv("vol", ix(0))));
    prologue.push(tst("gpvol_t", ix(0), k(0.25).mul(tmp("volv_t", ix(0)))));
    let node_loop = fr(
        "a",
        4,
        vec![
            fr("d", 3, vec![tst("acc_t", iv("d"), k(0.0))]),
            fr(
                "g",
                4,
                vec![fr(
                    "d",
                    3,
                    vec![
                        Stmt::Flop(3),
                        tst(
                            "acc_t",
                            iv("d"),
                            tmp("acc_t", iv("d")).sub(
                                tmp("gpvol_t", ix(0))
                                    .mul(Expr::Shape(iv("g"), iv("a")))
                                    .mul(pv("con", ix(0).t(3, "g").t(1, "d"))),
                            ),
                        ),
                    ],
                )],
            ),
            fr(
                "d",
                3,
                vec![
                    Stmt::Fma(2),
                    Stmt::Flop(3),
                    tst(
                        "acc_t",
                        iv("d"),
                        tmp("acc_t", iv("d")).plus(
                            tmp("volv_t", ix(0))
                                .mul(pv("pbar", ix(0)))
                                .mul(pv("grads", ix(0).t(3, "a").t(1, "d")))
                                .plus(
                                    tmp("gpvol_t", ix(0))
                                        .mul(Expr::Rho)
                                        .mul(Expr::BodyForce(iv("d"))),
                                ),
                        ),
                    ),
                ],
            ),
            fr(
                "d",
                3,
                vec![
                    tst("flux_t", ix(0), k(0.0)),
                    fr(
                        "b",
                        4,
                        vec![
                            tst("gdot_t", ix(0), k(0.0)),
                            fr(
                                "i",
                                3,
                                vec![tst(
                                    "gdot_t",
                                    ix(0),
                                    tmp("gdot_t", ix(0)).plus(
                                        pv("grads", ix(0).t(3, "a").t(1, "i"))
                                            .mul(pv("grads", ix(0).t(3, "b").t(1, "i"))),
                                    ),
                                )],
                            ),
                            Stmt::Fma(3),
                            Stmt::Fma(1),
                            tst(
                                "flux_t",
                                ix(0),
                                tmp("flux_t", ix(0)).plus(
                                    tmp("gdot_t", ix(0)).mul(pv("vel", ix(0).t(3, "b").t(1, "d"))),
                                ),
                            ),
                        ],
                    ),
                    Stmt::Flop(3),
                    tst(
                        "acc_t",
                        iv("d"),
                        tmp("acc_t", iv("d")).sub(
                            tmp("volv_t", ix(0))
                                .mul(pv("mu_eff", ix(0)))
                                .mul(tmp("flux_t", ix(0))),
                        ),
                    ),
                ],
            ),
            fr("d", 3, vec![pdef("acc", iv("d"), tmp("acc_t", iv("d")))]),
            fr(
                "d",
                3,
                vec![Stmt::EmitNode {
                    node: iv("a"),
                    dim: iv("d"),
                    val: pv("acc", iv("d")),
                }],
            ),
        ],
    );
    let mut blocks: Vec<Block> = [
        "gather-conn",
        "gather-coords",
        "gather-velocity",
        "gather-pressure",
        "geometry",
        "gve",
        "vreman",
    ]
    .iter()
    .map(|t| rsp.block(t).clone())
    .collect();
    blocks.push(widened);
    let mut tail_stmts = prologue;
    tail_stmts.push(node_loop);
    blocks.push(Block {
        tag: "node-recombine",
        stmts: tail_stmts,
    });
    Program {
        name: "RSPR",
        variant: Variant::Rspr,
        space: None,
        buffers: Vec::new(),
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::base;

    #[test]
    fn p_is_base_with_a_local_workspace() {
        let b = base();
        let p = privatize_workspace(&b);
        assert_eq!(p.variant, Variant::P);
        assert_eq!(p.space, Some(Space::Local));
        assert_eq!(p.blocks, b.blocks);
        assert_eq!(p.buffers, b.buffers);
    }

    #[test]
    fn derived_catalogs_match_variant_nvalues() {
        for v in Variant::ALL {
            let prog = crate::derive(v);
            assert_eq!(prog.nvalues(), v.nvalues(), "{}", v.name());
            assert_eq!(prog.variant, v);
        }
    }

    #[test]
    fn base_mutations_propagate_to_every_derived_variant() {
        // A change to the single base description must flow through the
        // whole derivation chain — that is what "derived, not re-described"
        // means. Mutate the gather-pressure block and check every variant
        // sees it.
        let mut mutated = base();
        mutated
            .block_mut("gather-pressure")
            .stmts
            .push(Stmt::Flop(7));
        let rs = restructure_specialize(&mutated);
        let rsp = privatize_scalars(&rs);
        let rspr = recombine(&rsp);
        for prog in [privatize_workspace(&mutated), rs.clone(), rsp.clone(), rspr] {
            assert_eq!(
                prog.block("gather-pressure").stmts.last(),
                Some(&Stmt::Flop(7)),
                "{} lost the base mutation",
                prog.name
            );
        }
    }

    #[test]
    fn privatization_rewrites_loads_and_stores() {
        let rs = restructure_specialize(&base());
        let rsp = privatize_scalars(&rs);
        // The privatized scatter reads tracked registers, not workspace.
        let scatter = rsp.block("scatter");
        let has_ws = format!("{:?}", scatter.stmts).contains("Ws(");
        assert!(!has_ws, "privatized scatter still reads the workspace");
    }
}
