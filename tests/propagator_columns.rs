//! A propagator's 12 columns against 12 lone column solves.
//!
//! `PropagatorSolver`'s whole-propagator entry points (`point_propagator`,
//! `sequential_propagator`, `FeynmanHellmann::fixed_time_propagator`) must
//! return, column for column, exactly what 12 calls of
//! `PropagatorSolver::solve` return: every real of the solution field by
//! its bit pattern, every `SolveStats` field, the residual by `to_bits`. That
//! holds at any pool width, however the columns are scheduled. Each column
//! also reports its solve into the caller's ambient observability registry.

use lqcd::core::gamma::gamma3_gamma5;
use lqcd::core::prelude::*;
use lqcd::core::spinor::Spinor;
use obs::{assert_counter, Registry};

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

/// 4²×2×8, L5 = 4: the half-volume's 128 sites span four stencil chunks, so
/// every Möbius hop of a lone column forks at widths above 1.
fn setup() -> (Lattice, GaugeField<f64>, SolverKind) {
    let lat = Lattice::new([4, 4, 2, 8]);
    let mut ens = QuenchedEnsemble::cold_start(&lat, HeatbathParams { beta: 6.0, n_or: 2 }, 7);
    let gauge = ens.generate(4, 1, 1).pop().expect("one configuration");
    let params = MobiusParams::standard(4, 0.3);
    (lat, gauge, SolverKind::MobiusMixed { params })
}

/// Every real of `v` as its bit pattern.
fn bits(v: &[Spinor<f64>]) -> Vec<u64> {
    v.iter()
        .flat_map(|sp| sp.s.iter().flat_map(|cv| cv.c.iter()))
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// Every field of a `SolveStats`, floats by their bit patterns. The
/// destructuring names each field, so a new one must be added here.
fn stats_bits(s: &SolveStats) -> [u64; 8] {
    let SolveStats {
        iterations,
        final_rel_residual,
        converged,
        reliable_updates,
        flops,
        breakdown,
        checkpoints,
        comm_restarts,
    } = *s;
    [
        iterations as u64,
        final_rel_residual.to_bits(),
        converged as u64,
        reliable_updates as u64,
        flops.to_bits(),
        breakdown as u64,
        checkpoints as u64,
        comm_restarts as u64,
    ]
}

type Columns = Vec<(Vec<u64>, [u64; 8])>;

fn columns_of(prop: &Propagator, stats: &[SolveStats]) -> Columns {
    assert_eq!(prop.columns.len(), 12);
    assert_eq!(stats.len(), 12);
    prop.columns
        .iter()
        .zip(stats)
        .map(|(q, s)| (bits(&q.data), stats_bits(s)))
        .collect()
}

/// 12 lone `solve` calls, one per source: the solutions and their columns.
fn lone_solves(
    solver: &PropagatorSolver,
    sources: &[FermionField<f64>],
) -> (Vec<FermionField<f64>>, Columns) {
    sources
        .iter()
        .map(|b| {
            let (q, s) = solver.solve(b);
            assert!(s.converged, "reference column: {s:?}");
            let column = (bits(&q.data), stats_bits(&s));
            (q, column)
        })
        .unzip()
}

fn assert_columns_equal(what: &str, width: usize, got: &Columns, want: &Columns) {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.0 == w.0, "{what}, width {width}: column {k}'s field bits");
        assert_eq!(g.1, w.1, "{what}, width {width}: column {k}'s stats");
    }
}

#[test]
fn propagator_columns_equal_lone_solves_at_every_width() {
    let (lat, gauge, kind) = setup();
    let solver = PropagatorSolver::new(&lat, &gauge, kind);
    let site = 37;
    let t_insert = 2;
    let ins = gamma3_gamma5();

    let point_sources: Vec<_> = (0..12)
        .map(|sc| point_source(&lat, site, sc / 3, sc % 3))
        .collect();
    let (point_fields, point_want) = lone_solves(&solver, &point_sources);
    let base = Propagator {
        columns: point_fields,
        source_site: site,
        source_time: lat.time_of(site),
    };
    let seq_sources: Vec<_> = base
        .columns
        .iter()
        .map(|col| FermionField {
            data: col.data.iter().map(|s| s.apply_spin_matrix(&ins)).collect(),
        })
        .collect();
    let (_, seq_want) = lone_solves(&solver, &seq_sources);
    let fixed_sources: Vec<_> = base
        .columns
        .iter()
        .map(|col| FermionField {
            data: (0..lat.volume())
                .map(|x| {
                    if lat.time_of(x) == t_insert {
                        col.data[x].apply_spin_matrix(&ins)
                    } else {
                        Spinor::zero()
                    }
                })
                .collect(),
        })
        .collect();
    let (_, fixed_want) = lone_solves(&solver, &fixed_sources);

    for width in [1, 2, 4] {
        let (point, seq, fixed) = at_width(width, || {
            let (prop, stats) = solver.point_propagator(site);
            assert_eq!(
                (prop.source_site, prop.source_time),
                (site, lat.time_of(site))
            );
            let point = columns_of(&prop, &stats);
            let (seq, seq_stats) = solver.sequential_propagator(&base, &ins);
            let fh = FeynmanHellmann::with_insertion(&solver, ins);
            let (fixed, fixed_stats) = fh.fixed_time_propagator(&base, t_insert);
            (
                point,
                columns_of(&seq, &seq_stats),
                columns_of(&fixed, &fixed_stats),
            )
        });
        assert_columns_equal("point_propagator", width, &point, &point_want);
        assert_columns_equal("sequential_propagator", width, &seq, &seq_want);
        assert_columns_equal("fixed_time_propagator", width, &fixed, &fixed_want);
    }
}

#[test]
fn every_column_reports_into_the_callers_registry() {
    let (lat, gauge, kind) = setup();
    let solver = PropagatorSolver::new(&lat, &gauge, kind);
    let reg = Registry::new();
    let stats = {
        let _guard = reg.install_scoped();
        at_width(2, || solver.point_propagator(0).1)
    };
    assert_counter!(reg, "solver.mixed.solves", 12);
    assert_counter!(
        reg,
        "solver.mixed.iters",
        stats.iter().map(|s| s.iterations as u64).sum::<u64>()
    );
}
