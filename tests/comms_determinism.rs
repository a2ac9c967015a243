//! Bit-identity suite for the sharded halo-exchange dslash.
//!
//! The decomposed kernel promises output bit-identical to the single-domain
//! kernel for every (rank grid, thread width, precision, communication
//! policy, lane shape) combination: each local site's `L5 × nrhs` spinors go
//! through the very lane row the single-domain sweep runs, fed ghost
//! spinors and gauge links gathered from the same global field. These tests
//! pin that contract — including the antiperiodic-t boundary signs, which
//! cross *rank* boundaries when the t direction is partitioned, and every
//! mix of full lane groups, half groups and scalar remainders — and stress
//! the exactly-once pack/unpack discipline under repeated threaded applies.

use lqcd::core::dirac::LinearOp;
use lqcd::core::prelude::*;
use lqcd::machine::commpolicy::{CommPolicy, CommTransport};
use std::sync::Arc;

const GRIDS: [[usize; 4]; 3] = [[1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 1, 1]];
const WIDTHS: [usize; 2] = [1, 8];
const L5: usize = 4;
const GPUS_PER_NODE: usize = 4;

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

/// Reference: the single-domain kernel's fused sweep over an s-major,
/// RHS-innermost 5D block of `nrhs` columns.
fn single_domain_hop<R: Real, G: GaugeLinks<R>>(
    lat: &Lattice,
    gauge: &G,
    inp: &[Spinor<R>],
    (l5, nrhs): (usize, usize),
) -> Vec<Spinor<R>> {
    let hopping = HoppingKernel::new(lat, gauge, true);
    let mut out = vec![Spinor::zero(); inp.len()];
    hopping.apply_full_fused_5d(&mut out, inp, l5, nrhs, 1024, &|psi| psi, &|_, h| h);
    out
}

/// The sharded kernel under `grid`/`policy`, scattered, applied, gathered.
fn sharded_hop<R: Real, G: GaugeLinks<R>>(
    lat: &Lattice,
    gauge: &G,
    inp: &[Spinor<R>],
    (l5, nrhs): (usize, usize),
    grid: [usize; 4],
    policy: CommPolicy,
) -> (Vec<Spinor<R>>, lqcd::core::comms::CommStats) {
    let domain =
        Arc::new(DomainDecomposition::new(lat, grid, l5, GPUS_PER_NODE).expect("divisible grid"));
    let mut kernel = ShardedHopping::new(domain.clone(), gauge, true, policy);
    let mut si = ShardedField::scatter_block(&domain, inp, l5, nrhs);
    let mut so = ShardedField::zeros_block(&domain, l5, nrhs);
    kernel
        .apply(&mut so, &mut si)
        .expect("fault-free transport");
    let mut out = vec![Spinor::zero(); inp.len()];
    so.gather_into(&domain, &mut out);
    (out, kernel.stats())
}

#[test]
fn sharded_dslash_bit_identical_f64_all_grids_widths_policies() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 61);
    let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 62).data;
    let reference = at_width(1, || single_domain_hop(&lat, &gauge, &inp, (L5, 1)));

    for grid in GRIDS {
        for &w in &WIDTHS {
            for policy in CommPolicy::all() {
                let (got, _) =
                    at_width(w, || sharded_hop(&lat, &gauge, &inp, (L5, 1), grid, policy));
                assert_eq!(
                    got,
                    reference,
                    "grid {grid:?}, width {w}, policy {}",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn sharded_dslash_bit_identical_half_precision_gauge() {
    // The f32 path through HalfGaugeField exercises deterministic
    // decode-on-access: the sharded kernel gathers its link tables through
    // the same `GaugeLinks::link` calls as the single-domain stencil.
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge32 = GaugeField::<f32>::hot(&lat, 63);
    let half = HalfGaugeField::from_gauge(&gauge32);
    let inp = FermionField::<f32>::gaussian(L5 * lat.volume(), 64).data;
    let reference = at_width(1, || single_domain_hop(&lat, &half, &inp, (L5, 1)));

    for grid in GRIDS {
        for &w in &WIDTHS {
            for policy in CommPolicy::all() {
                let (got, _) =
                    at_width(w, || sharded_hop(&lat, &half, &inp, (L5, 1), grid, policy));
                assert_eq!(
                    got,
                    reference,
                    "grid {grid:?}, width {w}, policy {}",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn antiperiodic_t_sign_lands_on_rank_boundary_hops() {
    // Partition the t direction so the global t-wrap is a *ghost* hop, and
    // compare against the single-domain kernel where it is a local wrap.
    // Distinct policies must all agree, so the sign cannot be coming from
    // per-policy code paths.
    let lat = Lattice::new([4, 4, 2, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 65);
    let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 66).data;
    let reference = single_domain_hop(&lat, &gauge, &inp, (L5, 1));

    for grid in [[1, 1, 1, 2], [1, 1, 1, 4], [2, 1, 1, 2]] {
        for policy in CommPolicy::all() {
            let (got, _) = sharded_hop(&lat, &gauge, &inp, (L5, 1), grid, policy);
            assert_eq!(got, reference, "grid {grid:?}, policy {}", policy.label());
        }
    }
}

/// The `(l5, nrhs)` shapes of the single-domain lane tests
/// (`dirac::hopping`'s `LANE_SHAPES`): in `f32` (8 lanes, half group 4)
/// full groups only, full then half group then scalar remainder (2 × 7),
/// half group only, half group then remainder and remainder only; in `f64`
/// (4 lanes, half group 2) full groups only, full then half, half then
/// remainder and remainder only.
const LANE_SHAPES: [(usize, usize); 10] = [
    (1, 1),
    (2, 1),
    (1, 3),
    (1, 4),
    (4, 1),
    (2, 3),
    (8, 1),
    (2, 4),
    (2, 7),
    (4, 4),
];

/// Every real of `v` as its (exactly widened) `f64` bit pattern.
fn real_bits<R: Real>(v: &[Spinor<R>]) -> Vec<u64> {
    v.iter()
        .flat_map(|psi| psi.s.iter().flat_map(|cv| cv.c.iter()))
        .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
        .collect()
}

/// The sharded hop against the single-domain sweep at every lane shape, on
/// two x/y-partitioned grids and the t-partitioned one (so antiperiodic
/// ghost hops go through the lanes), under the production coarse policy
/// and the GPU-Direct fine one.
fn sharded_lane_shapes_match<R: Real, G: GaugeLinks<R>>(lat: &Lattice, gauge: &G) {
    let all = CommPolicy::all();
    let policies = [all[0], all[all.len() - 1]];
    assert_ne!(policies[0].granularity, policies[1].granularity);
    for (l5, nrhs) in LANE_SHAPES {
        let inp = FermionField::<R>::gaussian(l5 * lat.volume() * nrhs, 69).data;
        let reference = real_bits(&single_domain_hop(lat, gauge, &inp, (l5, nrhs)));
        for grid in [[2, 1, 1, 1], [2, 2, 1, 1], [1, 1, 1, 2]] {
            for policy in policies {
                let (got, _) = sharded_hop(lat, gauge, &inp, (l5, nrhs), grid, policy);
                assert!(
                    real_bits(&got) == reference,
                    "{} l5 {l5} nrhs {nrhs}, grid {grid:?}, policy {}",
                    R::NAME,
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn sharded_dslash_bit_identical_at_every_lane_shape() {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 75);
    sharded_lane_shapes_match(&lat, &gauge);
    let half = HalfGaugeField::from_gauge(&gauge.cast::<f32>());
    sharded_lane_shapes_match(&lat, &half);
}

#[test]
fn sharded_mobius_bit_identical_to_single_domain() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 67);
    let params = MobiusParams::standard(L5, 0.08);
    let single = MobiusDirac::new(&lat, &gauge, params);
    let inp = FermionField::<f64>::gaussian(single.vec_len(), 68).data;
    let mut reference = vec![Spinor::zero(); single.vec_len()];
    at_width(1, || single.apply(&mut reference, &inp));

    for grid in GRIDS {
        for &w in &WIDTHS {
            for policy in CommPolicy::all() {
                let domain = Arc::new(
                    DomainDecomposition::new(&lat, grid, L5, GPUS_PER_NODE).expect("grid"),
                );
                let mut op = ShardedMobius::new(&lat, &gauge, params, domain, policy);
                let mut got = vec![Spinor::zero(); op.vec_len()];
                at_width(w, || {
                    op.apply_block(&mut got, &inp, 1)
                        .expect("fault-free transport")
                });
                assert_eq!(
                    got,
                    reference,
                    "grid {grid:?}, width {w}, policy {}",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn exactly_once_pack_unpack_under_repeated_threaded_applies() {
    // Every apply internally asserts that each face is packed exactly once
    // and each ghost zone filled exactly once (duplicate or missing halo
    // messages are hard errors inside the kernel). Hammer that discipline
    // with repeated applies at full width and check the cumulative stats
    // against the analytic expectations.
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 71);
    let grid = [2, 2, 1, 1];
    let domain =
        Arc::new(DomainDecomposition::new(&lat, grid, L5, GPUS_PER_NODE).expect("divisible grid"));
    let n_applies = 25u64;
    let spinor_bytes = std::mem::size_of::<Spinor<f64>>() as u64;
    let per_apply_msgs = domain.total_messages_per_apply() as u64;
    let per_apply_halo_sites: u64 = domain
        .ranks()
        .iter()
        .flat_map(|r| r.exchanges.iter())
        .map(|ex| 2 * (ex.face_len * L5) as u64)
        .sum();

    for policy in CommPolicy::all() {
        let mut kernel = ShardedHopping::new(domain.clone(), &gauge, true, policy);
        let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 72).data;
        at_width(8, || {
            let mut si = ShardedField::scatter(&domain, &inp, L5);
            let mut so = ShardedField::zeros(&domain, L5);
            for _ in 0..n_applies {
                kernel
                    .apply(&mut so, &mut si)
                    .expect("fault-free transport");
            }
        });
        let s = kernel.stats();
        let label = policy.label();
        assert_eq!(s.applies, n_applies, "{label}");
        assert_eq!(s.messages, n_applies * per_apply_msgs, "{label}");
        assert_eq!(s.halo_sites, n_applies * per_apply_halo_sites, "{label}");
        assert_eq!(
            s.bytes_sent,
            n_applies * per_apply_halo_sites * spinor_bytes,
            "{label}"
        );
        let pack_copies = match policy.transport {
            CommTransport::StagedDma => 2,
            CommTransport::ZeroCopy => 1,
            CommTransport::GdrDirect => 0,
        };
        assert_eq!(
            s.bytes_packed,
            pack_copies * n_applies * per_apply_halo_sites * spinor_bytes,
            "{label}"
        );
        assert_eq!(
            s.sites_interior + s.sites_boundary,
            n_applies * (lat.volume() * L5) as u64,
            "{label}"
        );
    }
}

#[test]
fn tuner_sweeps_every_policy_and_installs_winner() {
    use lqcd::autotune::Tuner;
    use lqcd::obs::ManualClock;

    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 81);
    let domain =
        Arc::new(DomainDecomposition::new(&lat, [2, 1, 1, 1], L5, GPUS_PER_NODE).expect("grid"));
    let mut kernel = ShardedHopping::new(domain.clone(), &gauge, true, CommPolicy::all()[0]);
    let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 82).data;
    let mut si = ShardedField::scatter(&domain, &inp, L5);
    let mut so = ShardedField::zeros(&domain, L5);

    // A frozen clock ranks all candidates equally; the sweep must still
    // visit every policy (2 timed reps each) and install a valid winner.
    let tuner = Tuner::with_clock(ManualClock::new(0.0));
    let best = tune_comm_policy(&tuner, &mut kernel, &mut so, &mut si);
    assert!(CommPolicy::all().contains(&best));
    assert_eq!(kernel.policy(), best);
    let reps_per_candidate = 2;
    assert_eq!(
        kernel.stats().applies,
        (CommPolicy::all().len() * reps_per_candidate) as u64,
        "sweep must execute every policy"
    );

    // Second tune of the same key is served from the cache: no new applies.
    let before = kernel.stats().applies;
    let again = tune_comm_policy(&tuner, &mut kernel, &mut so, &mut si);
    assert_eq!(again, best);
    assert_eq!(kernel.stats().applies, before, "cache hit must not re-run");
}

#[test]
fn fine_granularity_reports_overlap_window_with_manual_clock() {
    use lqcd::machine::commpolicy::CommGranularity;
    use lqcd::obs::ManualClock;

    // Local extent 4 along the split direction, so the interior (sites not
    // touching any ghost) is nonempty.
    let lat = Lattice::new([8, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 73);
    let domain =
        Arc::new(DomainDecomposition::new(&lat, [2, 1, 1, 1], L5, GPUS_PER_NODE).expect("grid"));
    let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 74).data;

    for policy in CommPolicy::all() {
        let clock = ManualClock::new(0.0);
        let mut kernel = ShardedHopping::new(domain.clone(), &gauge, true, policy);
        kernel.set_clock(clock.clone());
        let mut si = ShardedField::scatter(&domain, &inp, L5);
        let mut so = ShardedField::zeros(&domain, L5);
        clock.advance(1.0);
        kernel
            .apply(&mut so, &mut si)
            .expect("fault-free transport");
        let s = kernel.stats();
        match policy.granularity {
            // The manual clock never advances during the apply, so a fine
            // policy reports a zero-length (but measured) window, and the
            // interior/boundary split is real.
            CommGranularity::Fine => {
                assert_eq!(s.overlap_seconds, 0.0, "{}", policy.label());
                assert!(s.sites_interior > 0, "{}", policy.label());
                assert!(s.sites_boundary > 0, "{}", policy.label());
            }
            CommGranularity::Coarse => {
                assert_eq!(s.overlap_seconds, 0.0, "{}", policy.label());
                assert_eq!(s.sites_interior, 0, "{}", policy.label());
            }
        }
    }
}
