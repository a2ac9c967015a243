//! Bit-identity suite for the sharded halo-exchange dslash.
//!
//! The decomposed kernel promises output bit-identical to the single-domain
//! kernel for every (rank grid, thread width, precision, communication
//! policy) combination: the per-site arithmetic is literally the same
//! `hop_site` function, fed ghost spinors and gauge links gathered from the
//! same global field. These tests pin that contract — including the
//! antiperiodic-t boundary signs, which cross *rank* boundaries when the t
//! direction is partitioned — and stress the exactly-once pack/unpack
//! discipline under repeated threaded applies.

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

/// Reference: the single-domain hopping kernel applied slice-by-slice to an
/// s-major 5D vector.
fn single_domain_hop<R: Real, G: GaugeLinks<R>>(
    lat: &Lattice,
    gauge: &G,
    inp: &[Spinor<R>],
    l5: usize,
) -> Vec<Spinor<R>> {
    let hopping = HoppingKernel::new(lat, gauge, true);
    let v = lat.volume();
    let mut out = vec![Spinor::zero(); l5 * v];
    for s in 0..l5 {
        hopping.apply_full(&mut out[s * v..(s + 1) * v], &inp[s * v..(s + 1) * v], 1024);
    }
    out
}

/// The sharded kernel under `grid`/`policy`, scattered, applied, gathered.
fn sharded_hop<R: Real, G: GaugeLinks<R>>(
    lat: &Lattice,
    gauge: &G,
    inp: &[Spinor<R>],
    l5: usize,
    grid: [usize; 4],
    policy: CommPolicy,
) -> (Vec<Spinor<R>>, lqcd::core::comms::CommStats) {
    let domain =
        Arc::new(DomainDecomposition::new(lat, grid, l5, GPUS_PER_NODE).expect("divisible grid"));
    let mut kernel = ShardedHopping::new(domain.clone(), gauge, true, policy);
    let mut si = ShardedField::scatter(&domain, inp, l5);
    let mut so = ShardedField::zeros(&domain, l5);
    kernel
        .apply(&mut so, &mut si)
        .expect("fault-free transport");
    let mut out = vec![Spinor::zero(); l5 * lat.volume()];
    so.gather_into(&domain, &mut out);
    (out, kernel.stats())
}

#[test]
fn sharded_dslash_bit_identical_f64_all_grids_widths_policies() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 61);
    let inp = FermionField::<f64>::gaussian(L5 * lat.volume(), 62).data;
    let reference = at_width(1, || single_domain_hop(&lat, &gauge, &inp, L5));

    for grid in GRIDS {
        for &w in &WIDTHS {
            for policy in CommPolicy::all() {
                let (got, _) = at_width(w, || sharded_hop(&lat, &gauge, &inp, L5, grid, policy));
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
    let reference = at_width(1, || single_domain_hop(&lat, &half, &inp, L5));

    for grid in GRIDS {
        for &w in &WIDTHS {
            for policy in CommPolicy::all() {
                let (got, _) = at_width(w, || sharded_hop(&lat, &half, &inp, L5, grid, policy));
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
    let reference = single_domain_hop(&lat, &gauge, &inp, L5);

    for grid in [[1, 1, 1, 2], [1, 1, 1, 4], [2, 1, 1, 2]] {
        for policy in CommPolicy::all() {
            let (got, _) = sharded_hop(&lat, &gauge, &inp, L5, grid, policy);
            assert_eq!(got, reference, "grid {grid:?}, policy {}", policy.label());
        }
    }
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
