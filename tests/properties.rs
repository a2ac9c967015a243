//! Property-based tests (proptest) over the core invariants listed in
//! DESIGN.md.

use lqcd::core::complex::Complex;
use lqcd::core::prelude::*;
use proptest::prelude::*;

fn arb_su3() -> impl Strategy<Value = Su3<f64>> {
    any::<u64>().prop_map(|seed| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Su3::random(&mut rng)
    })
}

fn arb_spinor() -> impl Strategy<Value = Spinor<f64>> {
    proptest::collection::vec(-10.0f64..10.0, 24).prop_map(|v| {
        let mut s = Spinor::zero();
        for sp in 0..4 {
            for c in 0..3 {
                let k = (sp * 3 + c) * 2;
                s.s[sp].c[c] = Complex::new(v[k], v[k + 1]);
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn su3_product_stays_on_group(a in arb_su3(), b in arb_su3()) {
        let c = a * b;
        prop_assert!(c.unitarity_error() < 1e-10);
        prop_assert!((c.det() - Complex::one()).abs() < 1e-10);
    }

    #[test]
    fn su3_preserves_spinor_norms(u in arb_su3(), psi in arb_spinor()) {
        let rotated = Spinor {
            s: [
                u.mul_vec(&psi.s[0]),
                u.mul_vec(&psi.s[1]),
                u.mul_vec(&psi.s[2]),
                u.mul_vec(&psi.s[3]),
            ],
        };
        prop_assert!((rotated.norm_sqr() - psi.norm_sqr()).abs()
            < 1e-9 * psi.norm_sqr().max(1.0));
    }

    #[test]
    fn chiral_projectors_decompose_any_spinor(psi in arb_spinor()) {
        let p = psi.chiral_project(true);
        let m = psi.chiral_project(false);
        prop_assert!(((p + m) - psi).norm_sqr() < 1e-20);
        prop_assert!(p.dot(&m).abs() < 1e-12);
    }

    #[test]
    fn gamma5_is_involutive_on_spinors(psi in arb_spinor()) {
        let twice = psi.apply_gamma5().apply_gamma5();
        prop_assert!((twice - psi).norm_sqr() < 1e-24);
    }

    #[test]
    fn half_precision_error_is_bounded(psi in arb_spinor()) {
        let v = vec![psi.cast::<f32>(); 4];
        let half = HalfFermionField::encode(&v);
        let back = half.decode();
        // Bound: per-site max component / 2^15, plus rounding.
        let mut max_comp = 0.0f32;
        for sp in 0..4 {
            for c in 0..3 {
                max_comp = max_comp
                    .max(v[0].s[sp].c[c].re.abs())
                    .max(v[0].s[sp].c[c].im.abs());
            }
        }
        let bound = max_comp / 32767.0 * 1.01 + 1e-12;
        for (orig, dec) in v.iter().zip(&back) {
            for sp in 0..4 {
                for c in 0..3 {
                    let d = orig.s[sp].c[c] - dec.s[sp].c[c];
                    prop_assert!(d.re.abs() <= bound && d.im.abs() <= bound);
                }
            }
        }
    }

    #[test]
    fn io_container_round_trips_random_payloads(
        values in proptest::collection::vec(-1e6f64..1e6, 1..512)
    ) {
        use std::collections::BTreeMap;
        let shape = vec![values.len()];
        let c = lqcd::io::Container::from_f64("prop", shape, &values, BTreeMap::new());
        let dir = std::env::temp_dir().join("lqcd_proptest_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{}.lqio", values.len()));
        lqcd::io::write_container(&path, &c).unwrap();
        let back = lqcd::io::read_container(&path).unwrap();
        prop_assert_eq!(back.to_f64().unwrap(), values);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blas_axpy_is_linear(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        seed in 0u64..1000
    ) {
        let x = FermionField::<f64>::gaussian(64, seed).data;
        let y = FermionField::<f64>::gaussian(64, seed + 1).data;
        // (a+b) x + y == a x + (b x + y)
        let mut lhs = y.clone();
        blas::axpy(a + b, &x, &mut lhs);
        let mut rhs = y.clone();
        blas::axpy(b, &x, &mut rhs);
        blas::axpy(a, &x, &mut rhs);
        let diff = blas::sub(&lhs, &rhs);
        prop_assert!(blas::norm_sqr(&diff) < 1e-18 * blas::norm_sqr(&lhs).max(1.0));
    }

    #[test]
    fn wilson_operator_is_linear(seed in 0u64..500, a in -3.0f64..3.0) {
        let lat = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::<f64>::hot(&lat, seed);
        let d = WilsonDirac::new(&lat, &gauge, 0.2, true);
        let x = FermionField::<f64>::gaussian(lat.volume(), seed + 1).data;
        let y = FermionField::<f64>::gaussian(lat.volume(), seed + 2).data;

        // D(a x + y) == a D(x) + D(y)
        let mut axy = y.clone();
        blas::axpy(a, &x, &mut axy);
        let mut lhs = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut lhs, &axy);

        let mut dx = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut dx, &x);
        let mut rhs = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut rhs, &y);
        blas::axpy(a, &dx, &mut rhs);

        let diff = blas::sub(&lhs, &rhs);
        prop_assert!(blas::norm_sqr(&diff) < 1e-18 * blas::norm_sqr(&lhs).max(1.0));
    }

    #[test]
    fn decomposition_always_covers_the_lattice(
        gx in 0u32..4, gy in 0u32..4, gz in 0u32..4, gt in 0u32..5
    ) {
        use lqcd::machine::Decomposition;
        let n_gpus = (1usize << gx) * (1 << gy) * (1 << gz) * (1 << gt);
        if let Some(d) = Decomposition::best([48, 48, 48, 64], 12, n_gpus, 4) {
            prop_assert_eq!(d.grid.iter().product::<usize>(), n_gpus);
            for mu in 0..4 {
                prop_assert_eq!(d.local_dims[mu] * d.grid[mu], [48, 48, 48, 64][mu]);
                prop_assert!(d.local_dims[mu] >= 2);
            }
            prop_assert!(d.surface_fraction() <= 1.0);
            let (intra, inter) = d.halo_bytes();
            prop_assert!(intra >= 0.0 && inter >= 0.0);
        }
    }

    #[test]
    fn placement_never_double_books_gpus(
        n_jobs in 1usize..5, job_gpus in prop::sample::select(vec![4usize, 8, 12, 16]),
        nodes in 4usize..16
    ) {
        use lqcd::jobmgr::place_jobs;
        if let Some(placements) = place_jobs(n_jobs, job_gpus, nodes, 6) {
            let mut used = std::collections::HashSet::new();
            for p in &placements {
                let mut total = 0;
                for (node, gpus) in &p.assignment {
                    for &g in gpus {
                        prop_assert!(used.insert((*node, g)), "GPU double-booked");
                        total += 1;
                    }
                }
                prop_assert_eq!(total, job_gpus);
                prop_assert!(p.relative_rate > 0.0 && p.relative_rate <= 1.0);
            }
        }
    }

    #[test]
    fn jackknife_error_is_nonnegative_and_mean_exact(
        samples in proptest::collection::vec(-100.0f64..100.0, 4..64)
    ) {
        let est = lqcd::analysis::jackknife::jackknife(&samples, |s| {
            s.iter().sum::<f64>() / s.len() as f64
        });
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((est.mean - mean).abs() < 1e-9);
        prop_assert!(est.error >= 0.0);
    }

    #[test]
    fn crc_detects_any_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        at in any::<prop::sample::Index>(),
        delta in 1u8..=255
    ) {
        let base = lqcd::io::crc32c::crc32c(&data);
        let mut corrupt = data.clone();
        let i = at.index(corrupt.len());
        corrupt[i] = corrupt[i].wrapping_add(delta);
        prop_assert_ne!(lqcd::io::crc32c::crc32c(&corrupt), base);
    }
}
