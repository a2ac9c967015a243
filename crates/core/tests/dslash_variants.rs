//! Cross-cutting determinism suite for the Dirac operators' `apply` and
//! `apply_dagger`.
//!
//! Pins a committed golden digest for every (operator × precision ×
//! reconstruction) combination and its adjoint (`*_dagger` keys), and
//! asserts end to end that
//!
//! - the fused `apply` is **bit-identical** to its unfused oracle, the
//!   separate hop + algebra passes of `apply_block(.., 1)`, and
//!   `apply_dagger` to `apply_dagger_block(.., 1)`,
//! - results are bit-identical at pool widths 1 and 4,
//! - the 12-real / 8-real reconstructed operators track full storage to
//!   tight tolerance (they trade exactness for bandwidth, so they pin their
//!   own goldens rather than sharing the full-storage one).
//!
//! (Sharded-equals-dense per grid × policy × width is pinned by
//! `tests/comms_determinism.rs` at the workspace root.)
//!
//! Regenerate the goldens after an *intentional* numerical change with:
//! `UPDATE_GOLDENS=1 cargo test -p lqcd-core --test dslash_variants`
//! (the digests must not depend on the CPU: on an AVX2 host the kernels run
//! `simd::dispatch`'s AVX2 codegen, elsewhere the baseline one, and the
//! two are bit-identical — `simd.rs` pins that in a unit test).

use lqcd_core::prelude::*;
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/dslash_variants.json"
);

fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Order-dependent FNV-1a over the exact bit patterns (f32 components are
/// widened to f64 first — a lossless, deterministic embedding).
fn digest<R: Real>(v: &[Spinor<R>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for sp in v {
        for row in &sp.s {
            for z in &row.c {
                h = fnv1a(h, z.re.to_f64().to_bits());
                h = fnv1a(h, z.im.to_f64().to_bits());
            }
        }
    }
    h
}

fn with_width<T: Send>(w: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("test pool")
        .install(f)
}

/// `apply` at pool widths 1 and 4 and the unfused `apply_block(.., 1)` at
/// width 1 must share one digest, recorded under the case's golden key; the
/// adjoint (`apply_dagger` against `apply_dagger_block(.., 1)`) likewise,
/// under `{case}_dagger`.
fn digest_case<R, Op>(case: &str, op: &Op, seed: u64, map: &mut BTreeMap<String, u64>)
where
    R: Real,
    Op: DiracOp<R>,
{
    type Kernel<'k, R> = &'k (dyn Fn(&mut [Spinor<R>], &[Spinor<R>]) + Sync);
    let n = op.vec_len();
    let inp = FermionField::<R>::gaussian(n, seed).data;
    let run = |w: usize, kernel: Kernel<'_, R>| {
        let mut out = vec![Spinor::zero(); n];
        let (out_ref, inp_ref) = (&mut out, &inp);
        with_width(w, move || kernel(out_ref, inp_ref));
        digest(&out)
    };
    let kernels: [(String, Kernel<'_, R>, Kernel<'_, R>); 2] = [
        (case.to_string(), &|o, i| op.apply(o, i), &|o, i| {
            op.apply_block(o, i, 1)
        }),
        (
            format!("{case}_dagger"),
            &|o, i| op.apply_dagger(o, i),
            &|o, i| op.apply_dagger_block(o, i, 1),
        ),
    ];
    for (key, scalar, oracle) in kernels {
        let reference = run(1, oracle);
        for w in [1usize, 4] {
            assert_eq!(
                run(w, scalar),
                reference,
                "{key}: scalar form at width {w} diverges from the one-column block oracle"
            );
        }
        map.insert(key, reference);
    }
}

/// Build the full digest map across operators, precisions, and gauge
/// reconstructions.
fn golden_map() -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();

    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 31);
    let gauge32 = gauge64.cast::<f32>();
    let params = MobiusParams::standard(4, 0.08);

    digest_case(
        "wilson_f64_full",
        &WilsonDirac::new(&lat, &gauge64, 0.1, true),
        71,
        &mut map,
    );
    digest_case(
        "wilson_f32_full",
        &WilsonDirac::new(&lat, &gauge32, 0.1, true),
        72,
        &mut map,
    );
    digest_case(
        "prec_wilson_f64_full",
        &PrecWilson::new(&lat, &gauge64, 0.1, true),
        73,
        &mut map,
    );
    digest_case(
        "mobius_f64_full",
        &MobiusDirac::new(&lat, &gauge64, params),
        74,
        &mut map,
    );
    digest_case(
        "prec_mobius_f64_full",
        &PrecMobius::new(&lat, &gauge64, params),
        75,
        &mut map,
    );
    digest_case(
        "prec_mobius_f32_full",
        &PrecMobius::new(&lat, &gauge32, params),
        76,
        &mut map,
    );

    // Compressed-link operators: not bit-equal to full storage (their
    // tolerance is asserted separately below), so they pin their own rows.
    let r12 = Recon12Gauge::from_gauge(&gauge64);
    digest_case(
        "wilson_f64_recon12",
        &WilsonDirac::new(&lat, &r12, 0.1, true),
        71,
        &mut map,
    );
    let r8 = Recon8Gauge::from_gauge(&gauge64);
    digest_case(
        "wilson_f64_recon8",
        &WilsonDirac::new(&lat, &r8, 0.1, true),
        71,
        &mut map,
    );
    map
}

fn render(map: &BTreeMap<String, u64>) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        s.push_str(&format!(
            "  \"{k}\": \"{v:#018x}\"{}\n",
            if i + 1 < map.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n");
    s
}

fn parse_goldens(text: &str) -> BTreeMap<String, u64> {
    let json = obs::Json::parse(text).expect("parse committed goldens");
    let obs::Json::Obj(pairs) = json else {
        panic!("goldens file must be a JSON object");
    };
    pairs
        .into_iter()
        .map(|(k, v)| {
            let obs::Json::Str(hex) = v else {
                panic!("golden {k} must be a hex string");
            };
            let raw = hex.trim_start_matches("0x");
            (k, u64::from_str_radix(raw, 16).expect("hex digest"))
        })
        .collect()
}

#[test]
fn apply_goldens_are_pinned_and_width_invariant() {
    let map = golden_map();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, render(&map)).expect("write goldens");
        return;
    }
    let committed = parse_goldens(&std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing committed goldens — run UPDATE_GOLDENS=1 cargo test -p lqcd-core \
             --test dslash_variants",
    ));
    assert_eq!(
        map, committed,
        "apply digests drifted from the committed goldens; if the change \
         is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn reconstructed_links_track_full_storage_to_tolerance() {
    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 31);
    let inp = FermionField::<f64>::gaussian(lat.volume(), 91).data;

    let full = WilsonDirac::new(&lat, &gauge, 0.1, true);
    let mut out_full = vec![Spinor::<f64>::zero(); lat.volume()];
    full.apply(&mut out_full, &inp);
    let norm = blas::norm_sqr(&out_full).sqrt();

    // The reconstruction must return to the group (unitarity), and the
    // operator built on decompressed links must track full storage.
    fn check<G: GaugeLinks<f64>>(
        name: &str,
        lat: &Lattice,
        links: &G,
        tol: f64,
        inp: &[Spinor<f64>],
        out_full: &[Spinor<f64>],
        norm: f64,
    ) {
        let worst = (0..lat.volume())
            .flat_map(|x| (0..4).map(move |mu| (x, mu)))
            .map(|(x, mu)| links.link(x, mu).unitarity_error())
            .fold(0.0f64, f64::max);
        assert!(worst < tol, "{name}: unitarity error {worst:.3e} ≥ {tol:e}");

        let d = WilsonDirac::new(lat, links, 0.1, true);
        let mut out = vec![Spinor::<f64>::zero(); lat.volume()];
        d.apply(&mut out, inp);
        let err = blas::norm_sqr(&blas::sub(&out, out_full)).sqrt() / norm;
        assert!(err < tol, "{name}: relative error {err:.3e} ≥ {tol:e}");
    }
    let r12 = Recon12Gauge::from_gauge(&gauge);
    check("recon12", &lat, &r12, 1e-12, &inp, &out_full, norm);
    let r8 = Recon8Gauge::from_gauge(&gauge);
    check("recon8", &lat, &r8, 1e-9, &inp, &out_full, norm);
}
