//! Pins the exact bits of the baryon contractions, `proton_correlator_general`
//! and `fh_nucleon_correlator`, on seeded gaussian propagators.
//!
//! Every quark line is a different propagator (`u1 ≠ u2 ≠ d` for the
//! proton, `fh_u ≠ fh_d` for the Feynman–Hellmann pass), under the polarized
//! projector (two distinct sink spins) and a dense complex one (four), on
//! two volumes: one that fits a single chunk of the volume sum and one of
//! more than one chunk. Each correlator must hash to one digest at pool
//! widths 1, 2 and 4, and that digest must equal the committed golden — so
//! a rewrite of the contraction kernel that moves any bit fails here.
//!
//! Regenerate the goldens after an *intentional* numerical change with:
//! `UPDATE_GOLDENS=1 cargo test -p lqcd-core --test contract_digests`
//! (the digests must not depend on the CPU: on an AVX2 host the kernel runs
//! `simd::dispatch`'s AVX2 codegen, elsewhere the baseline one, and the two
//! are bit-identical — `simd.rs` pins that in a unit test).

use lqcd_core::gamma::polarized_projector;
use lqcd_core::prelude::*;
use std::collections::BTreeMap;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/contract_digests.json"
);

fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Order-dependent FNV-1a over the exact bit patterns of a correlator.
fn digest(corr: &[C64]) -> u64 {
    corr.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, z| {
        fnv1a(fnv1a(h, z.re.to_bits()), z.im.to_bits())
    })
}

fn with_width<T: Send>(w: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("test pool")
        .install(f)
}

/// A propagator of seeded gaussian columns from source `(0, 0)`.
fn gaussian_prop(lat: &Lattice, seed: u64) -> Propagator {
    Propagator {
        columns: (0..12)
            .map(|i| FermionField::gaussian(lat.volume(), seed + i))
            .collect(),
        source_site: 0,
        source_time: 0,
    }
}

/// A complex projector with no zero entry, so every sink spin is touched.
fn dense_projector() -> SpinMatrix<f64> {
    let mut p = SpinMatrix::zero();
    for (i, row) in p.m.iter_mut().enumerate() {
        for (j, e) in row.iter_mut().enumerate() {
            *e = C64::new(
                (4 * i + j) as f64 * 0.125 - 1.5,
                0.5 + 0.25 * ((i + 2 * j) % 5) as f64,
            );
        }
    }
    p
}

/// `corr()` at widths 1, 2 and 4, which must agree to the bit, recorded
/// under `key`.
fn digest_case(key: String, corr: impl Fn() -> Vec<C64> + Sync, map: &mut BTreeMap<String, u64>) {
    let reference = with_width(1, || digest(&corr()));
    for w in [2, 4] {
        assert_eq!(
            with_width(w, || digest(&corr())),
            reference,
            "{key}: width {w} diverges from width 1"
        );
    }
    map.insert(key, reference);
}

fn golden_map() -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    // 128 sites (one chunk) and 1152 (more than one, the last one partial).
    for (vol, dims) in [("v128", [4, 4, 2, 4]), ("v1152", [4, 4, 4, 18])] {
        let lat = Lattice::new(dims);
        let (u, d) = (gaussian_prop(&lat, 100), gaussian_prop(&lat, 200));
        let (fh_u, fh_d) = (gaussian_prop(&lat, 300), gaussian_prop(&lat, 400));
        for (name, proj) in [
            ("polarized", polarized_projector()),
            ("dense", dense_projector()),
        ] {
            digest_case(
                format!("proton_{vol}_{name}"),
                || proton_correlator_general(&lat, &fh_u, &u, &d, &proj),
                &mut map,
            );
            digest_case(
                format!("fh_nucleon_{vol}_{name}"),
                || fh_nucleon_correlator(&lat, &u, &d, &fh_u, &fh_d, &proj),
                &mut map,
            );
        }
    }
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
fn baryon_correlators_are_pinned_and_width_invariant() {
    let map = golden_map();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, render(&map)).expect("write goldens");
        return;
    }
    let committed = parse_goldens(&std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing committed goldens — run UPDATE_GOLDENS=1 cargo test -p lqcd-core \
             --test contract_digests",
    ));
    assert_eq!(
        map, committed,
        "contraction digests drifted from the committed goldens; if the change \
         is intentional, regenerate with UPDATE_GOLDENS=1"
    );
}
