//! Propagator bundles: all 12 columns of a propagator in one container,
//! with optional single-precision storage (the production choice — solver
//! tolerance is 1e-8, so f32 storage loses nothing physical and halves the
//! I/O volume the workflow's 0.5% budget pays for).

use crate::container::{
    fill_records, read_verified, salvage_container, write_framed, Header, Payload,
};
use crate::IoError;
use lqcd_core::complex::Complex;
use lqcd_core::field::FermionField;
use lqcd_core::prop::Propagator;
use lqcd_core::spinor::Spinor;
use std::collections::BTreeMap;
use std::path::Path;

/// Storage precision of a bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BundlePrecision {
    /// Full double precision.
    F64,
    /// Single precision (half the bytes; ~1e-7 relative rounding).
    F32,
}

/// Write a propagator's 12 columns as one container with shape
/// `[12, volume, 4, 3, 2]`, each site's spinor encoded straight into its
/// chunk of the file image.
pub fn write_propagator(
    path: &Path,
    prop: &Propagator,
    precision: BundlePrecision,
    mut metadata: BTreeMap<String, String>,
) -> Result<(), IoError> {
    let volume = prop.columns[0].len();
    assert_eq!(prop.columns.len(), 12);
    assert!(prop.columns.iter().all(|col| col.len() == volume));
    metadata.insert("source_site".into(), prop.source_site.to_string());
    metadata.insert("source_time".into(), prop.source_time.to_string());
    let shape = vec![12, volume, 4, 3, 2];
    let site = |i: usize| &prop.columns[i / volume].data[i % volume];
    match precision {
        BundlePrecision::F64 => write_framed(
            path,
            Header::new("propagator", "f64", shape, metadata),
            12 * volume * 192,
            |at, out| {
                fill_records(at, out, |i, b: &mut [u8; 192]| {
                    put_spinor(site(i), b, f64::to_le_bytes)
                })
            },
        ),
        BundlePrecision::F32 => write_framed(
            path,
            Header::new("propagator", "f32", shape, metadata),
            12 * volume * 96,
            |at, out| {
                fill_records(at, out, |i, b: &mut [u8; 96]| {
                    put_spinor(site(i), b, |v| (v as f32).to_le_bytes())
                })
            },
        ),
    }
}

/// Encode a spinor's 24 reals (spin, colour, re/im) as `E`-byte values.
fn put_spinor<const E: usize, const N: usize>(
    sp: &Spinor<f64>,
    out: &mut [u8; N],
    to_le: impl Fn(f64) -> [u8; E],
) {
    for (k, z) in out.chunks_exact_mut(2 * E).enumerate() {
        let c = sp.s[k / 3].c[k % 3];
        z[..E].copy_from_slice(&to_le(c.re));
        z[E..].copy_from_slice(&to_le(c.im));
    }
}

/// Read a propagator bundle written by [`write_propagator`] (either
/// precision; f32 widens on read).
pub fn read_propagator(path: &Path) -> Result<Propagator, IoError> {
    read_verified(path, |header, payload| decode_propagator(&header, payload))
}

/// Decode a propagator from a verified (or salvaged) payload.
fn decode_propagator(header: &Header, payload: &Payload) -> Result<Propagator, IoError> {
    if header.shape.len() != 5 || header.shape[0] != 12 || header.shape[2..] != [4, 3, 2] {
        return Err(IoError::ShapeMismatch(format!(
            "not a propagator bundle: shape {:?}",
            header.shape
        )));
    }
    let volume = header.shape[1];
    let esize = header
        .element_size()
        .ok_or_else(|| IoError::Format(format!("unknown dtype {}", header.dtype)))?;
    if volume.checked_mul(12 * 24 * esize) != Some(payload.len()) {
        return Err(IoError::Format("payload length != shape".into()));
    }
    let source = |key: &str| {
        header
            .metadata
            .get(key)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Format(format!("missing {key}")))
    };
    let source_site = source("source_site")?;
    let source_time = source("source_time")?;
    let columns = if esize == 4 {
        decode_columns::<4, 96>(payload, volume, |b| f32::from_le_bytes(b) as f64)
    } else {
        decode_columns::<8, 192>(payload, volume, f64::from_le_bytes)
    };
    Ok(Propagator {
        columns,
        source_site,
        source_time,
    })
}

/// The 12 columns of a `[12, volume, 4, 3, 2]` payload of `E`-byte
/// little-endian reals (`N`-byte sites), each filled straight from its
/// chunks, columns in parallel. The caller's thread reserves every column,
/// so a worker's allocator arena never ends up holding a propagator.
fn decode_columns<const E: usize, const N: usize>(
    payload: &Payload,
    volume: usize,
    real: impl Fn([u8; E]) -> f64 + Sync + Send,
) -> Vec<FermionField<f64>> {
    let mut columns: Vec<FermionField<f64>> = (0..12)
        .map(|_| FermionField {
            data: Vec::with_capacity(volume),
        })
        .collect();
    // One pool task per column.
    rayon::for_each_chunk_mut(&mut columns, 1, |col, field| {
        let data = &mut field[0].data;
        payload.for_each_record::<N>(col * volume * N, volume, |site| {
            let mut sp = Spinor::zero();
            for (k, z) in site.as_chunks::<E>().0.chunks_exact(2).enumerate() {
                sp.s[k / 3].c[k % 3] = Complex::new(real(z[0]), real(z[1]));
            }
            data.push(sp);
        });
    });
    columns
}

/// A propagator recovered from a damaged bundle: columns overlapping a lost
/// chunk are zeroed and listed, so the workflow can re-solve just those
/// columns instead of re-running all twelve.
#[derive(Clone)]
pub struct SalvagedPropagator {
    /// The propagator, with lost columns zero-filled.
    pub propagator: Propagator,
    /// Column indices (0..12) that touched a lost byte range.
    pub lost_columns: Vec<usize>,
}

impl SalvagedPropagator {
    /// Whether every column survived.
    pub fn is_complete(&self) -> bool {
        self.lost_columns.is_empty()
    }
}

/// Salvage a propagator bundle with corrupt or truncated chunks.
///
/// The header must be intact; every chunk whose CRC-32C fails (or that is
/// missing entirely) maps back to the propagator columns whose bytes it
/// held, and those columns are reported lost. Columns untouched by any bad
/// chunk are recovered bit-exactly.
pub fn read_propagator_salvaged(path: &Path) -> Result<SalvagedPropagator, IoError> {
    let s = salvage_container(path)?;
    let esize = s
        .header
        .element_size()
        .ok_or_else(|| IoError::Format(format!("unknown dtype {}", s.header.dtype)))?;
    if s.header.shape.len() != 5 || s.header.shape[0] != 12 || s.header.shape[2..] != [4, 3, 2] {
        return Err(IoError::ShapeMismatch(format!(
            "not a propagator bundle: shape {:?}",
            s.header.shape
        )));
    }
    let volume = s.header.shape[1];
    let col_bytes = volume * 24 * esize;

    let mut lost_columns: Vec<usize> = Vec::new();
    for &(a, b) in &s.lost_ranges {
        let first = a / col_bytes;
        let last = (b - 1) / col_bytes;
        for col in first..=last.min(11) {
            if lost_columns.last() != Some(&col) {
                lost_columns.push(col);
            }
        }
    }
    lost_columns.dedup();

    let propagator = decode_propagator(&s.header, &Payload::whole(&s.payload))?;
    Ok(SalvagedPropagator {
        propagator,
        lost_columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{write_container, Container};
    use lqcd_core::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lattice_io_bundle_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn make_prop() -> (Lattice, Propagator) {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 3);
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.5 });
        let (prop, _) = solver.point_propagator(5);
        (lat, prop)
    }

    #[test]
    fn f64_bundle_round_trips_exactly() {
        let (_, prop) = make_prop();
        let path = tmp("bundle64.lqio");
        write_propagator(&path, &prop, BundlePrecision::F64, BTreeMap::new()).unwrap();
        let back = read_propagator(&path).unwrap();
        assert_eq!(back.source_site, prop.source_site);
        assert_eq!(back.source_time, prop.source_time);
        for (a, b) in prop.columns.iter().zip(&back.columns) {
            assert_eq!(a.data, b.data);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_bundle_is_smaller_and_close() {
        let (_, prop) = make_prop();
        let p64 = tmp("bundle_a.lqio");
        let p32 = tmp("bundle_b.lqio");
        write_propagator(&p64, &prop, BundlePrecision::F64, BTreeMap::new()).unwrap();
        write_propagator(&p32, &prop, BundlePrecision::F32, BTreeMap::new()).unwrap();
        let s64 = std::fs::metadata(&p64).unwrap().len();
        let s32 = std::fs::metadata(&p32).unwrap().len();
        assert!(
            s32 * 2 < s64 + 4096,
            "f32 halves the payload: {s32} vs {s64}"
        );

        let back = read_propagator(&p32).unwrap();
        for (a, b) in prop.columns.iter().zip(&back.columns) {
            let diff = lqcd_core::blas::sub(&a.data, &b.data);
            let rel = lqcd_core::blas::norm_sqr(&diff) / lqcd_core::blas::norm_sqr(&a.data);
            assert!(rel < 1e-12, "f32 rounding in norm²: {rel}");
        }
        std::fs::remove_file(&p64).ok();
        std::fs::remove_file(&p32).ok();
    }

    #[test]
    fn f32_bundle_preserves_correlators_to_solver_tolerance() {
        // The physics check: a pion correlator from the re-read f32 bundle
        // matches the original at the f32 rounding level (~1e-7 relative),
        // well below anything a 1e-8-tolerance solve can resolve.
        let (lat, prop) = make_prop();
        let path = tmp("bundle_phys.lqio");
        write_propagator(&path, &prop, BundlePrecision::F32, BTreeMap::new()).unwrap();
        let back = read_propagator(&path).unwrap();
        let c1 = pion_correlator(&lat, &prop);
        let c2 = pion_correlator(&lat, &back);
        for (a, b) in c1.iter().zip(&c2) {
            assert!((a - b).abs() < 1e-6 * a.abs().max(1e-30));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_maps_a_bad_chunk_to_lost_columns() {
        use crate::container::DEFAULT_CHUNK_BYTES;
        use lqcd_core::field::FermionField;

        // A synthetic propagator big enough to span several chunks:
        // 12 columns × 2048 sites × 24 f64 = 4.5 MB ≈ 5 chunks.
        let volume = 2048;
        let prop = Propagator {
            columns: (0..12)
                .map(|i| FermionField::<f64>::gaussian(volume, 100 + i as u64))
                .collect(),
            source_site: 0,
            source_time: 0,
        };
        let path = tmp("bundle_salvage.lqio");
        write_propagator(&path, &prop, BundlePrecision::F64, BTreeMap::new()).unwrap();

        // Corrupt a byte inside the second chunk.
        let mut bytes = std::fs::read(&path).unwrap();
        let hlen = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let target = 12 + hlen + 8 + DEFAULT_CHUNK_BYTES + 4 + 8 + 1000;
        bytes[target] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        // Strict read refuses; salvage recovers the untouched columns.
        assert!(matches!(
            read_propagator(&path),
            Err(IoError::ChecksumMismatch { .. })
        ));
        let s = read_propagator_salvaged(&path).unwrap();
        assert!(!s.is_complete());
        // Chunk 1 covers payload bytes [1 MiB, 2 MiB): columns 2..=5 at
        // 384 KiB per column.
        assert_eq!(s.lost_columns, vec![2, 3, 4, 5]);
        for col in 0..12 {
            if s.lost_columns.contains(&col) {
                continue;
            }
            assert_eq!(
                s.propagator.columns[col].data, prop.columns[col].data,
                "intact column {col} must be bit-exact"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_of_a_clean_bundle_is_complete() {
        let (_, prop) = make_prop();
        let path = tmp("bundle_salvage_clean.lqio");
        write_propagator(&path, &prop, BundlePrecision::F64, BTreeMap::new()).unwrap();
        let s = read_propagator_salvaged(&path).unwrap();
        assert!(s.is_complete());
        for (a, b) in prop.columns.iter().zip(&s.propagator.columns) {
            assert_eq!(a.data, b.data);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A three-chunk F32 bundle image with the byte offset of each chunk
    /// record (`u64` length, payload, `u32` CRC) and the clean decode.
    struct Image {
        bytes: Vec<u8>,
        /// `(record start, payload length)` per chunk.
        chunks: Vec<(usize, usize)>,
        clean: Propagator,
    }

    const IMAGE_VOLUME: usize = 2048;
    const IMAGE_COL_BYTES: usize = IMAGE_VOLUME * 24 * 4;

    fn f32_image(path: &Path) -> Image {
        use crate::container::DEFAULT_CHUNK_BYTES;
        let prop = Propagator {
            columns: (0..12)
                .map(|i| FermionField::<f64>::gaussian(IMAGE_VOLUME, 500 + i as u64))
                .collect(),
            source_site: 7,
            source_time: 1,
        };
        write_propagator(path, &prop, BundlePrecision::F32, BTreeMap::new()).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let clean = read_propagator(path).unwrap();
        let hlen = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut chunks = Vec::new();
        let (mut at, mut left) = (12 + hlen, 12 * IMAGE_COL_BYTES);
        while left > 0 {
            let len = left.min(DEFAULT_CHUNK_BYTES);
            chunks.push((at, len));
            at += 8 + len + 4;
            left -= len;
        }
        assert_eq!((at, chunks.len()), (bytes.len(), 3));
        Image {
            bytes,
            chunks,
            clean,
        }
    }

    /// The columns holding any payload byte of the given chunks.
    fn columns_of_chunks(chunks: std::ops::Range<usize>) -> Vec<usize> {
        use crate::container::DEFAULT_CHUNK_BYTES;
        let lo = chunks.start * DEFAULT_CHUNK_BYTES;
        let hi = (chunks.end * DEFAULT_CHUNK_BYTES).min(12 * IMAGE_COL_BYTES);
        (0..12)
            .filter(|c| lo < (c + 1) * IMAGE_COL_BYTES && c * IMAGE_COL_BYTES < hi)
            .collect()
    }

    /// Salvage must name exactly `lost` and return every other column
    /// bit-identical to the clean decode.
    fn assert_salvages(path: &Path, img: &Image, lost: &[usize], what: &str) {
        let s = read_propagator_salvaged(path).unwrap();
        assert_eq!(s.lost_columns, lost, "{what}");
        for (col, (got, want)) in s
            .propagator
            .columns
            .iter()
            .zip(&img.clean.columns)
            .enumerate()
        {
            if !lost.contains(&col) {
                assert_eq!(got.data, want.data, "{what}: intact column {col}");
            }
        }
    }

    #[test]
    fn truncation_at_every_chunk_boundary_is_an_error_and_salvages_the_rest() {
        let path = tmp("bundle_truncated.lqio");
        let img = f32_image(&path);
        let mut boundaries: Vec<usize> = img.chunks.iter().map(|&(at, _)| at).collect();
        boundaries.push(img.bytes.len());
        for &edge in &boundaries {
            for cut in [edge - 1, edge, edge + 1] {
                if cut >= img.bytes.len() {
                    continue;
                }
                std::fs::write(&path, &img.bytes[..cut]).unwrap();
                assert!(read_propagator(&path).is_err(), "cut at {cut}");
                if cut < img.chunks[0].0 {
                    // The header itself is cut: nothing is interpretable.
                    assert!(read_propagator_salvaged(&path).is_err(), "cut at {cut}");
                    continue;
                }
                let whole = img
                    .chunks
                    .iter()
                    .filter(|&&(at, len)| at + 8 + len + 4 <= cut)
                    .count();
                let lost = columns_of_chunks(whole..img.chunks.len());
                assert_salvages(&path, &img, &lost, &format!("cut at {cut}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_pass_silently() {
        use rand::{Rng, SeedableRng};
        let path = tmp("bundle_bitflips.lqio");
        let img = f32_image(&path);
        let n = img.chunks.len();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(20180806);
        for flip in 0..200 {
            // Cycle over the four kinds of bytes so each is hit 50 times.
            // A bad payload or CRC costs its own chunk; a bad length loses
            // the framing of everything after it as well.
            let chunk = rng.gen_range(0..n);
            let (at, len) = img.chunks[chunk];
            let (byte, lost_chunks) = match flip % 4 {
                0 => (rng.gen_range(0..img.chunks[0].0), None),
                1 => (at + rng.gen_range(0..8), Some(chunk..n)),
                2 => (at + 8 + rng.gen_range(0..len), Some(chunk..chunk + 1)),
                _ => (at + 8 + len + rng.gen_range(0..4), Some(chunk..chunk + 1)),
            };
            let bit = rng.gen_range(0..8usize);
            let what = format!("flip {flip}: byte {byte} bit {bit}");
            let mut bytes = img.bytes.clone();
            bytes[byte] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();

            let strict = read_propagator(&path);
            let Some(lost_chunks) = lost_chunks else {
                // Un-checksummed header: refused, or harmless to the data.
                if let Ok(p) = strict {
                    for (got, want) in p.columns.iter().zip(&img.clean.columns) {
                        assert_eq!(got.data, want.data, "{what}");
                    }
                }
                let _ = read_propagator_salvaged(&path);
                continue;
            };
            assert!(strict.is_err(), "{what}");
            let lost = columns_of_chunks(lost_chunks);
            assert_salvages(&path, &img, &lost, &what);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let path = tmp("notabundle.lqio");
        let c = Container::from_f64("x", vec![3], &[1.0, 2.0, 3.0], BTreeMap::new());
        write_container(&path, &c).unwrap();
        assert!(matches!(
            read_propagator(&path),
            Err(IoError::ShapeMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
