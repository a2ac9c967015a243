//! The crate's cross-module tests, and the staged encode and decode kept as
//! the oracle the writers and readers are held to.
//!
//! Staged, every writer first gathers its object's reals into one `f64`
//! vector (narrowed to a second, `f32` vector for an F32 bundle), encodes
//! that into a payload vector, and frames the payload chunk by chunk; every
//! reader verifies and concatenates the chunks into a payload vector and
//! decodes that. The tests below hold each writer's file image to the staged
//! one byte for byte, and each reader's values to the staged decode bit for
//! bit, at pool widths 1, 2 and 4. [`assert_hostile_reads`] is the
//! truncation and bit-flip harness the typed readers' own tests run.

use crate::bundle::BundlePrecision;
use crate::container::{Header, DEFAULT_CHUNK_BYTES, MAGIC};
use crate::crc32c::crc32c;
use crate::{
    read_checkpoint, read_correlator, read_gauge, read_propagator, write_checkpoint,
    write_correlator, write_gauge, write_propagator,
};
use lqcd_core::complex::C64;
use lqcd_core::field::{FermionField, GaugeField};
use lqcd_core::lattice::{Lattice, ND};
use lqcd_core::prop::Propagator;
use lqcd_core::su3::NC;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The file image of `payload` under a header of these fields: magic,
/// header JSON, then one record per `DEFAULT_CHUNK_BYTES` of payload.
fn frame(
    name: &str,
    dtype: &str,
    shape: Vec<usize>,
    metadata: BTreeMap<String, String>,
    payload: &[u8],
) -> Vec<u8> {
    let chunks: Vec<&[u8]> = payload.chunks(DEFAULT_CHUNK_BYTES).collect();
    let header = Header {
        name: name.into(),
        dtype: dtype.into(),
        shape,
        n_chunks: chunks.len(),
        metadata,
    };
    let json = header.to_json().to_string().into_bytes();
    let mut image = MAGIC.to_vec();
    image.extend_from_slice(&(json.len() as u32).to_le_bytes());
    image.extend_from_slice(&json);
    for c in chunks {
        image.extend_from_slice(&(c.len() as u64).to_le_bytes());
        image.extend_from_slice(c);
        image.extend_from_slice(&crc32c(c).to_le_bytes());
    }
    image
}

fn le64(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// A propagator's reals in file order: column, site, spin, colour, re/im.
fn stage_propagator(prop: &Propagator) -> Vec<f64> {
    let mut values64 = Vec::new();
    for col in &prop.columns {
        for sp in &col.data {
            for s in 0..4 {
                for c in 0..3 {
                    values64.push(sp.s[s].c[c].re);
                    values64.push(sp.s[s].c[c].im);
                }
            }
        }
    }
    values64
}

/// A gauge field's reals in file order: link, row, column, re/im.
fn stage_gauge(gauge: &GaugeField<f64>) -> Vec<f64> {
    let mut values = Vec::new();
    for u in gauge.links() {
        for row in &u.m {
            for e in row {
                values.push(e.re);
                values.push(e.im);
            }
        }
    }
    values
}

/// A correlator's reals in file order: time, re/im.
fn stage_correlator(corr: &[C64]) -> Vec<f64> {
    corr.iter().flat_map(|c| [c.re, c.im]).collect()
}

fn propagator_image(
    prop: &Propagator,
    precision: BundlePrecision,
    mut metadata: BTreeMap<String, String>,
) -> Vec<u8> {
    let volume = prop.columns[0].len();
    metadata.insert("source_site".into(), prop.source_site.to_string());
    metadata.insert("source_time".into(), prop.source_time.to_string());
    let shape = vec![12, volume, 4, 3, 2];
    let values64 = stage_propagator(prop);
    match precision {
        BundlePrecision::F64 => frame("propagator", "f64", shape, metadata, &le64(&values64)),
        BundlePrecision::F32 => {
            let values32: Vec<f32> = values64.iter().map(|&v| v as f32).collect();
            let payload: Vec<u8> = values32.iter().flat_map(|v| v.to_le_bytes()).collect();
            frame("propagator", "f32", shape, metadata, &payload)
        }
    }
}

fn gauge_image(
    lattice: &Lattice,
    gauge: &GaugeField<f64>,
    metadata: BTreeMap<String, String>,
) -> Vec<u8> {
    let d = lattice.dims();
    let shape = vec![d[0], d[1], d[2], d[3], ND, NC * NC * 2];
    frame("gauge", "f64", shape, metadata, &le64(&stage_gauge(gauge)))
}

fn correlator_image(corr: &[C64], metadata: BTreeMap<String, String>) -> Vec<u8> {
    let values = stage_correlator(corr);
    frame(
        "correlator",
        "f64",
        vec![corr.len(), 2],
        metadata,
        &le64(&values),
    )
}

fn checkpoint_image(label: &str, seq: u64, data: &[f64]) -> Vec<u8> {
    let metadata = BTreeMap::from([("checkpoint_seq".to_string(), seq.to_string())]);
    frame(label, "f64", vec![data.len()], metadata, &le64(data))
}

/// The staged read of a well-formed image: the header, and the verified
/// chunks concatenated and decoded, each real widened to `f64`.
fn staged_read(image: &[u8]) -> (Header, Vec<f64>) {
    let hlen = u32::from_le_bytes(image[8..12].try_into().unwrap()) as usize;
    let text = std::str::from_utf8(&image[12..12 + hlen]).unwrap();
    let header = Header::from_json(&obs::Json::parse(text).unwrap()).unwrap();
    let mut payload = Vec::new();
    let mut at = 12 + hlen;
    for _ in 0..header.n_chunks {
        let len = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
        let chunk = &image[at + 8..at + 8 + len];
        let crc = u32::from_le_bytes(image[at + 8 + len..at + 12 + len].try_into().unwrap());
        assert_eq!(crc32c(chunk), crc, "staged read of a corrupt image");
        payload.extend_from_slice(chunk);
        at += 12 + len;
    }
    assert_eq!(at, image.len());
    let values = match header.dtype.as_str() {
        "f64" => payload
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect(),
        "f32" => payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()) as f64)
            .collect(),
        other => panic!("dtype {other}"),
    };
    (header, values)
}

/// `image` with each cut and each single-bit flip a hostile reader must
/// survive, read back through `read` from a file at `path`.
///
/// Cuts: every byte up to the end of the first chunk's length field, one
/// byte either side of every record edge, and every `stride`th byte of
/// each payload; each must be `Err`. Flips: every bit of the header and of
/// each record's length and CRC fields, and every `stride`th bit of each
/// payload. A flip in a record must be `Err`; one in the unchecksummed
/// header must be `Err` or a value `intact(value, byte)` accepts.
pub(crate) fn assert_hostile_reads<T>(
    path: &Path,
    image: &[u8],
    stride: usize,
    read: impl Fn(&Path) -> Result<T, crate::IoError>,
    intact: impl Fn(&T, usize) -> bool,
) {
    let hlen = u32::from_le_bytes(image[8..12].try_into().unwrap()) as usize;
    // (record start, payload length) per chunk.
    let mut records = Vec::new();
    let mut at = 12 + hlen;
    while at < image.len() {
        let len = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
        records.push((at, len));
        at += 12 + len;
    }
    let mut cuts: Vec<usize> = (0..(12 + hlen + 8).min(image.len())).collect();
    for &(at, len) in &records {
        for edge in [at, at + 8, at + 8 + len, at + 12 + len] {
            cuts.extend([edge - 1, edge, edge + 1]);
        }
        cuts.extend((at + 8..at + 8 + len).step_by(stride));
    }
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts.into_iter().filter(|&c| c < image.len()) {
        std::fs::write(path, &image[..cut]).unwrap();
        assert!(read(path).is_err(), "cut at {cut} must fail");
    }

    let mut bits: Vec<usize> = (0..(12 + hlen) * 8).collect();
    for &(at, len) in &records {
        bits.extend(at * 8..(at + 8) * 8);
        bits.extend(((at + 8) * 8..(at + 8 + len) * 8).step_by(stride));
        bits.extend((at + 8 + len) * 8..(at + 12 + len) * 8);
    }
    for bit in bits {
        let mut flipped = image.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(path, &flipped).unwrap();
        if let Ok(v) = read(path) {
            let byte = bit / 8;
            assert!(
                byte < 12 + hlen && intact(&v, byte),
                "bit {bit} passed silently"
            );
        }
    }
    std::fs::remove_file(path).ok();
}

/// A temporary directory of its own for each test.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lattice_io_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// 1,024 sites: an F32 bundle is 1.125 MiB and an F64 one 2.25 MiB, so
/// a spinor straddles the first chunk boundary (1 MiB is no multiple of
/// 96 or 192 bytes) and the last chunk is partial.
fn straddling_propagator() -> Propagator {
    Propagator {
        columns: (0..12)
            .map(|i| FermionField::<f64>::gaussian(1024, 900 + i as u64))
            .collect(),
        source_site: 37,
        source_time: 3,
    }
}

/// 4×8³: 8,192 links of 144 bytes, 1.125 MiB, with a link across the
/// first chunk boundary and a partial last chunk.
fn straddling_gauge() -> (Lattice, GaugeField<f64>) {
    let lat = Lattice::new([4, 8, 8, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 41);
    (lat, gauge)
}

/// 70,001 entries: two chunks, the last partial.
fn long_correlator() -> Vec<C64> {
    (0..70_001)
        .map(|t| C64::new((t as f64 * 1e-3).exp(), -(t as f64).sqrt()))
        .collect()
}

/// 140,001 reals: two chunks, the last partial.
fn long_checkpoint() -> Vec<f64> {
    (0..140_001).map(|i| (i as f64).sin() * 1e3).collect()
}

fn md() -> BTreeMap<String, String> {
    BTreeMap::from([("beta".to_string(), "6.0".to_string())])
}

fn assert_image(path: &Path, want: &[u8], what: &str) {
    let got = std::fs::read(path).unwrap();
    assert_eq!(got.len(), want.len(), "{what}: file length");
    assert!(
        got == want,
        "{what}: file bytes differ from the staged image"
    );
}

#[test]
fn every_writer_matches_the_staged_image_byte_for_byte() {
    let prop = straddling_propagator();
    let small = Propagator {
        columns: (0..12)
            .map(|i| FermionField::<f64>::gaussian(5, 30 + i as u64))
            .collect(),
        source_site: 0,
        source_time: 0,
    };
    let (lat, gauge) = straddling_gauge();
    let corr = long_correlator();
    let data = long_checkpoint();
    let dir = test_dir("writers");
    let tmp = |name: &str| dir.join(name);
    for w in [1, 2, 4] {
        at_width(w, || {
            for (p, tag) in [(&prop, "straddling"), (&small, "small")] {
                for precision in [BundlePrecision::F32, BundlePrecision::F64] {
                    let what = format!("{tag} {precision:?} bundle at width {w}");
                    let path = tmp(&format!("bundle_{tag}_{precision:?}_{w}.lqio"));
                    write_propagator(&path, p, precision, md()).unwrap();
                    assert_image(&path, &propagator_image(p, precision, md()), &what);
                    std::fs::remove_file(&path).ok();
                }
            }
            let path = tmp(&format!("gauge_{w}.lqio"));
            write_gauge(&path, &lat, &gauge, md()).unwrap();
            assert_image(&path, &gauge_image(&lat, &gauge, md()), "gauge");
            let path = tmp(&format!("corr_{w}.lqio"));
            write_correlator(&path, &corr, md()).unwrap();
            assert_image(&path, &correlator_image(&corr, md()), "correlator");
            let path = tmp(&format!("ckpt_{w}.lqio"));
            write_checkpoint(&path, "cg-state", 11, &data).unwrap();
            assert_image(
                &path,
                &checkpoint_image("cg-state", 11, &data),
                "checkpoint",
            );
            let empty = tmp(&format!("ckpt_empty_{w}.lqio"));
            write_checkpoint(&empty, "cg-state", 0, &[]).unwrap();
            assert_image(&empty, &checkpoint_image("cg-state", 0, &[]), "empty");
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_reader_matches_the_staged_decode_bit_for_bit() {
    let prop = straddling_propagator();
    let (lat, gauge) = straddling_gauge();
    let corr = long_correlator();
    let data = long_checkpoint();
    let dir = test_dir("readers");
    let tmp = |name: &str| dir.join(name);
    let bundles = [BundlePrecision::F32, BundlePrecision::F64].map(|precision| {
        let path = tmp(&format!("read_bundle_{precision:?}.lqio"));
        std::fs::write(&path, propagator_image(&prop, precision, md())).unwrap();
        path
    });
    let gpath = tmp("read_gauge.lqio");
    std::fs::write(&gpath, gauge_image(&lat, &gauge, md())).unwrap();
    let cpath = tmp("read_corr.lqio");
    std::fs::write(&cpath, correlator_image(&corr, md())).unwrap();
    let kpath = tmp("read_ckpt.lqio");
    std::fs::write(&kpath, checkpoint_image("cg-state", 11, &data)).unwrap();
    let staged = |path: &Path| bits(&staged_read(&std::fs::read(path).unwrap()).1);
    for w in [1, 2, 4] {
        at_width(w, || {
            for path in &bundles {
                let back = read_propagator(path).unwrap();
                assert_eq!((back.source_site, back.source_time), (37, 3));
                assert_eq!(bits(&stage_propagator(&back)), staged(path), "width {w}");
            }
            let back = read_gauge(&gpath, &lat).unwrap();
            assert_eq!(
                bits(&stage_gauge(&back)),
                staged(&gpath),
                "gauge, width {w}"
            );
            let back = read_correlator(&cpath).unwrap();
            assert_eq!(bits(&stage_correlator(&back)), staged(&cpath), "width {w}");
            let (seq, back) = read_checkpoint(&kpath).unwrap();
            assert_eq!((seq, bits(&back)), (11, staged(&kpath)), "width {w}");
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One write and one read of each kind, under a scoped registry, count
/// one container and the file's bytes each way.
#[test]
fn one_write_and_one_read_count_one_container_and_the_file_bytes() {
    use obs::{assert_counter, Registry};
    let prop = straddling_propagator();
    let (lat, gauge) = straddling_gauge();
    let corr = long_correlator();
    let data = long_checkpoint();
    let dir = test_dir("counters");
    let path = dir.join("x.lqio");
    type Pass<'a> = Box<dyn Fn() + 'a>;
    let passes: [(&str, Pass); 5] = [
        (
            "f32 bundle",
            Box::new(|| {
                write_propagator(&path, &prop, BundlePrecision::F32, md()).unwrap();
                read_propagator(&path).unwrap();
            }),
        ),
        (
            "f64 bundle",
            Box::new(|| {
                write_propagator(&path, &prop, BundlePrecision::F64, md()).unwrap();
                read_propagator(&path).unwrap();
            }),
        ),
        (
            "gauge",
            Box::new(|| {
                write_gauge(&path, &lat, &gauge, md()).unwrap();
                read_gauge(&path, &lat).unwrap();
            }),
        ),
        (
            "correlator",
            Box::new(|| {
                write_correlator(&path, &corr, md()).unwrap();
                read_correlator(&path).unwrap();
            }),
        ),
        (
            "checkpoint",
            Box::new(|| {
                write_checkpoint(&path, "cg-state", 3, &data).unwrap();
                read_checkpoint(&path).unwrap();
            }),
        ),
    ];
    for (what, pass) in passes {
        let reg = Registry::new();
        {
            let _guard = reg.install_scoped();
            pass();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert_counter!(reg, "io.containers_written", 1);
        assert_counter!(reg, "io.containers_read", 1);
        assert_eq!(reg.counter("io.bytes_written").get(), len, "{what}");
        assert_eq!(reg.counter("io.bytes_read").get(), len, "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
