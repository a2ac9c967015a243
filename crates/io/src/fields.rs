//! Serialization of physics objects through the container format.

use crate::container::{fill_records, read_verified, write_framed, Header};
use crate::IoError;
use lqcd_core::complex::{Complex, C64};
use lqcd_core::field::GaugeField;
use lqcd_core::lattice::{Lattice, ND};
use lqcd_core::su3::{Su3, NC};
use std::collections::BTreeMap;
use std::path::Path;

/// Bytes of one link in the file: 9 complex `f64`s.
const LINK_BYTES: usize = NC * NC * 16;

/// Write a gauge configuration (f64, row-major links, re/im interleaved).
pub fn write_gauge(
    path: &Path,
    lattice: &Lattice,
    gauge: &GaugeField<f64>,
    metadata: BTreeMap<String, String>,
) -> Result<(), IoError> {
    let dims = lattice.dims();
    let links = gauge.links();
    assert_eq!(links.len(), lattice.volume() * ND);
    let shape = vec![dims[0], dims[1], dims[2], dims[3], ND, NC * NC * 2];
    write_framed(
        path,
        Header::new("gauge", "f64", shape, metadata),
        links.len() * LINK_BYTES,
        |at, out| {
            fill_records(at, out, |l, b: &mut [u8; LINK_BYTES]| {
                for (k, z) in b.chunks_exact_mut(16).enumerate() {
                    let e = links[l].m[k / NC][k % NC];
                    z[..8].copy_from_slice(&e.re.to_le_bytes());
                    z[8..].copy_from_slice(&e.im.to_le_bytes());
                }
            })
        },
    )
}

/// Read a gauge configuration written by [`write_gauge`].
pub fn read_gauge(path: &Path, lattice: &Lattice) -> Result<GaugeField<f64>, IoError> {
    read_verified(path, |header, payload| {
        let dims = lattice.dims();
        let expect = vec![dims[0], dims[1], dims[2], dims[3], ND, NC * NC * 2];
        if header.shape != expect {
            return Err(IoError::ShapeMismatch(format!(
                "file shape {:?}, lattice needs {:?}",
                header.shape, expect
            )));
        }
        header.check_payload("f64", payload.len())?;
        let mut gauge = GaugeField::cold(lattice);
        payload.decode_into(gauge.links_mut(), |b: &[u8; LINK_BYTES]| {
            let mut u = Su3::zero();
            for (k, z) in b.as_chunks::<8>().0.chunks_exact(2).enumerate() {
                u.m[k / NC][k % NC] =
                    Complex::new(f64::from_le_bytes(z[0]), f64::from_le_bytes(z[1]));
            }
            u
        });
        Ok(gauge)
    })
}

/// Write a (complex) correlator as `[nt, 2]`.
pub fn write_correlator(
    path: &Path,
    corr: &[C64],
    metadata: BTreeMap<String, String>,
) -> Result<(), IoError> {
    write_framed(
        path,
        Header::new("correlator", "f64", vec![corr.len(), 2], metadata),
        corr.len() * 16,
        |at, out| {
            fill_records(at, out, |t, b: &mut [u8; 16]| {
                b[..8].copy_from_slice(&corr[t].re.to_le_bytes());
                b[8..].copy_from_slice(&corr[t].im.to_le_bytes());
            })
        },
    )
}

/// Read a correlator written by [`write_correlator`].
pub fn read_correlator(path: &Path) -> Result<Vec<C64>, IoError> {
    read_verified(path, |header, payload| {
        if header.shape.len() != 2 || header.shape[1] != 2 {
            return Err(IoError::ShapeMismatch(format!(
                "not a correlator file: shape {:?}",
                header.shape
            )));
        }
        header.check_payload("f64", payload.len())?;
        Ok(payload.decode_vec(|b: &[u8; 16]| {
            let z = b.as_chunks::<8>().0;
            C64::new(f64::from_le_bytes(z[0]), f64::from_le_bytes(z[1]))
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::assert_hostile_reads;
    use lqcd_core::complex::C64;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lattice_io_field_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn gauge_round_trip_is_exact() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 17);
        let path = tmp("gauge.lqio");
        let mut md = BTreeMap::new();
        md.insert("beta".into(), "6.0".into());
        write_gauge(&path, &lat, &gauge, md).unwrap();
        let back = read_gauge(&path, &lat).unwrap();
        assert_eq!(back.links(), gauge.links());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gauge_shape_mismatch_is_rejected() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let other = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::<f64>::hot(&lat, 19);
        let path = tmp("gauge_shape.lqio");
        write_gauge(&path, &lat, &gauge, BTreeMap::new()).unwrap();
        assert!(matches!(
            read_gauge(&path, &other),
            Err(IoError::ShapeMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn correlator_round_trip_is_exact() {
        let corr: Vec<C64> = (0..16)
            .map(|t| C64::new((t as f64).exp(), -(t as f64)))
            .collect();
        let path = tmp("corr.lqio");
        write_correlator(&path, &corr, BTreeMap::new()).unwrap();
        assert_eq!(read_correlator(&path).unwrap(), corr);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_gauge_files_are_errors_never_panics_or_wrong_links() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::<f64>::hot(&lat, 29);
        let path = tmp("gauge_hostile.lqio");
        write_gauge(&path, &lat, &gauge, BTreeMap::new()).unwrap();
        let image = std::fs::read(&path).unwrap();
        assert_hostile_reads(
            &path,
            &image,
            7,
            |p| read_gauge(p, &lat),
            |g, _| g.links() == gauge.links(),
        );
    }

    #[test]
    fn hostile_correlator_files_are_errors_never_panics_or_wrong_values() {
        let corr: Vec<C64> = (0..16)
            .map(|t| C64::new((-(t as f64)).exp(), 0.25 * t as f64))
            .collect();
        let path = tmp("corr_hostile.lqio");
        write_correlator(&path, &corr, BTreeMap::new()).unwrap();
        let image = std::fs::read(&path).unwrap();
        assert_hostile_reads(&path, &image, 1, read_correlator, |c, _| *c == corr);
    }

    #[test]
    fn solver_consumes_reread_gauge_identically() {
        // The workflow property that matters: a propagator solved on a
        // round-tripped configuration is bit-identical.
        use lqcd_core::prelude::*;
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 23);
        let path = tmp("gauge_solve.lqio");
        write_gauge(&path, &lat, &gauge, BTreeMap::new()).unwrap();
        let reread = read_gauge(&path, &lat).unwrap();

        let b = point_source(&lat, 0, 0, 0);
        let s1 = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let s2 = PropagatorSolver::new(&lat, &reread, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let (q1, _) = s1.solve(&b);
        let (q2, _) = s2.solve(&b);
        assert_eq!(q1.data, q2.data);
        std::fs::remove_file(&path).ok();
    }
}
