//! Serialization of physics objects through the container format.

use crate::container::{read_container, write_container, Container};
use crate::IoError;
use lqcd_core::complex::Complex;
use lqcd_core::field::GaugeField;
use lqcd_core::lattice::{Lattice, ND};
use lqcd_core::su3::{Su3, NC};
use std::collections::BTreeMap;
use std::path::Path;

/// Write a gauge configuration (f64, row-major links, re/im interleaved).
pub fn write_gauge(
    path: &Path,
    lattice: &Lattice,
    gauge: &GaugeField<f64>,
    metadata: BTreeMap<String, String>,
) -> Result<(), IoError> {
    let dims = lattice.dims();
    let mut values = Vec::with_capacity(lattice.volume() * ND * NC * NC * 2);
    for u in gauge.links() {
        for row in &u.m {
            for e in row {
                values.push(e.re);
                values.push(e.im);
            }
        }
    }
    let shape = vec![dims[0], dims[1], dims[2], dims[3], ND, NC * NC * 2];
    let c = Container::from_f64("gauge", shape, &values, metadata);
    write_container(path, &c)
}

/// Read a gauge configuration written by [`write_gauge`].
pub fn read_gauge(path: &Path, lattice: &Lattice) -> Result<GaugeField<f64>, IoError> {
    let c = read_container(path)?;
    let dims = lattice.dims();
    let expect = vec![dims[0], dims[1], dims[2], dims[3], ND, NC * NC * 2];
    if c.header.shape != expect {
        return Err(IoError::ShapeMismatch(format!(
            "file shape {:?}, lattice needs {:?}",
            c.header.shape, expect
        )));
    }
    let values = c.to_f64()?;
    let mut gauge = GaugeField::cold(lattice);
    for (l, link) in gauge.links_mut().iter_mut().enumerate() {
        let base = l * NC * NC * 2;
        let mut u = Su3::zero();
        for i in 0..NC {
            for j in 0..NC {
                let k = base + (i * NC + j) * 2;
                u.m[i][j] = Complex::new(values[k], values[k + 1]);
            }
        }
        *link = u;
    }
    Ok(gauge)
}

/// Write a (complex) correlator as `[nt, 2]`.
pub fn write_correlator(
    path: &Path,
    corr: &[lqcd_core::complex::C64],
    metadata: BTreeMap<String, String>,
) -> Result<(), IoError> {
    let mut values = Vec::with_capacity(corr.len() * 2);
    for c in corr {
        values.push(c.re);
        values.push(c.im);
    }
    let c = Container::from_f64("correlator", vec![corr.len(), 2], &values, metadata);
    write_container(path, &c)
}

/// Read a correlator written by [`write_correlator`].
pub fn read_correlator(path: &Path) -> Result<Vec<lqcd_core::complex::C64>, IoError> {
    let c = read_container(path)?;
    if c.header.shape.len() != 2 || c.header.shape[1] != 2 {
        return Err(IoError::ShapeMismatch(format!(
            "not a correlator file: shape {:?}",
            c.header.shape
        )));
    }
    let values = c.to_f64()?;
    Ok(values
        .chunks_exact(2)
        .map(|p| lqcd_core::complex::C64::new(p[0], p[1]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
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
