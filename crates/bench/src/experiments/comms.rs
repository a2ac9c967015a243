//! `repro comms` — execute the communication policies and compare measured
//! against analytic exchange behavior.
//!
//! For each rank grid, every [`CommPolicy`] drives the sharded
//! halo-exchange dslash through real face packs, channel sends, and ghost
//! unpacks; the harness times the applications (best-of-N through the `obs`
//! wall clock), collects the kernel's [`CommStats`], and writes them next to
//! the analytic predictions from the *same* `CommPolicy` type
//! (`exchange_time`, `Decomposition::halo_bytes`) into `comms.csv`.
//!
//! Two invariants are asserted, not just recorded:
//!
//! - measured messages per apply == the analytic
//!   `Decomposition::messages_per_apply` (× ranks), for every policy;
//! - measured payload bytes == halo spinors × `size_of::<Spinor<f64>>` —
//!   related to the analytic half-spinor byte model by a pure format factor
//!   (the model ships compressed 24 B/site halos; the executor ships full
//!   f64 spinors). Both columns are emitted so the factor is auditable.
//!
//! The [`autotune::Tuner`] then sweeps the policies per grid from the
//! measured timings and the winner is flagged in the `tuned` column.

use crate::output::{print_table, ExperimentOutput};
use coral_machine::commpolicy::CommPolicy;
use coral_machine::specs;
use lqcd_core::comms::{tune_comm_policy, DomainDecomposition, ShardedField, ShardedHopping};
use lqcd_core::prelude::*;
use obs::{Clock, WallClock};
use std::sync::Arc;

/// Options for the comms subcommand.
#[derive(Default)]
pub struct CommsOpts {
    /// Smaller lattice and fewer repetitions — for CI smoke runs.
    pub quick: bool,
}

/// The CSV header `comms.csv` is written (and schema-checked) against.
pub const CSV_HEADER: &str = "grid_id,n_ranks,policy,measured_ms,analytic_exchange_ms,\
measured_bytes_sent,analytic_halo_bytes,messages,overlap_ms,bytes_packed,tuned";

/// Best-of-`reps` seconds for one apply, after one warmup call.
fn time_best(
    reps: usize,
    clock: &WallClock,
    kernel: &mut ShardedHopping<f64>,
    out: &mut ShardedField<f64>,
    inp: &mut ShardedField<f64>,
) -> f64 {
    kernel
        .apply(out, inp)
        .expect("comms experiment runs a fault-free transport");
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = clock.now();
        kernel
            .apply(out, inp)
            .expect("comms experiment runs a fault-free transport");
        best = best.min(clock.now() - t0);
    }
    best
}

/// Run the experiment and write `comms.csv` + a console table.
pub fn run_comms(out: &ExperimentOutput, opts: &CommsOpts) -> std::io::Result<()> {
    let (dims, l5, reps) = if opts.quick {
        ([4usize, 4, 4, 8], 4usize, 2usize)
    } else {
        ([8usize, 8, 8, 16], 8usize, 5usize)
    };
    // Ray is the only Table II machine with GPU-Direct available, so all six
    // policies are analytically meaningful on it.
    let machine = specs::ray();
    let grids: &[[usize; 4]] = if opts.quick {
        &[[1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 1, 1]]
    } else {
        &[[1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 1, 1], [2, 2, 2, 1]]
    };
    println!(
        "repro comms: {} L5={l5}, grids {grids:?}, machine {}",
        lqcd_core::lattice::volume_string(dims),
        machine.name
    );

    let lat = Lattice::new(dims);
    let gauge = GaugeField::<f64>::hot(&lat, 7);
    let src = FermionField::<f64>::gaussian(l5 * lat.volume(), 8).data;
    let clock = WallClock::new();
    let tuner = autotune::Tuner::new();
    let policies = CommPolicy::all();
    let spinor_bytes = std::mem::size_of::<Spinor<f64>>() as f64;

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for (grid_id, &grid) in grids.iter().enumerate() {
        let domain = Arc::new(
            DomainDecomposition::new(&lat, grid, l5, machine.gpus_per_node)
                .expect("grid divides the lattice"),
        );
        let n_ranks = domain.n_ranks();
        let decomp = domain.decomp();
        let (intra, inter) = decomp.halo_bytes();
        let analytic_bytes = (intra + inter) * n_ranks as f64;

        // Tuner sweep on a scratch kernel: measured timings pick the winner
        // for this (geometry, precision, rank grid).
        let winner = {
            let mut k = ShardedHopping::new(domain.clone(), &gauge, true, policies[0]);
            let mut si = ShardedField::scatter(&domain, &src, l5);
            let mut so = ShardedField::zeros(&domain, l5);
            tune_comm_policy(&tuner, &mut k, &mut so, &mut si)
        };

        for (pi, &policy) in policies.iter().enumerate() {
            let mut kernel = ShardedHopping::new(domain.clone(), &gauge, true, policy);
            let mut si = ShardedField::scatter(&domain, &src, l5);
            let mut so = ShardedField::zeros(&domain, l5);
            let secs = time_best(reps, &clock, &mut kernel, &mut so, &mut si);
            let s = kernel.stats();
            let applies = s.applies as f64;

            // Measured-vs-analytic cross-checks: the executed exchange must
            // agree with the cost model's own message and site accounting.
            assert_eq!(
                s.messages as usize,
                s.applies as usize * domain.total_messages_per_apply(),
                "grid {grid:?} policy {}",
                policy.label()
            );
            let analytic_halo_sites: f64 =
                decomp.halos.iter().map(|h| h.sites).sum::<f64>() * n_ranks as f64;
            let measured_sites_per_apply = s.halo_sites as f64 / applies;
            assert!(
                (measured_sites_per_apply - analytic_halo_sites).abs() < 0.5,
                "halo sites: measured {measured_sites_per_apply}, analytic {analytic_halo_sites}"
            );

            let analytic_ms = policy.exchange_time(&machine, decomp) * 1e3;
            let measured_bytes = s.bytes_sent as f64 / applies;
            let packed_bytes = s.bytes_packed as f64 / applies;
            let overlap_ms = s.overlap_seconds / applies * 1e3;
            assert!(
                (measured_bytes - measured_sites_per_apply * spinor_bytes).abs() < 0.5,
                "payload bytes must be halo sites x spinor size"
            );

            let tuned = if policy == winner { 1.0 } else { 0.0 };
            rows.push(vec![
                grid_id as f64,
                n_ranks as f64,
                pi as f64,
                secs * 1e3,
                analytic_ms,
                measured_bytes,
                analytic_bytes,
                (s.messages as f64 / applies).round(),
                overlap_ms,
                packed_bytes,
                tuned,
            ]);
            table.push(vec![
                domain.grid_string(),
                policy.label(),
                format!("{:.3}", secs * 1e3),
                format!("{analytic_ms:.4}"),
                format!("{measured_bytes:.0}"),
                format!("{analytic_bytes:.0}"),
                format!("{:.0}", s.messages as f64 / applies),
                format!("{overlap_ms:.4}"),
                if tuned > 0.0 {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
        }
    }

    let path = out.csv("comms.csv", CSV_HEADER, &rows)?;
    print_table(
        "halo exchange: measured vs analytic",
        &[
            "grid",
            "policy",
            "meas ms",
            "model ms",
            "meas B",
            "model B",
            "msgs",
            "overlap ms",
            "tuned",
        ],
        &table,
    );
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_header_has_measured_and_analytic_columns() {
        let cols: Vec<&str> = CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), 11);
        assert!(cols.contains(&"measured_ms"));
        assert!(cols.contains(&"analytic_exchange_ms"));
        assert!(cols.contains(&"measured_bytes_sent"));
        assert!(cols.contains(&"analytic_halo_bytes"));
        assert!(cols.contains(&"tuned"));
    }

    #[test]
    fn quick_run_writes_csv_with_all_policies() {
        let dir = std::env::temp_dir().join("repro_comms_test");
        let out = ExperimentOutput::new(&dir).unwrap();
        run_comms(&out, &CommsOpts { quick: true }).unwrap();
        let content = std::fs::read_to_string(out.path("comms.csv")).unwrap();
        let mut lines = content.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        // 3 quick grids x 6 policies.
        assert_eq!(lines.count(), 3 * CommPolicy::all().len());
        std::fs::remove_file(out.path("comms.csv")).ok();
    }
}
