//! `repro chaos` — fault-injection sweep over the fault-tolerant solver
//! stack: wire-fault intensity × the six communication policies ×
//! {checkpointing on, off}.
//!
//! Each cell solves the same Möbius normal-equation system (`D†D x = b`)
//! with [`cg_ft`] over the sharded operator on a 2×2×1×1 rank grid, with the
//! transport's deterministic fault injector set to one of three
//! intensities:
//!
//! - **off**   — clean wire; establishes the reference residual and the
//!   clean iteration count per policy;
//! - **mild**  — low corruption/drop/duplicate/reorder rates: the
//!   NACK/retransmit layer heals essentially everything, restarts are rare;
//! - **harsh** — heavy wire loss *plus* a permanent rank loss mid-solve:
//!   solves live on checkpoint restores and one graceful 4→2 rank
//!   degradation.
//!
//! Intensities are derived from the scheduler-level fault model
//! ([`mpi_jm::FaultConfig`]) so the two layers share one vocabulary: task
//! transient-failure probability maps to wire corruption/drops, straggler
//! probability to duplicates/reordering, NIC degradation to latency spikes,
//! and a finite node MTBF to the injected rank loss. The seed is threaded
//! through the same `splitmix64` chain the scheduler uses.
//!
//! The headline claim the CSV captures: with faults at the harsh setting,
//! checkpointed solves still complete (and converge to the *bit-identical*
//! residual of the clean run), while uncheckpointed solves burn their
//! restart budget re-running from scratch.

use crate::output::{print_table, ExperimentOutput};
use coral_machine::commpolicy::CommPolicy;
use lqcd_core::comms::{
    policy_from_index, splitmix64, CommFaultProfile, CommRetryPolicy, ShardedNormal,
};
use lqcd_core::prelude::*;
use lqcd_core::solver::{cg_ft, CgParams, FtParams, SolverOutcome};
use mpi_jm::FaultConfig;
use obs::Registry;

/// Options for the chaos subcommand.
#[derive(Default)]
pub struct ChaosOpts {
    /// Fewer intensities — for CI smoke runs.
    pub quick: bool,
}

/// The CSV header `chaos.csv` is written (and schema-checked) against.
pub const CSV_HEADER: &str = "intensity,policy,checkpointing,converged,iterations,\
clean_iterations,checkpoints,restarts,degradations,retries,crc_failures,timeouts,\
duplicates_dropped,residual_match,final_rel_residual";

/// Rank grid the sweep executes on (4 ranks; degrades to 2 on rank loss).
const GRID: [usize; 4] = [2, 2, 1, 1];
const GPUS_PER_NODE: usize = 4;

/// One fault intensity: a scheduler-level fault model plus its name.
struct Intensity {
    name: &'static str,
    cfg: FaultConfig,
}

fn intensities(quick: bool) -> Vec<Intensity> {
    let off = Intensity {
        name: "off",
        cfg: FaultConfig {
            node_mtbf_seconds: 0.0,
            transient_fail_prob: 0.0,
            straggler_prob: 0.0,
            nic_degrade_prob: 0.0,
            seed: 20180806,
            ..FaultConfig::default()
        },
    };
    let mild = Intensity {
        name: "mild",
        cfg: FaultConfig {
            node_mtbf_seconds: 0.0,
            transient_fail_prob: 0.06,
            straggler_prob: 0.10,
            nic_degrade_prob: 0.05,
            seed: 20180806,
            ..FaultConfig::default()
        },
    };
    let harsh = Intensity {
        name: "harsh",
        cfg: FaultConfig {
            node_mtbf_seconds: 3600.0, // finite MTBF → one rank dies mid-solve
            transient_fail_prob: 0.24,
            straggler_prob: 0.20,
            nic_degrade_prob: 0.05,
            seed: 20180806,
            ..FaultConfig::default()
        },
    };
    if quick {
        vec![off, harsh]
    } else {
        vec![off, mild, harsh]
    }
}

/// Map the scheduler fault model onto a wire-fault profile.
///
/// Transient task failures become corruption/drops (split evenly),
/// stragglers become duplicates/reordering, NIC degradation becomes latency
/// spikes, and a finite node MTBF kills the highest rank partway through
/// the solve (the exact apply index drawn from the shared seed chain).
fn wire_profile(cfg: &FaultConfig, n_ranks: usize) -> CommFaultProfile {
    let mut p = CommFaultProfile {
        corrupt_prob: cfg.transient_fail_prob * 0.5,
        drop_prob: cfg.transient_fail_prob * 0.5,
        duplicate_prob: cfg.straggler_prob * 0.25,
        reorder_prob: cfg.straggler_prob * 0.25,
        delay_prob: cfg.nic_degrade_prob,
        seed: splitmix64(cfg.seed),
        ..CommFaultProfile::default()
    };
    if cfg.node_mtbf_seconds > 0.0 {
        p.lost_rank = Some(n_ranks - 1);
        // Mid-solve, jittered by the seed chain so the crash point is not a
        // checkpoint boundary by construction.
        p.lost_at_apply = 32 + splitmix64(splitmix64(cfg.seed)) % 16;
    }
    p
}

struct Cell {
    intensity: usize,
    policy: usize,
    checkpointing: bool,
    converged: bool,
    iterations: usize,
    checkpoints: usize,
    restarts: usize,
    degradations: usize,
    retries: u64,
    crc_failures: u64,
    timeouts: u64,
    duplicates_dropped: u64,
    residual: f64,
}

/// One cell's coordinates in the sweep.
#[derive(Clone, Copy)]
struct CellSpec {
    intensity: usize,
    profile: CommFaultProfile,
    policy_idx: usize,
    checkpointing: bool,
}

/// Run one sweep cell under a fresh observability registry.
fn run_cell(
    lat: &Lattice,
    gauge: &GaugeField<f64>,
    params: MobiusParams,
    b: &[Spinor<f64>],
    spec: CellSpec,
) -> Cell {
    let CellSpec {
        intensity,
        profile,
        policy_idx,
        checkpointing,
    } = spec;
    let reg = Registry::new();
    let _guard = reg.install_scoped();

    let policy = policy_from_index(policy_idx);
    let mut op = ShardedNormal::new(lat, gauge, params, GRID, GPUS_PER_NODE, policy)
        .expect("GRID divides the chaos lattice");
    op.set_fault_profile(profile, CommRetryPolicy::default());

    let ft = FtParams {
        cg: CgParams {
            tol: 1e-8,
            max_iter: 400,
        },
        checkpoint_every: if checkpointing { 10 } else { 0 },
        max_comm_restarts: 24,
        max_total_iters: 1200,
    };
    let mut x = vec![Spinor::zero(); b.len()];
    let outcome = cg_ft(&mut op, &mut x, b, &ft, None);
    let (stats, restarts) = match &outcome {
        SolverOutcome::Converged {
            stats, restarts, ..
        }
        | SolverOutcome::MaxIterations { stats, restarts }
        | SolverOutcome::Failed {
            stats, restarts, ..
        } => (*stats, *restarts),
    };

    Cell {
        intensity,
        policy: policy_idx,
        checkpointing,
        converged: outcome.is_converged(),
        iterations: stats.iterations,
        checkpoints: stats.checkpoints,
        restarts,
        degradations: op.degradations(),
        retries: reg.counter("comms.retries").get(),
        crc_failures: reg.counter("comms.crc_failures").get(),
        timeouts: reg.counter("comms.timeouts").get(),
        duplicates_dropped: reg.counter("comms.duplicates_dropped").get(),
        residual: stats.final_rel_residual,
    }
}

/// Run the sweep and write `chaos.csv` + `chaos.md` + a console table.
pub fn run_chaos(out: &ExperimentOutput, opts: &ChaosOpts) -> std::io::Result<()> {
    let dims = [4usize, 4, 4, 8];
    let l5 = 4usize;
    let intensities = intensities(opts.quick);
    let n_policies = CommPolicy::all().len();
    println!(
        "repro chaos: {} L5={l5}, grid {GRID:?}, intensities {:?}, {n_policies} policies x ckpt on/off",
        lqcd_core::lattice::volume_string(dims),
        intensities.iter().map(|i| i.name).collect::<Vec<_>>(),
    );

    let lat = Lattice::new(dims);
    let gauge = GaugeField::<f64>::hot(&lat, 7);
    let params = MobiusParams::standard(l5, 0.08);
    let b = FermionField::<f64>::gaussian(l5 * lat.volume(), 8).data;

    let mut cells: Vec<Cell> = Vec::new();
    for (ii, intensity) in intensities.iter().enumerate() {
        let profile = wire_profile(&intensity.cfg, GRID.iter().product());
        for pi in 0..n_policies {
            for &ckpt in &[true, false] {
                cells.push(run_cell(
                    &lat,
                    &gauge,
                    params,
                    &b,
                    CellSpec {
                        intensity: ii,
                        profile,
                        policy_idx: pi,
                        checkpointing: ckpt,
                    },
                ));
            }
        }
    }

    // Clean references per policy: intensity 0 is always "off".
    let clean: Vec<&Cell> = (0..n_policies)
        .map(|pi| {
            cells
                .iter()
                .find(|c| c.intensity == 0 && c.policy == pi && c.checkpointing)
                .expect("clean cell exists for every policy")
        })
        .collect();

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for c in &cells {
        let reference = clean[c.policy];
        let residual_match = c.converged && c.residual.to_bits() == reference.residual.to_bits();
        rows.push(vec![
            c.intensity as f64,
            c.policy as f64,
            c.checkpointing as u8 as f64,
            c.converged as u8 as f64,
            c.iterations as f64,
            reference.iterations as f64,
            c.checkpoints as f64,
            c.restarts as f64,
            c.degradations as f64,
            c.retries as f64,
            c.crc_failures as f64,
            c.timeouts as f64,
            c.duplicates_dropped as f64,
            residual_match as u8 as f64,
            c.residual,
        ]);
        table.push(vec![
            intensities[c.intensity].name.into(),
            policy_from_index(c.policy).label(),
            if c.checkpointing { "on" } else { "off" }.into(),
            if c.converged { "yes" } else { "NO" }.into(),
            format!("{}", c.iterations),
            format!("{}", c.restarts),
            format!("{}", c.degradations),
            format!("{}", c.retries),
            format!("{}", c.crc_failures),
            if residual_match { "=" } else { "" }.into(),
        ]);
    }

    let path = out.csv("chaos.csv", CSV_HEADER, &rows)?;
    print_table(
        "chaos: fault intensity x policy x checkpointing",
        &[
            "intensity",
            "policy",
            "ckpt",
            "conv",
            "iters",
            "restarts",
            "degrades",
            "retries",
            "crc",
            "residual",
        ],
        &table,
    );
    write_summary(out, &intensities, &cells, &clean)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Write the `chaos.md` completion-fraction summary.
fn write_summary(
    out: &ExperimentOutput,
    intensities: &[Intensity],
    cells: &[Cell],
    clean: &[&Cell],
) -> std::io::Result<()> {
    let mut md = String::new();
    md.push_str("# Chaos sweep: fault intensity × comm policy × checkpointing\n\n");
    md.push_str(
        "Each cell is one `cg_ft` solve of the Möbius normal equations on a \
         2×2×1×1 rank grid.\nColumns: completion fraction across the six \
         policies, mean wasted iterations relative\nto the clean solve of the \
         same policy (replayed work from checkpoint restores or\nfrom-scratch \
         restarts), and bit-identical-residual fraction among completed \
         solves.\n\n",
    );
    md.push_str(
        "| intensity | checkpointing | completed | mean wasted iters | bit-identical residuals |\n",
    );
    md.push_str("|---|---|---|---|---|\n");
    for (ii, intensity) in intensities.iter().enumerate() {
        for &ckpt in &[true, false] {
            let group: Vec<&Cell> = cells
                .iter()
                .filter(|c| c.intensity == ii && c.checkpointing == ckpt)
                .collect();
            let n = group.len().max(1);
            let completed = group.iter().filter(|c| c.converged).count();
            let wasted: f64 = group
                .iter()
                .map(|c| c.iterations.saturating_sub(clean[c.policy].iterations) as f64)
                .sum::<f64>()
                / n as f64;
            let matched = group
                .iter()
                .filter(|c| {
                    c.converged && c.residual.to_bits() == clean[c.policy].residual.to_bits()
                })
                .count();
            md.push_str(&format!(
                "| {} | {} | {}/{} | {:.1} | {}/{} |\n",
                intensity.name,
                if ckpt { "on" } else { "off" },
                completed,
                n,
                wasted,
                matched,
                completed.max(1).min(n),
            ));
        }
    }
    md.push_str(
        "\nHarsh cells include a permanent rank loss mid-solve: every completed \
         harsh solve\nperformed one graceful 4→2 rank degradation and resumed \
         from its last checkpoint.\n",
    );
    std::fs::write(out.path("chaos.md"), md)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_header_names_the_recovery_columns() {
        let cols: Vec<&str> = CSV_HEADER.split(',').collect();
        assert_eq!(cols.len(), 15);
        for c in [
            "intensity",
            "checkpointing",
            "restarts",
            "degradations",
            "crc_failures",
            "residual_match",
        ] {
            assert!(cols.contains(&c), "missing column {c}");
        }
    }

    #[test]
    fn wire_profile_maps_the_scheduler_fault_model() {
        let cfg = FaultConfig {
            node_mtbf_seconds: 3600.0,
            transient_fail_prob: 0.2,
            straggler_prob: 0.1,
            nic_degrade_prob: 0.05,
            seed: 1,
            ..FaultConfig::default()
        };
        let p = wire_profile(&cfg, 4);
        assert_eq!(p.corrupt_prob, 0.1);
        assert_eq!(p.drop_prob, 0.1);
        assert_eq!(p.duplicate_prob, 0.025);
        assert_eq!(p.reorder_prob, 0.025);
        assert_eq!(p.delay_prob, 0.05);
        assert_eq!(p.lost_rank, Some(3));
        assert!((32..48).contains(&p.lost_at_apply));
        assert_eq!(p.seed, splitmix64(1));
        // MTBF 0 ⇒ no rank loss.
        let quiet = wire_profile(
            &FaultConfig {
                node_mtbf_seconds: 0.0,
                ..cfg
            },
            4,
        );
        assert_eq!(quiet.lost_rank, None);
    }
}
