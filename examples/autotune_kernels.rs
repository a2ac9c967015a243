//! The run-time autotuner at work on the paper's extension of the QUDA
//! autotuner: it picks the halo-exchange communication policy per GPU count
//! against the Sierra model, caches each choice, and persists the cache the
//! way QUDA persists its tunecache.
//!
//! ```sh
//! cargo run --release --example autotune_kernels
//! ```

use lqcd::autotune::Tuner;
use lqcd::machine::{sierra, CommPolicy, SolverPerfModel};

fn main() {
    let tuner = Tuner::new();

    // Communication-policy tuning against the Sierra model at several GPU
    // counts — the paper's extension of the QUDA autotuner.
    println!("communication-policy tuning, 48^3x64 on Sierra:");
    let model = SolverPerfModel::new(sierra(), [48, 48, 48, 64], 12);
    for gpus in [4usize, 16, 64, 256] {
        if let Some(policy) = model.tuned_policy(&tuner, gpus) {
            let t = model.iteration_time(gpus, policy).expect("fits");
            println!(
                "  {gpus:4} GPUs -> {:16}  ({:.2} ms/iteration)",
                policy.label(),
                t * 1e3
            );
            // Show what the tuner rejected.
            for p in CommPolicy::available(&sierra()) {
                if p != policy {
                    let tp = model.iteration_time(gpus, p).expect("fits");
                    println!("        rejected {:16} ({:.2} ms)", p.label(), tp * 1e3);
                }
            }
        }
    }

    // Persist the cache, as QUDA persists its tunecache.
    let path = std::env::temp_dir().join("lqcd_tunecache.json");
    tuner.save(&path).expect("save tune cache");
    println!("\ntune cache persisted to {}", path.display());
    let restored = Tuner::new();
    let n = restored.load(&path).expect("load tune cache");
    println!("restored {n} entries into a fresh tuner");
}
