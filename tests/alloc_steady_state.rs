//! The solver's steady state allocates nothing.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` (the one `benchmark/src/alloc.rs` reports
//! `solver.alloc_*_per_iteration` with) and hold the production operator —
//! `NormalOp<f32, PrecMobius>` at the `fh_small` shape, 4³×8 with L5 = 4 —
//! to it: after a warm-up call has sized every scratch buffer, further
//! applies and further CG iterations request no memory at width 1, and at
//! most a stray pool job handle once the sweeps fork. So do warm block
//! applies of that operator and of the solve service's
//! `NormalOp<f64, WilsonDirac>`, and warm applies at `mobius_large`'s
//! L5 = 8, whose f32 stencil runs full-width lane groups. The sharded normal
//! operator is held to its wire: a warm apply, one- or three-column,
//! requests the halo frames' buffers and nothing that scales with the 5D
//! vector.
//!
//! One test only: the switch is process-wide and tests run in parallel.

use lqcd::core::comms::{policy_from_index, DomainDecomposition, ShardedNormal};
use lqcd::core::prelude::*;
use lqcd::core::solver::FallibleOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ON.load(Ordering::SeqCst) {
        BYTES.fetch_add(size as u64, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested from the allocator, process-wide, while `op` ran.
fn bytes_requested(op: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    op();
    ON.store(false, Ordering::SeqCst);
    BYTES.load(Ordering::SeqCst) - before
}

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

#[test]
fn steady_state_applies_and_iterations_request_no_memory() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 11).cast::<f32>();
    let prec = PrecMobius::new(&lat, &gauge, MobiusParams::standard(4, 0.3));
    let normal = NormalOp::new(&prec);
    let n = normal.vec_len();
    let b = FermionField::<f32>::gaussian(n, 12).data;
    let mut out = vec![Spinor::zero(); n];
    let twenty_applies = |out: &mut [Spinor<f32>]| {
        for _ in 0..20 {
            normal.apply(out, &b);
        }
    };

    at_width(1, || {
        normal.apply(&mut out, &b);
        let bytes = bytes_requested(|| twenty_applies(&mut out));
        assert_eq!(bytes, 0, "20 warm applies at width 1 requested {bytes} B");

        // Twenty more iterations cost no more memory than ten: whatever a
        // solve requests, it requests in its prologue.
        let solve_bytes = |max_iter: usize| {
            let mut x = vec![Spinor::zero(); n];
            bytes_requested(|| {
                let stats = cg(&normal, &mut x, &b, CgParams { tol: 0.0, max_iter });
                assert_eq!(stats.iterations, max_iter);
            })
        };
        solve_bytes(1); // registers the `solver.cg.*` metrics
        assert_eq!(solve_bytes(30), solve_bytes(10));

        // The block forms run the same fused sweeps over the same scratch:
        // a warm block apply requests nothing either.
        let nrhs = 3;
        let b3 = FermionField::<f32>::gaussian(n * nrhs, 15).data;
        let mut out3 = vec![Spinor::zero(); n * nrhs];
        normal.apply_block(&mut out3, &b3, nrhs);
        let bytes = bytes_requested(|| normal.apply_block(&mut out3, &b3, nrhs));
        assert_eq!(
            bytes, 0,
            "a warm {nrhs}-column PrecMobius block apply requested {bytes} B"
        );

        // L5 = 4 hops each site's four f32 spinors as one half-width lane
        // group; `mobius_large`'s L5 = 8 fills a full-width group. The lane
        // tiles live on the stack: a warm apply requests nothing here either.
        let wide = PrecMobius::new(&lat, &gauge, MobiusParams::standard(8, 0.3));
        let wide = NormalOp::new(&wide);
        let b8 = FermionField::<f32>::gaussian(wide.vec_len(), 18).data;
        let mut out8 = vec![Spinor::zero(); wide.vec_len()];
        wide.apply(&mut out8, &b8);
        let bytes = bytes_requested(|| wide.apply(&mut out8, &b8));
        assert_eq!(
            bytes, 0,
            "a warm L5 = 8 apply at width 1 requested {bytes} B"
        );

        // The solve service's operator, at a `serve_zipf` batch width.
        let gauge = GaugeField::<f64>::hot(&lat, 16);
        let wilson = WilsonDirac::new(&lat, &gauge, 0.2, true);
        let normal = NormalOp::new(&wilson);
        let (n, nrhs) = (normal.vec_len(), 4);
        let b4 = FermionField::<f64>::gaussian(n * nrhs, 17).data;
        let mut out4 = vec![Spinor::zero(); n * nrhs];
        normal.apply_block(&mut out4, &b4, nrhs);
        let bytes = bytes_requested(|| normal.apply_block(&mut out4, &b4, nrhs));
        assert_eq!(
            bytes, 0,
            "a warm {nrhs}-column Wilson block apply requested {bytes} B"
        );
    });

    // Wide enough for the sweeps to fork (two stencil passes and two column
    // sweeps per operator apply). The pool reuses finished job handles, so
    // what is left is an occasional fresh 80 B handle when a worker still
    // holds the previous one — nothing that scales with the vector.
    at_width(4, || {
        normal.apply(&mut out, &b);
        let bytes = bytes_requested(|| twenty_applies(&mut out));
        assert!(
            bytes < 8 << 10,
            "20 warm applies at width 4 requested {bytes} B"
        );
    });

    // `D` then `D†` over the 2×2×1×1 grid, staged-DMA policy, clean wire:
    // each hop's messages allocate two payload-sized buffers (the pack
    // buffer and the staging copy, which the frame carries: parked for
    // retransmit and queued as one shared frame) plus the frame's envelope,
    // and the resident shard fields and fifth-dimension scratch were sized
    // by the warm-up call. A three-column warm-up resizes them, after which
    // a warm three-column apply is held to its own, three times fatter,
    // frames.
    at_width(1, || {
        let gauge = GaugeField::<f64>::hot(&lat, 13);
        let params = MobiusParams::standard(4, 0.5);
        let (grid, gpus_per_node) = ([2, 2, 1, 1], 4);
        let policy = policy_from_index(0);
        let mut op = ShardedNormal::new(&lat, &gauge, params, grid, gpus_per_node, policy)
            .expect("the grid decomposes 4³×8");
        let domain = DomainDecomposition::new(&lat, grid, params.l5, gpus_per_node).expect("grid");
        let halo_bytes: usize = domain
            .ranks()
            .iter()
            .flat_map(|rank| rank.exchanges.iter())
            .map(|ex| 2 * ex.face_len * params.l5 * std::mem::size_of::<Spinor<f64>>())
            .sum();
        for nrhs in [1, 3] {
            let n = op.vec_len() * nrhs;
            let b = FermionField::<f64>::gaussian(n, 14).data;
            let mut out = vec![Spinor::zero(); n];
            op.apply_block(&mut out, &b, nrhs).expect("clean wire");
            let bytes = bytes_requested(|| op.apply_block(&mut out, &b, nrhs).expect("clean wire"));
            let messages = domain.total_messages_per_apply();
            let bound = 2 * (2 * halo_bytes * nrhs + messages * 128) as u64;
            assert!(
                bytes <= bound,
                "a warm {nrhs}-column sharded apply requested {bytes} B, over the {bound} B of its wire buffers"
            );
        }
    });
}
