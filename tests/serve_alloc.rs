//! Deterministic allocation gate for the in-process serving path: heap
//! allocations per served operation, counted by a counting global
//! allocator rather than timed, so the gate does not depend on the host.
//!
//! Setup: a 16-processor machine on the parallel engine (one lane), one
//! tenant, 32 requests kept in flight, every fourth operation a write.
//! At steady state an operation may allocate its ticket, the block a
//! read hands to its caller, and the block a write carries in. The
//! slot itself (admission, issue, step, completion, delivery) must
//! allocate nothing, which the bound of 2 per operation leaves no room
//! for at one slot per operation.
//!
//! The file holds a single test so that no other test thread allocates
//! while it counts.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use conflict_free_memory::core::config::{CfmConfig, Engine};
use conflict_free_memory::core::op::{Operation, Outcome};
use conflict_free_memory::serve::{Service, ServiceConfig, TenantSpec, Ticket};

/// Every allocation in the process, from any thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a side effect that never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PROCESSORS: usize = 16;
const OFFSETS: usize = 64;
const IN_FLIGHT: usize = 32;
const WARM_UP: u64 = 20_000;
const MEASURED: u64 = 50_000;
const MAX_ALLOCATIONS_PER_OP: f64 = 2.0;

/// Operation `i` of the stream: a write every fourth, reads otherwise.
fn op(i: u64, banks: usize) -> Operation {
    let offset = (i as usize * 7) % OFFSETS;
    if i % 4 == 3 {
        Operation::write(offset, vec![i; banks])
    } else {
        Operation::read(offset)
    }
}

/// Serve `ops` operations closed-loop at `IN_FLIGHT` deep, starting at
/// stream index `*next`.
fn serve(service: &Service, lane: &mut VecDeque<Ticket>, next: &mut u64, ops: u64, banks: usize) {
    let end = *next + ops;
    while *next < end || !lane.is_empty() {
        while *next < end && lane.len() < IN_FLIGHT {
            let ticket = service
                .submit(0, op(*next, banks))
                .expect("a 32-deep client fits the queue");
            lane.push_back(ticket);
            *next += 1;
        }
        let ticket = lane.pop_front().expect("work outstanding");
        let response = ticket.wait().expect("service alive");
        assert_eq!(response.completion.outcome, Outcome::Completed);
    }
}

#[test]
fn steady_state_serving_allocates_at_most_two_blocks_per_op() {
    let machine = CfmConfig::new(PROCESSORS, 1, 16)
        .unwrap()
        .with_engine(Engine::Parallel { threads: 1 });
    let banks = machine.banks();
    let service = Service::start(
        ServiceConfig::new(machine, OFFSETS).with_tenant(TenantSpec::new("t").queue_capacity(64)),
    )
    .unwrap();
    let mut lane = VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 0;
    serve(&service, &mut lane, &mut next, WARM_UP, banks);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    serve(&service, &mut lane, &mut next, MEASURED, banks);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let report = service.drain();
    assert_eq!(report.stats.bank_conflicts, 0);
    assert_eq!(report.metrics.completed(), WARM_UP + MEASURED);
    let per_op = allocations as f64 / MEASURED as f64;
    eprintln!("{per_op:.3} allocations per served operation");
    assert!(
        per_op <= MAX_ALLOCATIONS_PER_OP,
        "{allocations} allocations over {MEASURED} served operations \
         ({per_op:.3} per op, bound {MAX_ALLOCATIONS_PER_OP})"
    );
}
