//! Bounded per-tenant admission queues.

use std::collections::VecDeque;
use std::time::Instant;

use cfm_core::op::Operation;

use crate::request::Reply;

/// One admitted-but-not-yet-issued operation.
pub(crate) struct Pending {
    pub(crate) op: Operation,
    pub(crate) reply: Reply,
    pub(crate) submitted: Instant,
}

/// A tenant's bounded FIFO of admitted operations.
pub(crate) struct TenantQueue {
    pub(crate) capacity: usize,
    pub(crate) queue: VecDeque<Pending>,
}

impl TenantQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        TenantQueue {
            capacity,
            queue: VecDeque::new(),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn push(&mut self, pending: Pending) {
        debug_assert!(!self.is_full());
        self.queue.push_back(pending);
    }

    pub(crate) fn pop(&mut self) -> Option<Pending> {
        self.queue.pop_front()
    }
}
