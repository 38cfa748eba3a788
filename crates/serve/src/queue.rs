//! What a tenant's submission ring holds (see [`crate::service`]).

use std::time::Instant;

use cfm_core::op::Operation;

use crate::request::Reply;

/// One admitted-but-not-yet-issued operation.
pub(crate) struct Pending {
    pub(crate) op: Operation,
    pub(crate) reply: Reply,
    pub(crate) submitted: Instant,
}
