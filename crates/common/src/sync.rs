//! Poison-tolerant lock helpers.
//!
//! The workspace uses `std::sync::{Mutex, RwLock}` (crates.io is unreachable
//! in the build environment, so `parking_lot` is not an option). Unlike
//! `parking_lot`, the std locks poison on panic. Everywhere the guarded
//! state is kept valid across the critical section — append-only vectors,
//! insert-only maps, single-word updates — a panicked worker thread must not
//! cascade `PoisonError` panics through `Cluster::drive`, so those sites
//! adopt the state behind the poisoned lock instead of unwrapping.

use std::sync::PoisonError;

/// Recovers the guard from a possibly-poisoned lock acquisition. Only use at
/// sites where the guarded state is valid regardless of where a previous
/// holder panicked.
#[inline]
pub fn unpoison<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(|e| e.into_inner())
}
