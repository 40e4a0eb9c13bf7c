//! Interactive sessions: the paper tool's step/play state machine over
//! HTTP.
//!
//! `POST /v1/sessions` opens a [`SteppableSimulation`]; `step` advances one
//! operation (returning the tool's measurement/reset *choice dialog* when
//! one opens), `play` runs to the end resolving dialogs with the
//! simulator's draw from the request's seed, and `DELETE` releases the
//! slot. Sessions hold live decision diagrams, so the store enforces the
//! `sessions` quota, runs each session under the request's quota-clamped
//! [`PackageConfig`] (the same per-tenant resource leash as batch
//! requests), and expires abandoned sessions to keep a long-lived daemon
//! bounded.
//!
//! Locking: the store-wide mutex guards only the id → session map; each
//! session carries its own mutex. A long `play` on one session therefore
//! blocks further calls on *that* session, never create/step/delete on
//! other tenants' sessions.

use crate::quota::ApiError;
use qdd_circuit::QuantumCircuit;
use qdd_core::PackageConfig;
use qdd_sim::SteppableSimulation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// How long an untouched session lives before the store may reap it.
pub const SESSION_IDLE_EXPIRY: Duration = Duration::from_secs(15 * 60);

struct Session {
    stepper: SteppableSimulation,
    last_touch: Instant,
}

/// A bounded registry of live interactive sessions.
pub struct SessionStore {
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    max_sessions: usize,
}

impl SessionStore {
    /// Creates a store admitting at most `max_sessions` live sessions.
    pub fn new(max_sessions: usize) -> Self {
        SessionStore {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Opens a session on `circuit` under `config` (already quota-clamped
    /// by the caller), returning its id. Reaps expired sessions first; a
    /// full store yields a typed 429 naming the `sessions` budget.
    pub fn create(
        &self,
        circuit: QuantumCircuit,
        config: PackageConfig,
    ) -> Result<u64, ApiError> {
        let mut sessions = self.sessions.lock().unwrap();
        let now = Instant::now();
        sessions.retain(|_, slot| match slot.try_lock() {
            Ok(s) => now.duration_since(s.last_touch) < SESSION_IDLE_EXPIRY,
            // Locked = a request is inside it right now: certainly live.
            Err(TryLockError::WouldBlock) => true,
            // Poisoned = a handler panicked mid-step; the session state is
            // suspect, so reclaim the slot.
            Err(TryLockError::Poisoned(_)) => false,
        });
        if sessions.len() >= self.max_sessions {
            return Err(ApiError::over_quota(
                "sessions",
                format!(
                    "all {} session slots are in use; DELETE one or retry later",
                    self.max_sessions
                ),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Arc::new(Mutex::new(Session {
                // `play` reseeds; before it, only certain collapses draw,
                // and no seed changes their outcome.
                stepper: SteppableSimulation::with_config(circuit, 1, config),
                last_touch: now,
            })),
        );
        Ok(id)
    }

    /// Runs `f` on the session's stepper under that session's own lock
    /// (the store lock is held only for the map lookup), refreshing its
    /// idle clock. Unknown ids yield a typed 404.
    pub fn with<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut SteppableSimulation) -> R,
    ) -> Result<R, ApiError> {
        let slot = {
            let sessions = self.sessions.lock().unwrap();
            sessions
                .get(&id)
                .cloned()
                .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?
        };
        let mut session = slot.lock().map_err(|_| ApiError {
            status: 500,
            code: "session_poisoned",
            message: format!(
                "session {id} was abandoned by a failed request; DELETE it and create a new one"
            ),
            budget: None,
        })?;
        session.last_touch = Instant::now();
        Ok(f(&mut session.stepper))
    }

    /// Closes the session, releasing its slot. Unknown ids yield 404.
    pub fn delete(&self, id: u64) -> Result<(), ApiError> {
        let mut sessions = self.sessions.lock().unwrap();
        sessions
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_circuit::library;
    use qdd_core::Limits;

    fn default_create(store: &SessionStore) -> Result<u64, ApiError> {
        store.create(library::bell(), PackageConfig::default())
    }

    #[test]
    fn slots_are_bounded_and_released_by_delete() {
        let store = SessionStore::new(2);
        let a = default_create(&store).unwrap();
        let _b = default_create(&store).unwrap();
        let err = default_create(&store).unwrap_err();
        assert_eq!(err.status, 429);
        assert_eq!(err.budget, Some("sessions"));
        store.delete(a).unwrap();
        assert!(default_create(&store).is_ok());
        assert_eq!(store.delete(999).unwrap_err().status, 404);
    }

    #[test]
    fn with_steps_the_underlying_simulation() {
        let store = SessionStore::new(4);
        let id = default_create(&store).unwrap();
        let outcome = store.with(id, |s| s.step_forward()).unwrap().unwrap();
        assert!(matches!(outcome, qdd_sim::StepOutcome::Applied { op_index: 0 }));
        assert_eq!(store.with(id, |s| s.position()).unwrap(), 1);
    }

    #[test]
    fn sessions_run_under_the_caller_clamped_budgets() {
        // A node budget too small for the entangled state: creation
        // succeeds (the |0…0⟩ chain is budget-exempt structure), and the
        // budget trips as a typed error once stepping does governed work.
        let store = SessionStore::new(4);
        let config = PackageConfig {
            limits: Limits {
                max_nodes: Some(2),
                ..Limits::default()
            },
            ..PackageConfig::default()
        };
        let id = store.create(library::ghz(8), config).unwrap();
        let result = store.with(id, |s| {
            let mut last = Ok(qdd_sim::StepOutcome::AtEnd);
            for _ in 0..16 {
                last = s.step_forward();
                if last.is_err() {
                    break;
                }
            }
            last
        });
        let err = result.unwrap().unwrap_err();
        assert!(err.to_string().contains("node"), "unexpected error: {err}");
    }

    #[test]
    fn a_busy_session_does_not_block_the_store() {
        // One thread parks inside session A's callback; create, step on
        // session B, and delete must all proceed meanwhile — the store
        // lock is not held while a session runs.
        let store = Arc::new(SessionStore::new(4));
        let a = default_create(&store).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let store2 = Arc::clone(&store);
        let holder = std::thread::spawn(move || {
            store2
                .with(a, |_| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(300));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // A's lock is now held by the holder thread.
        let start = Instant::now();
        let b = default_create(&store).unwrap();
        store.with(b, |s| s.step_forward()).unwrap().unwrap();
        store.delete(b).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "store operations blocked behind a busy session: {:?}",
            start.elapsed()
        );
        holder.join().unwrap();
    }
}
