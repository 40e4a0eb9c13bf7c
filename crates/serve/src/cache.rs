//! The shared parsed-circuit cache.
//!
//! Parsing QASM is per-circuit work, not per-request work. The daemon
//! interns parsed circuits behind the key `fnv1a_64(qasm)`: requests for
//! the same source share one parsed [`QuantumCircuit`]. Everything built
//! from it — `|0…0⟩`, the gate DDs, the run itself — lives in a package
//! each request owns, so no decision-diagram state crosses requests.

use crate::quota::ApiError;
use qdd_circuit::QuantumCircuit;
use qdd_core::fnv1a_64;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One interned circuit.
#[derive(Debug)]
pub struct CacheEntry {
    /// The exact QASM source this entry was parsed from. Lookups verify
    /// this against the probe before serving the entry: the 64-bit key is
    /// FNV-1a-based (non-cryptographic), and a collision — accidental or
    /// crafted — must cost a re-parse, never silently hand one tenant
    /// another tenant's circuit.
    qasm: String,
    /// The parsed circuit.
    pub circuit: QuantumCircuit,
    /// Times this entry served a request after its insertion.
    pub hits: AtomicU64,
}

/// A cache probe result.
#[derive(Debug)]
pub struct CacheOutcome {
    /// The (possibly just-parsed) entry.
    pub entry: Arc<CacheEntry>,
    /// Whether the entry existed before this request.
    pub hit: bool,
    /// The cache key, echoed in responses for observability.
    pub key: u64,
}

/// A bounded, FIFO-evicting intern table of parsed circuits.
#[derive(Debug)]
pub struct CircuitCache {
    entries: Mutex<CacheMap>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheMap {
    by_key: HashMap<u64, Arc<CacheEntry>>,
    insertion_order: VecDeque<u64>,
}

impl CircuitCache {
    /// Creates a cache holding at most `capacity` parsed circuits.
    pub fn new(capacity: usize) -> Self {
        CircuitCache {
            entries: Mutex::new(CacheMap::default()),
            capacity: capacity.max(1),
        }
    }

    /// Returns the interned circuit for `qasm`, parsing it on first sight.
    /// Parsing happens under the cache lock: concurrent first-sight
    /// requests for one circuit parse it once and the rest wait.
    pub fn get_or_build(&self, qasm: &str) -> Result<CacheOutcome, ApiError> {
        let key = fnv1a_64(qasm.as_bytes());
        let mut map = self.entries.lock().unwrap();
        // A key match alone is not identity: the key is a 64-bit FNV-1a
        // hash, so distinct sources can collide. Verify the stored source
        // byte-for-byte before serving — on mismatch this probe falls
        // through to a private parse (the resident entry keeps its slot; a
        // collision costs the colliding request a parse, never correctness
        // and never eviction).
        let mut collided = false;
        if let Some(entry) = map.by_key.get(&key) {
            if entry.qasm == qasm {
                entry.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CacheOutcome {
                    entry: entry.clone(),
                    hit: true,
                    key,
                });
            }
            collided = true;
        }
        let circuit = qdd_circuit::qasm::parse(qasm)
            .map_err(|e| ApiError::bad_request(format!("QASM parse error: {e}")))?;
        let entry = Arc::new(CacheEntry {
            qasm: qasm.to_string(),
            circuit,
            hits: AtomicU64::new(0),
        });
        if !collided {
            if map.insertion_order.len() >= self.capacity {
                if let Some(oldest) = map.insertion_order.pop_front() {
                    map.by_key.remove(&oldest);
                }
            }
            map.by_key.insert(key, entry.clone());
            map.insertion_order.push_back(key);
        }
        Ok(CacheOutcome {
            entry,
            hit: false,
            key,
        })
    }

    /// Number of cached circuits.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().by_key.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";

    #[test]
    fn repeat_requests_hit_and_share_the_circuit() {
        let cache = CircuitCache::new(4);
        let first = cache.get_or_build(BELL).unwrap();
        assert!(!first.hit);
        let second = cache.get_or_build(BELL).unwrap();
        assert!(second.hit);
        assert_eq!(first.key, second.key);
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = CircuitCache::new(1);
        cache.get_or_build(BELL).unwrap();
        let ghz = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
        cache.get_or_build(ghz).unwrap();
        assert_eq!(cache.len(), 1);
        // The bell entry was evicted; probing it again is a miss.
        assert!(!cache.get_or_build(BELL).unwrap().hit);
    }

    #[test]
    fn key_collisions_rebuild_instead_of_serving_the_wrong_circuit() {
        let cache = CircuitCache::new(4);
        let ghz = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
        cache.get_or_build(ghz).unwrap();
        // Forge a 64-bit collision: re-file the resident 3-qubit GHZ entry
        // under BELL's key, as a crafted FNV-1a collision would.
        let ghz_key = fnv1a_64(ghz.as_bytes());
        let bell_key = fnv1a_64(BELL.as_bytes());
        {
            let mut map = cache.entries.lock().unwrap();
            let forged = map.by_key.remove(&ghz_key).unwrap();
            map.by_key.insert(bell_key, forged);
        }
        // The probe's key hits the forged entry, but source verification
        // catches the mismatch: the request gets its own correctly parsed
        // circuit (2 qubits, not the resident 3) and reads as a miss.
        let outcome = cache.get_or_build(BELL).unwrap();
        assert!(!outcome.hit);
        assert_eq!(outcome.key, bell_key);
        assert_eq!(outcome.entry.circuit.num_qubits(), 2);
        // The resident (colliding) entry keeps its slot: collisions cannot
        // be used to evict another tenant's entry.
        let map = cache.entries.lock().unwrap();
        assert_eq!(map.by_key.get(&bell_key).unwrap().circuit.num_qubits(), 3);
    }

    #[test]
    fn malformed_qasm_is_a_typed_400() {
        let cache = CircuitCache::new(4);
        let err = cache
            .get_or_build("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q;\n")
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("QASM parse error"));
    }
}
