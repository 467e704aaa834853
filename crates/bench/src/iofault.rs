//! Deterministic disk-fault injection for the content-addressed store.
//!
//! The simulator's fault planes (DRAM, SRAM banks, BCU, scheduler state)
//! are seedable SplitMix64 streams with a fixed draw count per decision, so
//! a fault set is a pure function of `(seed, rates)` and raising one rate
//! never perturbs another class's stream. This module extends that
//! discipline to the storage layer the [`ResultCache`](crate::cas) runs
//! on: an [`IoFaultPlan`] drives a [`FaultyDisk`] that injects
//!
//! * **torn writes** — only a prefix of the entry reaches the disk, the
//!   write still reports success (the crash-mid-write case `fsync`-less
//!   filesystems really produce);
//! * **read bit-flips** — a byte of the returned content is silently
//!   corrupted (media decay, cosmic rays);
//! * **transient `EIO`** — reads, writes, renames, or removals fail with
//!   an I/O error that would succeed on retry;
//! * **`ENOSPC`** — writes fail with "no space left on device".
//!
//! Everything the cache does to disk goes through the [`Disk`] trait —
//! [`RealDisk`] in production, [`FaultyDisk`] under chaos — so the store's
//! corruption handling (checksum validation, evict-and-recompute, the
//! health state machine) is exercised by the same code paths real faults
//! would take. Directory creation and listing are deliberately fault-free:
//! they are control-plane operations whose failure modes the store
//! surfaces at open time, not data-plane hazards.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use sm_core::SplitMix64;

/// Seedable disk-fault plan: per-operation injection probabilities plus
/// the stream seed. Rates are clamped to `[0, 1]` at draw time.
///
/// Every operation consumes a **fixed number of draws** regardless of
/// which faults fire (reads 3, writes 4, renames and removals 1), so the
/// fault pattern over an operation sequence is a pure function of the
/// seed and the sequence — the same discipline [`sm_core::FaultPlan`]
/// established for the simulator's planes. Gates therefore compare
/// [`SplitMix64::unit`] against the rate rather than calling
/// [`SplitMix64::chance`], which skips the draw at rates 0 and 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// SplitMix64 stream seed.
    pub seed: u64,
    /// Probability a write silently persists only a prefix of its bytes.
    pub torn_write_rate: f64,
    /// Probability a read returns content with one corrupted byte.
    pub read_flip_rate: f64,
    /// Probability an operation fails with a transient `EIO`.
    pub eio_rate: f64,
    /// Probability a write fails with `ENOSPC`.
    pub enospc_rate: f64,
}

impl IoFaultPlan {
    /// A plan with every rate zero (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            torn_write_rate: 0.0,
            read_flip_rate: 0.0,
            eio_rate: 0.0,
            enospc_rate: 0.0,
        }
    }

    /// A plan applying `rate` to all four fault classes — the
    /// `--io-fault-rate` knob of `smctl serve`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        IoFaultPlan {
            seed,
            torn_write_rate: rate,
            read_flip_rate: rate,
            eio_rate: rate,
            enospc_rate: rate,
        }
    }

    /// Sets the torn-write rate.
    #[must_use]
    pub fn with_torn_writes(mut self, rate: f64) -> Self {
        self.torn_write_rate = rate;
        self
    }

    /// Sets the read bit-flip rate.
    #[must_use]
    pub fn with_read_flips(mut self, rate: f64) -> Self {
        self.read_flip_rate = rate;
        self
    }

    /// Sets the transient-`EIO` rate.
    #[must_use]
    pub fn with_eio(mut self, rate: f64) -> Self {
        self.eio_rate = rate;
        self
    }

    /// Sets the `ENOSPC` rate.
    #[must_use]
    pub fn with_enospc(mut self, rate: f64) -> Self {
        self.enospc_rate = rate;
        self
    }

    /// Whether any fault class has a positive rate.
    pub fn is_active(&self) -> bool {
        self.torn_write_rate > 0.0
            || self.read_flip_rate > 0.0
            || self.eio_rate > 0.0
            || self.enospc_rate > 0.0
    }
}

/// The storage operations the content-addressed store performs, abstracted
/// so fault injection slots in under the cache rather than around it.
pub trait Disk: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the whole file at `path` as UTF-8.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Writes `contents` to `path`, replacing any existing file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn write(&self, path: &Path, contents: &str) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Lists the plain files directly under `dir` as `(name, len)` pairs,
    /// in unspecified order.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn read_dir_entries(&self, dir: &Path) -> io::Result<Vec<(String, u64)>>;
}

/// The production [`Disk`]: thin delegation to [`std::fs`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealDisk;

impl Disk for RealDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write(&self, path: &Path, contents: &str) -> io::Result<()> {
        fs::write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn read_dir_entries(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_file() {
                out.push((entry.file_name().to_string_lossy().into_owned(), meta.len()));
            }
        }
        Ok(out)
    }
}

/// Counts of faults a [`FaultyDisk`] actually injected — the observability
/// hook the storm tests assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Reads that failed with an injected `EIO`.
    pub read_eio: u64,
    /// Reads whose returned content was bit-flipped.
    pub read_flips: u64,
    /// Writes that failed with an injected `EIO` or `ENOSPC`.
    pub write_errors: u64,
    /// Writes that silently persisted only a prefix.
    pub torn_writes: u64,
}

#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    injected: InjectedFaults,
}

/// A [`Disk`] that injects the faults of an [`IoFaultPlan`] over
/// [`RealDisk`]. The RNG stream is shared across operations under a lock,
/// so concurrent callers see a single deterministic draw sequence (the
/// *interleaving* of operations is the only nondeterminism, exactly as
/// with real hardware faults).
#[derive(Debug)]
pub struct FaultyDisk {
    plan: IoFaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyDisk {
    /// Builds the faulty disk for `plan`.
    pub fn new(plan: IoFaultPlan) -> Self {
        FaultyDisk {
            plan,
            state: Mutex::new(FaultState {
                rng: SplitMix64::new(plan.seed),
                injected: InjectedFaults::default(),
            }),
        }
    }

    /// Counts of faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.state.lock().expect("fault state lock").injected
    }

    fn injected_error(what: &str) -> io::Error {
        io::Error::other(format!("injected {what}"))
    }

    /// Corrupts one ASCII byte of `s`, preserving UTF-8 validity (bytes
    /// inside multi-byte sequences are never touched).
    fn flip_byte(s: String, position_draw: u64) -> String {
        let mut bytes = s.into_bytes();
        if bytes.is_empty() {
            return String::new();
        }
        let start = (position_draw % bytes.len() as u64) as usize;
        for k in 0..bytes.len() {
            let i = (start + k) % bytes.len();
            if bytes[i] < 0x80 {
                bytes[i] ^= 0x02;
                break;
            }
        }
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

impl Disk for FaultyDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealDisk.create_dir_all(dir)
    }

    /// Three draws, always: EIO gate, flip gate, flip position.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let (eio, flip, position) = {
            let mut s = self.state.lock().expect("fault state lock");
            let eio = s.rng.unit() < self.plan.eio_rate;
            let flip = s.rng.unit() < self.plan.read_flip_rate;
            let position = s.rng.next_u64();
            if eio {
                s.injected.read_eio += 1;
            }
            (eio, flip, position)
        };
        if eio {
            return Err(Self::injected_error("EIO on read"));
        }
        let body = RealDisk.read_to_string(path)?;
        if flip {
            self.state
                .lock()
                .expect("fault state lock")
                .injected
                .read_flips += 1;
            return Ok(Self::flip_byte(body, position));
        }
        Ok(body)
    }

    /// Four draws, always: EIO gate, ENOSPC gate, torn gate, torn length.
    fn write(&self, path: &Path, contents: &str) -> io::Result<()> {
        let (eio, enospc, torn, cut_draw) = {
            let mut s = self.state.lock().expect("fault state lock");
            let eio = s.rng.unit() < self.plan.eio_rate;
            let enospc = s.rng.unit() < self.plan.enospc_rate;
            let torn = s.rng.unit() < self.plan.torn_write_rate;
            let cut = s.rng.next_u64();
            if eio || enospc {
                s.injected.write_errors += 1;
            } else if torn {
                s.injected.torn_writes += 1;
            }
            (eio, enospc, torn, cut)
        };
        if eio {
            return Err(Self::injected_error("EIO on write"));
        }
        if enospc {
            return Err(Self::injected_error("ENOSPC: no space left on device"));
        }
        if torn && !contents.is_empty() {
            // Persist a strict prefix on a char boundary and report
            // success — the silent corruption case checksums exist for.
            let mut cut = (cut_draw % contents.len() as u64) as usize;
            while !contents.is_char_boundary(cut) {
                cut -= 1;
            }
            return RealDisk.write(path, &contents[..cut]);
        }
        RealDisk.write(path, contents)
    }

    /// One draw, always: EIO gate.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let eio = {
            let mut s = self.state.lock().expect("fault state lock");
            let eio = s.rng.unit() < self.plan.eio_rate;
            if eio {
                s.injected.write_errors += 1;
            }
            eio
        };
        if eio {
            return Err(Self::injected_error("EIO on rename"));
        }
        RealDisk.rename(from, to)
    }

    /// One draw, always: EIO gate.
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let eio = {
            let mut s = self.state.lock().expect("fault state lock");
            s.rng.unit() < self.plan.eio_rate
        };
        if eio {
            return Err(Self::injected_error("EIO on remove"));
        }
        RealDisk.remove_file(path)
    }

    fn read_dir_entries(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        RealDisk.read_dir_entries(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sm-iofault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn zero_rates_are_a_passthrough() {
        let dir = tmp("passthrough");
        let disk = FaultyDisk::new(IoFaultPlan::new(7));
        let path = dir.join("x.json");
        for i in 0..50 {
            let body = format!("body-{i}");
            disk.write(&path, &body).unwrap();
            assert_eq!(disk.read_to_string(&path).unwrap(), body);
        }
        disk.remove_file(&path).unwrap();
        assert_eq!(disk.injected(), InjectedFaults::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_pattern_is_a_pure_function_of_the_seed() {
        let dir = tmp("determinism");
        let run = |seed: u64| {
            let disk = FaultyDisk::new(IoFaultPlan::uniform(seed, 0.3));
            let mut outcomes = Vec::new();
            for i in 0..64 {
                let path = dir.join(format!("d-{i}.json"));
                let wrote = disk.write(&path, "0123456789abcdef").is_ok();
                let read = disk.read_to_string(&path).map(|s| s.len()).ok();
                outcomes.push((wrote, read));
                let _ = fs::remove_file(&path);
            }
            outcomes
        };
        assert_eq!(run(42), run(42), "same seed, same fault pattern");
        assert_ne!(run(42), run(43), "different seed, different pattern");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_write_rates_always_fail_and_reads_survive() {
        let dir = tmp("writes");
        let disk = FaultyDisk::new(IoFaultPlan::new(1).with_enospc(1.0));
        let path = dir.join("w.json");
        for _ in 0..10 {
            let err = disk.write(&path, "payload").unwrap_err();
            assert!(err.to_string().contains("ENOSPC"), "{err}");
        }
        assert!(!path.exists(), "failed writes must leave nothing behind");
        assert_eq!(disk.injected().write_errors, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_persist_a_prefix_and_report_success() {
        let dir = tmp("torn");
        let disk = FaultyDisk::new(IoFaultPlan::new(5).with_torn_writes(1.0));
        let path = dir.join("t.json");
        let body = "0123456789abcdef0123456789abcdef";
        disk.write(&path, body).unwrap();
        let on_disk = fs::read_to_string(&path).unwrap();
        assert!(on_disk.len() < body.len(), "prefix only: {on_disk:?}");
        assert!(body.starts_with(&on_disk));
        assert!(disk.injected().torn_writes >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_flips_corrupt_exactly_one_byte_and_stay_utf8() {
        let dir = tmp("flip");
        let disk = FaultyDisk::new(IoFaultPlan::new(9).with_read_flips(1.0));
        let path = dir.join("f.json");
        let body = r#"{"x":3,"label":"cell"}"#;
        disk.write(&path, body).unwrap();
        let read = disk.read_to_string(&path).unwrap();
        assert_ne!(read, body, "flip must corrupt the content");
        assert_eq!(read.len(), body.len());
        let differing = read
            .bytes()
            .zip(body.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1);
        assert!(fs::read_to_string(&path).unwrap() == body, "disk untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uniform_builder_matches_field_by_field_builders() {
        let a = IoFaultPlan::uniform(3, 0.25);
        let b = IoFaultPlan::new(3)
            .with_torn_writes(0.25)
            .with_read_flips(0.25)
            .with_eio(0.25)
            .with_enospc(0.25);
        assert_eq!(a, b);
        assert!(a.is_active());
        assert!(!IoFaultPlan::new(3).is_active());
    }
}
