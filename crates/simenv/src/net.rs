//! The SSL cost model.
//!
//! The paper's security work (refs \[20\], \[31\]) quantifies the cost of running
//! skeleton communications over secure channels: a connection-setup
//! (handshake, key exchange) cost plus a per-byte encryption overhead.
//! Our managers only need the *relative* effect — how much of a worker's
//! time goes to securing its task traffic — so the model is:
//!
//! * `handshake` seconds, paid once when a channel is secured;
//! * a per-task communication cost of `plain_comm` seconds on a plain
//!   channel, multiplied by `ssl_factor` on a secured one.

use serde::{Deserialize, Serialize};

/// Communication cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SslCostModel {
    /// One-off channel-securing cost, seconds.
    pub handshake: f64,
    /// Per-task communication time on a plain channel, seconds.
    pub plain_comm: f64,
    /// Multiplier applied to `plain_comm` when the channel is secured
    /// (> 1; the paper's measurements put symmetric encryption overhead at
    /// a small integer factor for LAN-sized messages).
    pub ssl_factor: f64,
}

impl Default for SslCostModel {
    fn default() -> Self {
        Self {
            handshake: 0.5,
            plain_comm: 0.05,
            ssl_factor: 3.0,
        }
    }
}

impl SslCostModel {
    /// A model with no communication costs at all (pure-compute studies).
    pub fn free() -> Self {
        Self {
            handshake: 0.0,
            plain_comm: 0.0,
            ssl_factor: 1.0,
        }
    }

    /// A model calibrated against the real distributed substrate
    /// (`bskel-net`) on loopback TCP: the `net_farm` bench measures the
    /// toy secure channel's key-stretch handshake at ~0.36 ms, against
    /// ~3 µs/task of plain loopback wire time for 8-byte payloads (see
    /// `BENCH_net_farm.json` and EXPERIMENTS.md NET1). Its four-lane
    /// keystream cipher costs ~1.5 ns/byte under load
    /// (`net.cipher_ns_per_byte` on `bskel-perf`'s `pool_bulk_secure`,
    /// traced). The `Default` model keeps
    /// the paper's WAN/grid-scale magnitudes, where channel setup
    /// dominates; this one is the measured LAN regime, where securing
    /// small messages is nearly free and the simulator should predict
    /// accordingly.
    pub fn calibrated_loopback() -> Self {
        Self {
            handshake: 3.6e-4,
            plain_comm: 3.0e-6,
            // 48 wire bytes/task * 1.5 ns/byte ≈ 0.07 µs of cipher on
            // top of ~3 µs of plain comm.
            ssl_factor: 1.024,
        }
    }

    /// Per-task communication time over a channel.
    pub fn per_task(&self, secured: bool) -> f64 {
        if secured {
            self.plain_comm * self.ssl_factor
        } else {
            self.plain_comm
        }
    }

    /// Extra seconds per task a secured channel costs over a plain one.
    pub fn per_task_overhead(&self) -> f64 {
        self.per_task(true) - self.per_task(false)
    }

    /// Validates parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.handshake < 0.0 || self.plain_comm < 0.0 {
            return Err("negative communication cost".into());
        }
        if self.ssl_factor < 1.0 {
            return Err(format!(
                "ssl_factor must be >= 1 (secured cannot be cheaper), got {}",
                self.ssl_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_valid() {
        let m = SslCostModel::default();
        assert!(m.validate().is_ok());
        assert!(m.per_task(true) > m.per_task(false));
    }

    #[test]
    fn per_task_costs() {
        let m = SslCostModel {
            handshake: 1.0,
            plain_comm: 0.1,
            ssl_factor: 4.0,
        };
        assert!((m.per_task(false) - 0.1).abs() < 1e-12);
        assert!((m.per_task(true) - 0.4).abs() < 1e-12);
        assert!((m.per_task_overhead() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn calibrated_model_is_valid_and_cheap() {
        let m = SslCostModel::calibrated_loopback();
        assert!(m.validate().is_ok());
        // The measured LAN regime: handshake and per-task overheads are
        // orders of magnitude below the paper-scale defaults.
        let d = SslCostModel::default();
        assert!(m.handshake < d.handshake / 100.0);
        assert!(m.per_task_overhead() < d.per_task_overhead() / 100.0);
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = SslCostModel::free();
        assert_eq!(m.per_task(true), 0.0);
        assert_eq!(m.per_task(false), 0.0);
        assert_eq!(m.handshake, 0.0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(SslCostModel {
            handshake: -1.0,
            ..SslCostModel::default()
        }
        .validate()
        .is_err());
        assert!(SslCostModel {
            ssl_factor: 0.5,
            ..SslCostModel::default()
        }
        .validate()
        .is_err());
    }
}
