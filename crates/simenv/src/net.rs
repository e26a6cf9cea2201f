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

    /// Per-task communication time over a channel.
    pub(crate) fn per_task(&self, secured: bool) -> f64 {
        if secured {
            self.plain_comm * self.ssl_factor
        } else {
            self.plain_comm
        }
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
