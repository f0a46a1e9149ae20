//! The 5-port splitter interconnect network (paper Fig. 9 / Table 1).
//!
//! Port assignments in the paper's experiments:
//!
//! | Port | Connected device |
//! |------|------------------|
//! | 1    | Linksys WRT54GL access point (behind a 20 dB pad) |
//! | 2    | wireless client (behind a 20 dB pad) |
//! | 3    | oscilloscope monitor |
//! | 4    | jammer transmitter (behind a variable attenuator) |
//! | 5    | jammer receiver |
//!
//! The network is linear and memoryless at baseband: propagating a waveform
//! from port `a` to port `b` scales its amplitude by the measured insertion
//! loss `S(a,b)`. Ports 4 and 5 are mutually isolated in the measurement
//! (the paper's table leaves those entries blank), which we model as an
//! effectively infinite loss.

use rjam_sdr::complex::Cf64;
use rjam_sdr::power::db_to_amplitude;

/// One of the five physical ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// Access point port (1).
    Ap,
    /// Wireless client port (2).
    Client,
    /// Oscilloscope/monitor port (3).
    Monitor,
    /// Jammer transmit port (4).
    JammerTx,
    /// Jammer receive port (5).
    JammerRx,
}

impl Port {
    /// All ports in numeric order.
    pub const ALL: [Port; 5] = [
        Port::Ap,
        Port::Client,
        Port::Monitor,
        Port::JammerTx,
        Port::JammerRx,
    ];

    /// Paper port number (1-5).
    pub fn number(self) -> usize {
        self.index() + 1
    }

    fn index(self) -> usize {
        match self {
            Port::Ap => 0,
            Port::Client => 1,
            Port::Monitor => 2,
            Port::JammerTx => 3,
            Port::JammerRx => 4,
        }
    }
}

/// Insertion loss used for isolated port pairs (Table 1's "-").
pub const ISOLATION_DB: f64 = 120.0;

/// The 5-port interconnect with its insertion-loss matrix.
#[derive(Clone, Debug)]
pub struct FivePortNetwork {
    /// `loss[a][b]` = insertion loss in dB from port a to port b; `None` on
    /// the diagonal and for isolated pairs.
    loss: [[Option<f64>; 5]; 5],
}

impl FivePortNetwork {
    /// The network as characterized by the paper's vector network analyzer
    /// (Table 1, values in dB; sign stored positive as a loss).
    pub fn paper_table1() -> Self {
        let x = None;
        #[rustfmt::skip]
        let loss = [
            // to:   1(Ap)       2(Client)   3(Monitor)  4(JamTx)    5(JamRx)
            /*1*/ [x,           Some(51.0), Some(25.2), Some(38.4), Some(39.3)],
            /*2*/ [Some(51.0),  x,          Some(31.7), Some(32.0), Some(32.8)],
            /*3*/ [Some(25.2),  Some(31.7), x,          Some(19.1), Some(19.9)],
            /*4*/ [Some(38.4),  Some(32.0), Some(19.1), x,          x         ],
            /*5*/ [Some(39.2),  Some(32.8), Some(19.8), x,          x         ],
        ];
        FivePortNetwork { loss }
    }

    /// Insertion loss from `from` to `to` in dB. Isolated or reflexive paths
    /// report [`ISOLATION_DB`].
    pub fn insertion_loss_db(&self, from: Port, to: Port) -> f64 {
        self.loss[from.index()][to.index()].unwrap_or(ISOLATION_DB)
    }

    /// True when Table 1 has no measurable path between the ports.
    pub fn is_isolated(&self, from: Port, to: Port) -> bool {
        self.loss[from.index()][to.index()].is_none()
    }

    /// Amplitude gain from `from` to `to` (`10^(-loss/20)`).
    pub fn path_gain(&self, from: Port, to: Port) -> f64 {
        db_to_amplitude(-self.insertion_loss_db(from, to))
    }

    /// Propagates a waveform from one port to another (new buffer).
    pub fn propagate(&self, from: Port, to: Port, waveform: &[Cf64]) -> Vec<Cf64> {
        let g = self.path_gain(from, to);
        waveform.iter().map(|s| s.scale(g)).collect()
    }

    /// VNA-style characterization: injects a unit tone at every port and
    /// measures the power arriving at every other port, returning the matrix
    /// in dB. This is what `table1_insertion_loss` prints and what the tests
    /// compare against the stored matrix.
    pub fn characterize(&self) -> [[Option<f64>; 5]; 5] {
        let tone: Vec<Cf64> = (0..256).map(|t| Cf64::from_angle(0.1 * t as f64)).collect();
        let tone_p = rjam_sdr::power::mean_power(&tone);
        let mut out = [[None; 5]; 5];
        for &a in &Port::ALL {
            for &b in &Port::ALL {
                if a == b {
                    continue;
                }
                let rx = self.propagate(a, b, &tone);
                let p = rjam_sdr::power::mean_power(&rx);
                let loss = -rjam_sdr::power::lin_to_db(p / tone_p);
                if loss < ISOLATION_DB - 1.0 {
                    out[a.index()][b.index()] = Some(loss);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let net = FivePortNetwork::paper_table1();
        assert_eq!(net.insertion_loss_db(Port::Ap, Port::Client), 51.0);
        assert_eq!(net.insertion_loss_db(Port::Ap, Port::Monitor), 25.2);
        assert_eq!(net.insertion_loss_db(Port::JammerTx, Port::Ap), 38.4);
        assert_eq!(net.insertion_loss_db(Port::JammerRx, Port::Ap), 39.2);
        // Slight VNA asymmetry preserved from the paper.
        assert_eq!(net.insertion_loss_db(Port::Ap, Port::JammerRx), 39.3);
        assert_eq!(net.insertion_loss_db(Port::Monitor, Port::JammerRx), 19.9);
        assert_eq!(net.insertion_loss_db(Port::JammerRx, Port::Monitor), 19.8);
    }

    #[test]
    fn jammer_tx_rx_isolated() {
        let net = FivePortNetwork::paper_table1();
        assert!(net.is_isolated(Port::JammerTx, Port::JammerRx));
        assert!(net.is_isolated(Port::JammerRx, Port::JammerTx));
        assert_eq!(
            net.insertion_loss_db(Port::JammerTx, Port::JammerRx),
            ISOLATION_DB
        );
        assert!(net.path_gain(Port::JammerTx, Port::JammerRx) < 1e-5);
    }

    #[test]
    fn propagate_scales_power_by_loss() {
        let net = FivePortNetwork::paper_table1();
        let tone = vec![Cf64::new(1.0, 0.0); 1000];
        let rx = net.propagate(Port::Client, Port::Ap, &tone);
        let p = rjam_sdr::power::mean_power(&rx);
        let expect = rjam_sdr::power::db_to_lin(-51.0);
        assert!((p / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn characterization_recovers_matrix() {
        let net = FivePortNetwork::paper_table1();
        let meas = net.characterize();
        for &a in &Port::ALL {
            for &b in &Port::ALL {
                if a == b {
                    continue;
                }
                let stored = if net.is_isolated(a, b) {
                    None
                } else {
                    Some(net.insertion_loss_db(a, b))
                };
                match (stored, meas[a.number() - 1][b.number() - 1]) {
                    (None, None) => {}
                    (Some(s), Some(m)) => {
                        assert!((s - m).abs() < 0.01, "{a:?}->{b:?}: {s} vs {m}")
                    }
                    other => panic!("{a:?}->{b:?}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn port_numbering() {
        assert_eq!(Port::Ap.number(), 1);
        assert_eq!(Port::JammerRx.number(), 5);
        assert_eq!(Port::ALL.len(), 5);
    }
}
