//! Table 1 — insertion-loss matrix of the 5-port interconnect network,
//! re-measured VNA-style (tone injection at each port, power ratio at every
//! other port) from the channel model.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin table1_insertion_loss
//! ```

use rjam_bench::{figure_header, parse_args};
use rjam_channel::{FivePortNetwork, Port};

const USAGE: &str = "table1_insertion_loss";

fn main() {
    parse_args(USAGE, |_| Ok(()));
    figure_header(
        "Table 1",
        "Insertion loss values measured at the ports of the 5-port network",
        "wired interconnect of Fig. 9; '-' marks isolated/reflexive paths",
    );
    let net = FivePortNetwork::paper_table1();
    let measured = net.characterize();

    print!("{:>10}", "in \\ out");
    for p in Port::ALL {
        print!("{:>10}", p.number());
    }
    println!();
    for (i, a) in Port::ALL.iter().enumerate() {
        print!("{:>10}", a.number());
        for (j, _b) in Port::ALL.iter().enumerate() {
            match measured[i][j] {
                Some(db) => print!("{:>10}", format!("-{db:.1} dB")),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!(
        "\nPort map: 1 AP, 2 client, 3 oscilloscope/monitor, 4 jammer TX, 5 jammer RX.\n\
         The measured matrix reproduces the stored S-parameters exactly (linear network)."
    );
}
