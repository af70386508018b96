//! Print Tables 1 and 2 of the paper: the IRON detection and recovery
//! taxonomies.

use iron_core::taxonomy::render_table;
use iron_core::{DetectionLevel, RecoveryLevel};

fn main() {
    println!("{}", render_table::<DetectionLevel>(1));
    println!("{}", render_table::<RecoveryLevel>(2));
}
