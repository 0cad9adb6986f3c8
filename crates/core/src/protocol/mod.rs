//! The protocol engines.
//!
//! Each engine orchestrates entity method calls in the order the paper's
//! protocol figures prescribe, and records every message (with exact
//! canonical byte sizes) into a [`crate::Transcript`] — which is how the
//! repository reproduces those figures as executable artifacts (the
//! `t1`/`t2` experiment arms) and how experiment E1 measures message
//! costs.

pub mod access;
pub mod attribute;
pub mod messages;
pub mod pseudonym;
pub mod purchase;
pub mod registration;
pub mod revocation;
pub mod transfer;

pub use access::play;
pub use attribute::obtain_attribute;
pub use pseudonym::{obtain_pseudonym, obtain_pseudonym_cut_and_choose};
pub use purchase::purchase;
pub use registration::register;
pub use revocation::{deanonymize_and_punish, AbuseEvidence};
pub use transfer::transfer;
