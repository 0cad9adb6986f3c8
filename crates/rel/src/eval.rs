//! Stateful rights enforcement: the decision procedure a compliant device
//! runs before rendering, copying or transferring.

use crate::ast::{Action, Rights};
use crate::RightsState;
use std::fmt;

/// A concrete access request evaluated against a license.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessRequest {
    /// Requested action.
    pub action: Action,
    /// Evaluation time (unix seconds).
    pub now: u64,
    /// Requesting device id.
    pub device: [u8; 32],
    /// Domain the device belongs to, if any.
    pub domain: Option<String>,
    /// Region the device reports, if any.
    pub region: Option<String>,
}

impl AccessRequest {
    /// Play request with minimal context.
    pub fn play(now: u64, device: [u8; 32]) -> Self {
        AccessRequest {
            action: Action::Play,
            now,
            device,
            domain: None,
            region: None,
        }
    }

    /// Same request with a different action.
    pub fn with_action(mut self, action: Action) -> Self {
        self.action = action;
        self
    }

    /// Sets the domain context.
    pub fn in_domain(mut self, domain: impl Into<String>) -> Self {
        self.domain = Some(domain.into());
        self
    }

    /// Sets the region context.
    pub fn in_region(mut self, region: impl Into<String>) -> Self {
        self.region = Some(region.into().to_uppercase());
        self
    }
}

/// Why a request was denied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DenyReason {
    /// The action is not granted at all.
    NotGranted(Action),
    /// The action's count is used up.
    CountExhausted(Action),
    /// Request time before the window.
    NotYetValid { from: u64, now: u64 },
    /// Request time after the window.
    Expired { until: u64, now: u64 },
    /// License bound to a different device.
    WrongDevice,
    /// License bound to a different domain (or device has none).
    WrongDomain,
    /// Region not in the allowlist (or device reports none).
    RegionBlocked,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::NotGranted(a) => write!(f, "{} not granted", a.keyword()),
            DenyReason::CountExhausted(a) => write!(f, "{} count exhausted", a.keyword()),
            DenyReason::NotYetValid { from, now } => {
                write!(f, "not valid until {from} (now {now})")
            }
            DenyReason::Expired { until, now } => write!(f, "expired at {until} (now {now})"),
            DenyReason::WrongDevice => write!(f, "license bound to a different device"),
            DenyReason::WrongDomain => write!(f, "license bound to a different domain"),
            DenyReason::RegionBlocked => write!(f, "region not permitted"),
        }
    }
}

/// Outcome of evaluating a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Allowed; the caller must then [`RightsState::consume`] the action.
    Permit,
    /// Denied with the first failing check.
    Deny(DenyReason),
}

impl Decision {
    /// True for [`Decision::Permit`].
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::Permit)
    }
}

impl Rights {
    /// Evaluates `req` against these rights and accumulated `state`.
    ///
    /// Check order (first failure wins): validity window, device binding,
    /// domain binding, region, grant/count. The order is part of the public
    /// contract: which denial a device reports depends on it.
    pub fn evaluate(&self, state: &RightsState, req: &AccessRequest) -> Decision {
        if let Some(from) = self.window.from {
            if req.now < from {
                return Decision::Deny(DenyReason::NotYetValid { from, now: req.now });
            }
        }
        if let Some(until) = self.window.until {
            if req.now > until {
                return Decision::Deny(DenyReason::Expired {
                    until,
                    now: req.now,
                });
            }
        }
        if let Some(bound) = &self.device {
            if bound != &req.device {
                return Decision::Deny(DenyReason::WrongDevice);
            }
        }
        if let Some(domain) = &self.domain {
            if req.domain.as_deref() != Some(domain.as_str()) {
                return Decision::Deny(DenyReason::WrongDomain);
            }
        }
        if !self.regions.is_empty() {
            match &req.region {
                Some(r) if self.regions.iter().any(|allowed| allowed == r) => {}
                _ => return Decision::Deny(DenyReason::RegionBlocked),
            }
        }
        let limit = self.limit(req.action);
        if limit == crate::Limit::None {
            return Decision::Deny(DenyReason::NotGranted(req.action));
        }
        if !limit.allows(state.used(req.action)) {
            return Decision::Deny(DenyReason::CountExhausted(req.action));
        }
        Decision::Permit
    }

    /// Evaluates and, on permit, consumes in one step.
    pub fn evaluate_and_consume(&self, state: &mut RightsState, req: &AccessRequest) -> Decision {
        let d = self.evaluate(state, req);
        if d.is_permit() {
            state.consume(req.action);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Limit, RightsBuilder};

    const DEV_A: [u8; 32] = [1u8; 32];
    const DEV_B: [u8; 32] = [2u8; 32];

    fn play_rights(n: u32) -> Rights {
        RightsBuilder::default().play(Limit::Count(n)).build()
    }

    #[test]
    fn count_exhaustion() {
        let r = play_rights(2);
        let mut state = RightsState::new();
        let req = AccessRequest::play(0, DEV_A);
        assert!(r.evaluate_and_consume(&mut state, &req).is_permit());
        assert!(r.evaluate_and_consume(&mut state, &req).is_permit());
        assert_eq!(
            r.evaluate_and_consume(&mut state, &req),
            Decision::Deny(DenyReason::CountExhausted(Action::Play))
        );
        // Failed attempts must not consume.
        assert_eq!(state.plays_used, 2);
    }

    #[test]
    fn not_granted_action() {
        let r = play_rights(5);
        let req = AccessRequest::play(0, DEV_A).with_action(Action::Copy);
        assert_eq!(
            r.evaluate(&RightsState::new(), &req),
            Decision::Deny(DenyReason::NotGranted(Action::Copy))
        );
    }

    #[test]
    fn window_checks_dominate() {
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .window(Some(100), Some(200))
            .build();
        let s = RightsState::new();
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(99, DEV_A)),
            Decision::Deny(DenyReason::NotYetValid { from: 100, now: 99 })
        );
        assert!(r.evaluate(&s, &AccessRequest::play(100, DEV_A)).is_permit());
        assert!(r.evaluate(&s, &AccessRequest::play(200, DEV_A)).is_permit());
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(201, DEV_A)),
            Decision::Deny(DenyReason::Expired {
                until: 200,
                now: 201
            })
        );
    }

    #[test]
    fn device_binding() {
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .device(DEV_A)
            .build();
        let s = RightsState::new();
        assert!(r.evaluate(&s, &AccessRequest::play(0, DEV_A)).is_permit());
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(0, DEV_B)),
            Decision::Deny(DenyReason::WrongDevice)
        );
    }

    #[test]
    fn domain_binding() {
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .domain("home")
            .build();
        let s = RightsState::new();
        assert!(r
            .evaluate(&s, &AccessRequest::play(0, DEV_A).in_domain("home"))
            .is_permit());
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(0, DEV_A).in_domain("work")),
            Decision::Deny(DenyReason::WrongDomain)
        );
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(0, DEV_A)),
            Decision::Deny(DenyReason::WrongDomain)
        );
    }

    #[test]
    fn region_allowlist() {
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .region("EU")
            .region("JP")
            .build();
        let s = RightsState::new();
        assert!(r
            .evaluate(&s, &AccessRequest::play(0, DEV_A).in_region("eu"))
            .is_permit());
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(0, DEV_A).in_region("US")),
            Decision::Deny(DenyReason::RegionBlocked)
        );
        assert_eq!(
            r.evaluate(&s, &AccessRequest::play(0, DEV_A)),
            Decision::Deny(DenyReason::RegionBlocked)
        );
    }

    #[test]
    fn check_order_window_before_device() {
        // Both window and device fail; window must be reported.
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .window(Some(10), None)
            .device(DEV_A)
            .build();
        assert_eq!(
            r.evaluate(&RightsState::new(), &AccessRequest::play(0, DEV_B)),
            Decision::Deny(DenyReason::NotYetValid { from: 10, now: 0 })
        );
    }

    #[test]
    fn transfers_counted_independently() {
        let r = RightsBuilder::default()
            .play(Limit::Unlimited)
            .transfer(Limit::Count(1))
            .build();
        let mut s = RightsState::new();
        let t = AccessRequest::play(0, DEV_A).with_action(Action::Transfer);
        assert!(r.evaluate_and_consume(&mut s, &t).is_permit());
        assert!(!r.evaluate_and_consume(&mut s, &t).is_permit());
        // plays unaffected
        assert!(r.evaluate(&s, &AccessRequest::play(0, DEV_A)).is_permit());
    }
}
