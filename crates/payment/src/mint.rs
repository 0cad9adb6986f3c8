//! The mint: blind coin issuance against an account ledger, deposit with
//! double-spend detection, and an auditable withdrawal transcript used by
//! the unlinkability tests.
//!
//! A deposit binds the coin's serial to a 32-byte digest of the request
//! that spent it (the provider hashes serial, content id and buyer
//! pseudonym). Depositing the same serial again under the same digest is
//! a **replay** of the same purchase — answered, never credited twice —
//! while any other digest is a double spend. That makes a purchase safe
//! to resend after a lost reply or a failed license write.

use crate::{Coin, PaymentError};
use p2drm_bignum::UBig;
use p2drm_crypto::blind;
use p2drm_crypto::rng::CryptoRng;
use p2drm_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use p2drm_store::{ConcurrentKv, MemKv, ShardedKv};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock shards of the default volatile spent-serial set.
const SPENT_SHARDS: usize = 16;

/// Mint construction parameters.
#[derive(Clone, Debug)]
pub struct MintConfig {
    /// RSA modulus bits for denomination keys.
    pub key_bits: usize,
    /// Supported denominations (minor units).
    pub denominations: Vec<u64>,
}

impl Default for MintConfig {
    fn default() -> Self {
        MintConfig {
            key_bits: 512,
            denominations: vec![100, 500, 1000],
        }
    }
}

/// One entry of the mint's withdrawal transcript: everything the mint ever
/// learns at withdrawal time.
#[derive(Clone, Debug)]
pub struct WithdrawalRecord {
    /// The paying account.
    pub account: String,
    /// The denomination.
    pub denomination: u64,
    /// The blinded value the mint signed (uniformly random to the mint).
    pub blinded: UBig,
}

struct MintInner<S: ConcurrentKv> {
    keys: HashMap<u64, RsaKeyPair>,
    ledger: Mutex<HashMap<String, u64>>,
    spent: S,
    transcript: Mutex<Vec<WithdrawalRecord>>,
    deposited_total: AtomicU64,
}

/// Shareable mint handle.
pub struct Mint<S: ConcurrentKv = ShardedKv> {
    inner: Arc<MintInner<S>>,
}

impl<S: ConcurrentKv> Clone for Mint<S> {
    fn clone(&self) -> Self {
        Mint {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Mint {
    /// Creates a mint with a volatile, lock-sharded spent-serial store.
    pub fn new<R: CryptoRng + ?Sized>(config: MintConfig, rng: &mut R) -> Self {
        Self::with_store(
            config,
            ShardedKv::new_with(SPENT_SHARDS, |_| MemKv::new()),
            rng,
        )
    }
}

/// Spent-set key of a coin serial.
fn spent_key(serial: &[u8; 32]) -> [u8; 38] {
    let mut key = [0u8; 38];
    key[..6].copy_from_slice(b"spent/");
    key[6..].copy_from_slice(serial);
    key
}

impl<S: ConcurrentKv> Mint<S> {
    /// Creates a mint over a caller-provided spent-serial store (use a
    /// [`p2drm_store::WalShardedKv`] for durability across restarts).
    pub fn with_store<R: CryptoRng + ?Sized>(config: MintConfig, store: S, rng: &mut R) -> Self {
        let mut keys = HashMap::new();
        for &d in &config.denominations {
            keys.insert(d, RsaKeyPair::generate(config.key_bits, rng));
        }
        Mint {
            inner: Arc::new(MintInner {
                keys,
                ledger: Mutex::new(HashMap::new()),
                spent: store,
                transcript: Mutex::new(Vec::new()),
                deposited_total: AtomicU64::new(0),
            }),
        }
    }

    /// Public verification key for a denomination.
    pub fn public_key(&self, denomination: u64) -> Result<&RsaPublicKey, PaymentError> {
        self.inner
            .keys
            .get(&denomination)
            .map(|kp| kp.public())
            .ok_or(PaymentError::UnknownDenomination(denomination))
    }

    /// The denominations this mint issues, ascending.
    pub fn denominations(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.inner.keys.keys().copied().collect();
        d.sort_unstable();
        d
    }

    /// Credits an account (out-of-band funding).
    pub fn fund_account(&self, account: &str, amount: u64) {
        *self
            .inner
            .ledger
            .lock()
            .entry(account.to_string())
            .or_insert(0) += amount;
    }

    /// Account balance.
    pub fn balance(&self, account: &str) -> u64 {
        self.inner.ledger.lock().get(account).copied().unwrap_or(0)
    }

    /// Withdrawal: debits `account` by `denomination` and blind-signs the
    /// submitted value. The mint never sees the serial inside `blinded`.
    pub fn withdraw(
        &self,
        account: &str,
        denomination: u64,
        blinded: &UBig,
    ) -> Result<UBig, PaymentError> {
        let kp = self
            .inner
            .keys
            .get(&denomination)
            .ok_or(PaymentError::UnknownDenomination(denomination))?;
        {
            let mut ledger = self.inner.ledger.lock();
            let balance = ledger
                .get_mut(account)
                .ok_or(PaymentError::UnknownAccount)?;
            if *balance < denomination {
                return Err(PaymentError::InsufficientFunds {
                    balance: *balance,
                    requested: denomination,
                });
            }
            *balance -= denomination;
        }
        self.inner.transcript.lock().push(WithdrawalRecord {
            account: account.to_string(),
            denomination,
            blinded: blinded.clone(),
        });
        Ok(blind::blind_sign(kp, blinded)?)
    }

    /// Deposit: verifies the coin and marks its serial spent for the
    /// request `digest` identifies.
    ///
    /// Exactly one deposit per serial is ever credited — enforced by the
    /// atomic [`ConcurrentKv::insert_if_absent`] under the spent store's
    /// shard lock. A repeat under the same digest is a replay, accepted
    /// without a second credit; under any other digest it is
    /// [`PaymentError::DoubleSpend`].
    pub fn deposit(&self, coin: &Coin, digest: &[u8; 32]) -> Result<(), PaymentError> {
        self.check_coin(coin)?;
        self.spend(coin, Some(digest))
    }

    /// Signature-only half of [`Self::deposit`]: checks the coin under
    /// its denomination key without touching the spent store. Pure and
    /// side-effect free, so a caller can run it among its other checks
    /// and commit with [`Self::deposit_prechecked_for`] after all of
    /// them pass.
    pub fn check_coin(&self, coin: &Coin) -> Result<(), PaymentError> {
        let key = self.public_key(coin.denomination)?;
        if !coin.verify(key) {
            return Err(PaymentError::BadCoin);
        }
        Ok(())
    }

    /// Spent-marking half of [`Self::deposit`]. The coin's signature
    /// MUST have been validated with [`Self::check_coin`] first.
    pub fn deposit_prechecked_for(
        &self,
        coin: &Coin,
        digest: &[u8; 32],
    ) -> Result<(), PaymentError> {
        self.spend(coin, Some(digest))
    }

    /// A prechecked deposit bound to no request: every repeat of the
    /// serial is a [`PaymentError::DoubleSpend`]. It costs what
    /// [`Self::deposit_prechecked_for`] costs, which is what the
    /// benchmark's deposit replay measures it for.
    pub fn deposit_prechecked(&self, coin: &Coin) -> Result<(), PaymentError> {
        self.spend(coin, None)
    }

    fn spend(&self, coin: &Coin, digest: Option<&[u8; 32]>) -> Result<(), PaymentError> {
        let key = spent_key(&coin.serial);
        let bound: &[u8] = digest.map_or(&[], |d| d);
        if self.inner.spent.insert_if_absent(&key, bound)? {
            self.inner
                .deposited_total
                .fetch_add(coin.denomination, Ordering::Relaxed);
            Ok(())
        } else if digest.is_some() && self.inner.spent.get(&key).as_deref() == Some(bound) {
            Ok(())
        } else {
            Err(PaymentError::DoubleSpend)
        }
    }

    /// Whether `serial` was deposited for exactly the request `digest`
    /// identifies — the provider's replay check, made before any other
    /// check so a resent purchase is answered rather than refused.
    pub fn is_replay(&self, serial: &[u8; 32], digest: &[u8; 32]) -> bool {
        self.inner.spent.get(&spent_key(serial)).as_deref() == Some(&digest[..])
    }

    /// Total value deposited so far.
    pub fn deposited_total(&self) -> u64 {
        self.inner.deposited_total.load(Ordering::Relaxed)
    }

    /// Number of spent serials recorded.
    pub fn spent_count(&self) -> usize {
        self.inner.spent.len()
    }

    /// Snapshot of the withdrawal transcript (what an adversarial mint
    /// would data-mine when trying to link deposits to accounts).
    pub fn withdrawal_transcript(&self) -> Vec<WithdrawalRecord> {
        self.inner.transcript.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wallet;
    use p2drm_crypto::rng::test_rng;

    fn mint() -> Mint {
        Mint::new(MintConfig::default(), &mut test_rng(100))
    }

    #[test]
    fn fund_withdraw_deposit_cycle() {
        let m = mint();
        m.fund_account("alice", 1000);
        let mut rng = test_rng(101);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        assert_eq!(m.balance("alice"), 900);
        assert!(coin.verify(m.public_key(100).unwrap()));
        assert_eq!(m.deposit(&coin, &[1; 32]), Ok(()));
        assert_eq!(m.deposited_total(), 100);
        assert_eq!(m.spent_count(), 1);
    }

    #[test]
    fn insufficient_funds_and_unknown_account() {
        let m = mint();
        m.fund_account("bob", 50);
        let mut rng = test_rng(102);
        let mut wallet = Wallet::new();
        assert!(matches!(
            wallet.withdraw(&m, "bob", 100, &mut rng),
            Err(PaymentError::InsufficientFunds {
                balance: 50,
                requested: 100
            })
        ));
        assert!(matches!(
            wallet.withdraw(&m, "carol", 100, &mut rng),
            Err(PaymentError::UnknownAccount)
        ));
        assert!(matches!(
            wallet.withdraw(&m, "bob", 77, &mut rng),
            Err(PaymentError::UnknownDenomination(77))
        ));
    }

    #[test]
    fn double_spend_rejected() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(103);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        m.deposit(&coin, &[1; 32]).unwrap();
        assert_eq!(m.deposit(&coin, &[2; 32]), Err(PaymentError::DoubleSpend));
        assert_eq!(m.deposited_total(), 100, "second deposit adds nothing");
    }

    #[test]
    fn same_digest_replays_without_a_second_credit() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(106);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        assert!(!m.is_replay(&coin.serial, &[1; 32]));
        assert_eq!(m.deposit(&coin, &[1; 32]), Ok(()));
        assert!(m.is_replay(&coin.serial, &[1; 32]));
        assert!(!m.is_replay(&coin.serial, &[2; 32]));
        assert_eq!(m.deposit(&coin, &[1; 32]), Ok(()));
        assert_eq!(m.deposited_total(), 100, "a replay is not credited");
        assert_eq!(m.spent_count(), 1);
    }

    #[test]
    fn unbound_deposit_never_replays() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(107);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();
        m.deposit_prechecked(&coin).unwrap();
        assert_eq!(m.deposit_prechecked(&coin), Err(PaymentError::DoubleSpend));
        assert_eq!(m.deposit(&coin, &[0; 32]), Err(PaymentError::DoubleSpend));
        assert_eq!(m.deposited_total(), 100);
    }

    #[test]
    fn concurrent_double_spend_single_winner() {
        let m = mint();
        m.fund_account("alice", 100);
        let mut rng = test_rng(104);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 100, &mut rng).unwrap();

        let handles: Vec<_> = (0..8u8)
            .map(|i| {
                let m = m.clone();
                let coin = coin.clone();
                std::thread::spawn(move || m.deposit(&coin, &[i; 32]).is_ok())
            })
            .collect();
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn forged_coin_rejected() {
        let m = mint();
        let forged = Coin {
            serial: [7; 32],
            denomination: 100,
            signature: p2drm_crypto::rsa::RsaSignature::from_ubig(UBig::from_u64(12345)),
        };
        assert_eq!(m.deposit(&forged, &[0; 32]), Err(PaymentError::BadCoin));
    }

    #[test]
    fn transcript_never_contains_serial() {
        // Unlinkability witness: the serial the merchant sees at deposit
        // appears nowhere in what the mint recorded at withdrawal.
        let m = mint();
        m.fund_account("alice", 500);
        let mut rng = test_rng(105);
        let mut wallet = Wallet::new();
        let coin = wallet.withdraw(&m, "alice", 500, &mut rng).unwrap();
        for rec in m.withdrawal_transcript() {
            let blinded_bytes = rec.blinded.to_bytes_be();
            assert!(
                !p2drm_pki_free_contains(&blinded_bytes, &coin.serial),
                "serial leaked into withdrawal transcript"
            );
        }
    }

    /// Local subslice check (avoids a dependency just for the test).
    fn p2drm_pki_free_contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }
}
