//! Blocks: header, transaction data, evidence and last commit.
//!
//! The structure follows Fig. 1 of the paper: a block has a `Header`, a
//! `Data` field with application-specific transactions, an `Evidence` list
//! and a `LastCommit` carrying the previous height's pre-commit signatures.

use serde::{Deserialize, Serialize, Value};

use crate::evidence::Evidence;
use crate::hash::{hash_fields, sha256, Hash};
use crate::merkle::simple_root;
use crate::validator::ValidatorAddress;
use crate::vote::Commit;
use xcc_sim::SimTime;

/// A raw, application-opaque transaction.
///
/// Tendermint treats transaction contents as opaque bytes; validation is the
/// application's responsibility (via ABCI).
///
/// The simulator distinguishes the in-memory payload from the *modelled wire
/// size*: applications may ship a compact host encoding while declaring the
/// byte size the transaction would have on the real JSON-RPC wire (via
/// [`RawTx::with_wire_len`]). All size accounting — mempool byte limits,
/// block-size limits, event-frame payloads — uses the wire size, so swapping
/// the host encoding never changes simulated behaviour.
///
/// # Example
///
/// ```rust
/// use xcc_tendermint::block::RawTx;
///
/// let tx = RawTx::new(vec![1, 2, 3]);
/// assert_eq!(tx.len(), 3);
/// assert!(!tx.hash().is_zero());
///
/// let modelled = RawTx::with_wire_len(vec![1, 2, 3], 120);
/// assert_eq!(modelled.len(), 120);
/// assert_eq!(modelled.as_bytes().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawTx {
    bytes: Vec<u8>,
    wire_len: usize,
    /// `sha256(bytes)`, computed once at construction.
    // xcc-lint: allow(serde-field-coverage, reason = "derived from `bytes`; recomputed on deserialization so the wire can never carry a wrong hash")
    digest: Hash,
}

impl RawTx {
    /// Wraps raw transaction bytes whose wire size equals their length.
    pub fn new(bytes: Vec<u8>) -> Self {
        let wire_len = bytes.len();
        Self::with_wire_len(bytes, wire_len)
    }

    /// Wraps a compact host payload together with the byte size the
    /// transaction occupies on the modelled wire.
    pub fn with_wire_len(bytes: Vec<u8>, wire_len: usize) -> Self {
        let digest = sha256(&bytes);
        RawTx {
            bytes,
            wire_len,
            digest,
        }
    }

    /// The transaction hash (used as its identifier, as in `tx_search`).
    pub fn hash(&self) -> Hash {
        self.digest
    }

    /// Size of the transaction in bytes on the modelled wire.
    pub fn len(&self) -> usize {
        self.wire_len
    }

    /// `true` for an empty transaction.
    pub fn is_empty(&self) -> bool {
        self.wire_len == 0
    }

    /// The raw payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for RawTx {
    fn from(bytes: Vec<u8>) -> Self {
        RawTx::new(bytes)
    }
}

impl Serialize for RawTx {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("bytes".to_string(), self.bytes.to_value()),
            ("wire_len".to_string(), self.wire_len.to_value()),
        ])
    }
}

impl Deserialize for RawTx {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct RawTx"))?;
        Ok(RawTx::with_wire_len(
            serde::de_field(m, "bytes")?,
            serde::de_field(m, "wire_len")?,
        ))
    }
}

/// Identifies a block by the hash of its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockId {
    /// Hash of the block's header.
    pub hash: Hash,
}

/// Versioning information carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Version {
    /// Block protocol version.
    pub block: u64,
    /// Application version.
    pub app: u64,
}

impl Default for Version {
    fn default() -> Self {
        Version { block: 11, app: 1 }
    }
}

/// A block header (Fig. 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Protocol versions.
    pub version: Version,
    /// Identifier of the chain this block belongs to.
    pub chain_id: String,
    /// Height of this block.
    pub height: u64,
    /// Proposal time of this block.
    pub time: SimTime,
    /// Identifier of the previous block (zero hash at height 1).
    pub last_block_id: BlockId,
    /// Hash of the previous block's commit.
    pub last_commit_hash: Hash,
    /// Merkle root of the transactions in the `Data` field.
    pub data_hash: Hash,
    /// Hash of the validator set that produced this block.
    pub validators_hash: Hash,
    /// Hash of the validator set for the next height.
    pub next_validators_hash: Hash,
    /// Hash of the consensus parameters.
    pub consensus_hash: Hash,
    /// Application state root after executing the previous block.
    pub app_hash: Hash,
    /// Root of the previous block's transaction execution results.
    pub last_results_hash: Hash,
    /// Hash of the evidence included in this block.
    pub evidence_hash: Hash,
    /// Address of the block proposer.
    pub proposer_address: ValidatorAddress,
}

impl Header {
    /// The hash of the header, which identifies the block.
    pub fn hash(&self) -> Hash {
        hash_fields(&[
            b"header",
            self.chain_id.as_bytes(),
            &self.height.to_be_bytes(),
            &self.time.as_nanos().to_be_bytes(),
            self.last_block_id.hash.as_bytes(),
            self.last_commit_hash.as_bytes(),
            self.data_hash.as_bytes(),
            self.validators_hash.as_bytes(),
            self.next_validators_hash.as_bytes(),
            self.consensus_hash.as_bytes(),
            self.app_hash.as_bytes(),
            self.last_results_hash.as_bytes(),
            self.evidence_hash.as_bytes(),
            self.proposer_address.0.as_bytes(),
        ])
    }

    /// The block identifier derived from this header.
    pub fn block_id(&self) -> BlockId {
        BlockId { hash: self.hash() }
    }
}

/// The application-specific transaction payload of a block.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Data {
    /// Transactions in proposer order.
    pub txs: Vec<RawTx>,
}

impl Data {
    /// Merkle root of the transactions.
    pub fn hash(&self) -> Hash {
        simple_root(self.txs.iter().map(|t| t.as_bytes()))
    }

    /// Total size of all transactions in bytes.
    pub fn byte_size(&self) -> usize {
        self.txs.iter().map(RawTx::len).sum()
    }
}

/// A complete block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The block header.
    pub header: Header,
    /// Transactions.
    pub data: Data,
    /// Evidence of validator misbehaviour (usually empty).
    pub evidence: Vec<Evidence>,
    /// Pre-commits for the previous block (`None` only at height 1).
    pub last_commit: Option<Commit>,
}

impl Block {
    /// The block's identifier.
    pub fn block_id(&self) -> BlockId {
        self.header.block_id()
    }

    /// Height shortcut.
    pub fn height(&self) -> u64 {
        self.header.height
    }

    /// Number of transactions in the block.
    pub fn tx_count(&self) -> usize {
        self.data.txs.len()
    }

    /// Approximate block size in bytes (transactions plus a fixed header and
    /// per-commit-signature overhead), used to enforce `max_bytes`.
    pub fn byte_size(&self) -> usize {
        const HEADER_OVERHEAD: usize = 512;
        const SIG_OVERHEAD: usize = 110;
        let commit_size = self
            .last_commit
            .as_ref()
            .map(|c| c.signatures.len() * SIG_OVERHEAD)
            .unwrap_or(0);
        HEADER_OVERHEAD + commit_size + self.data.byte_size()
    }

    /// Basic structural validation: the data hash and evidence hash in the
    /// header must match the block contents.
    pub fn validate_basic(&self) -> Result<(), BlockValidationError> {
        if self.header.data_hash != self.data.hash() {
            return Err(BlockValidationError::DataHashMismatch {
                height: self.header.height,
            });
        }
        let evidence_hash = evidence_hash(&self.evidence);
        if self.header.evidence_hash != evidence_hash {
            return Err(BlockValidationError::EvidenceHashMismatch {
                height: self.header.height,
            });
        }
        if self.header.height == 0 {
            return Err(BlockValidationError::ZeroHeight);
        }
        Ok(())
    }
}

/// Hash of an evidence list.
pub fn evidence_hash(evidence: &[Evidence]) -> Hash {
    let encoded: Vec<Vec<u8>> = evidence.iter().map(Evidence::canonical_bytes).collect();
    simple_root(encoded.iter().map(|e| e.as_slice()))
}

/// Errors detected by [`Block::validate_basic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockValidationError {
    /// The header's `DataHash` does not match the transactions.
    DataHashMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// The header's `EvidenceHash` does not match the evidence list.
    EvidenceHashMismatch {
        /// Height of the offending block.
        height: u64,
    },
    /// Blocks start at height 1; height 0 is invalid.
    ZeroHeight,
}

impl std::fmt::Display for BlockValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockValidationError::DataHashMismatch { height } => {
                write!(f, "data hash mismatch in block at height {height}")
            }
            BlockValidationError::EvidenceHashMismatch { height } => {
                write!(f, "evidence hash mismatch in block at height {height}")
            }
            BlockValidationError::ZeroHeight => write!(f, "block height must be positive"),
        }
    }
}

impl std::error::Error for BlockValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorAddress;

    fn sample_header(height: u64, data: &Data) -> Header {
        Header {
            version: Version::default(),
            chain_id: "test-chain".to_string(),
            height,
            time: SimTime::from_secs(height * 5),
            last_block_id: BlockId { hash: Hash::ZERO },
            last_commit_hash: Hash::ZERO,
            data_hash: data.hash(),
            validators_hash: Hash::ZERO,
            next_validators_hash: Hash::ZERO,
            consensus_hash: Hash::ZERO,
            app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            evidence_hash: evidence_hash(&[]),
            proposer_address: ValidatorAddress::from_name("val-0"),
        }
    }

    #[test]
    fn raw_tx_hash_identifies_contents() {
        let a = RawTx::new(vec![1, 2, 3]);
        let b = RawTx::new(vec![1, 2, 4]);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), RawTx::new(vec![1, 2, 3]).hash());
        assert_eq!(a.hash(), sha256(&[1, 2, 3]));
    }

    #[test]
    fn raw_tx_digest_stays_off_the_wire_and_is_recomputed() {
        let tx = RawTx::with_wire_len(vec![1, 2, 3], 120);
        let value = tx.to_value();
        let fields: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["bytes", "wire_len"]);
        assert_eq!(RawTx::from_value(&value).unwrap(), tx);

        // A smuggled digest is ignored: the hash always follows the bytes.
        let Value::Map(mut forged) = value else {
            unreachable!("RawTx serializes to a map")
        };
        forged.push(("digest".to_string(), Hash::ZERO.to_value()));
        forged[0].1 = vec![9u8].to_value();
        let decoded = RawTx::from_value(&Value::Map(forged)).unwrap();
        assert_eq!(decoded.hash(), sha256(&[9]));
        assert_eq!(decoded.len(), 120);
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let data = Data {
            txs: vec![RawTx::new(vec![9])],
        };
        let h1 = sample_header(1, &data);
        let mut h2 = h1.clone();
        assert_eq!(h1.hash(), h2.hash());
        h2.height = 2;
        assert_ne!(h1.hash(), h2.hash());
        let mut h3 = h1.clone();
        h3.app_hash = sha256(b"state");
        assert_ne!(h1.hash(), h3.hash());
    }

    #[test]
    fn validate_basic_accepts_consistent_block() {
        let data = Data {
            txs: vec![RawTx::new(vec![1]), RawTx::new(vec![2])],
        };
        let block = Block {
            header: sample_header(3, &data),
            data,
            evidence: vec![],
            last_commit: None,
        };
        assert!(block.validate_basic().is_ok());
        assert_eq!(block.tx_count(), 2);
        assert_eq!(block.height(), 3);
    }

    #[test]
    fn validate_basic_rejects_tampered_data() {
        let data = Data {
            txs: vec![RawTx::new(vec![1])],
        };
        let header = sample_header(3, &data);
        let tampered = Block {
            header,
            data: Data {
                txs: vec![RawTx::new(vec![99])],
            },
            evidence: vec![],
            last_commit: None,
        };
        assert!(matches!(
            tampered.validate_basic(),
            Err(BlockValidationError::DataHashMismatch { height: 3 })
        ));
    }

    #[test]
    fn validate_basic_rejects_zero_height() {
        let data = Data::default();
        let block = Block {
            header: sample_header(0, &data),
            data,
            evidence: vec![],
            last_commit: None,
        };
        assert_eq!(
            block.validate_basic(),
            Err(BlockValidationError::ZeroHeight)
        );
    }

    #[test]
    fn byte_size_grows_with_transactions() {
        let empty = Block {
            header: sample_header(1, &Data::default()),
            data: Data::default(),
            evidence: vec![],
            last_commit: None,
        };
        let data = Data {
            txs: vec![RawTx::new(vec![0u8; 1000])],
        };
        let full = Block {
            header: sample_header(1, &data),
            data,
            evidence: vec![],
            last_commit: None,
        };
        assert!(full.byte_size() >= empty.byte_size() + 1000);
    }

    #[test]
    fn validation_error_display() {
        let err = BlockValidationError::DataHashMismatch { height: 7 };
        assert!(err.to_string().contains("height 7"));
    }
}
