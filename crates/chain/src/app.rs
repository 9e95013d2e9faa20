//! The Gaia-like ABCI application: accounts, bank, gas and the embedded IBC
//! module, wired into the Tendermint node via the [`Application`] trait.

use crate::account::{AccountId, AccountKeeper};
use crate::ante::{self, AnteError};
use crate::bank::BankModule;
use crate::gas;
use crate::genesis::GenesisConfig;
use crate::msg::Msg;
use crate::tx::Tx;
use xcc_ibc::height::Height;
use xcc_ibc::module::{HostContext, IbcModule};
use xcc_sim::SimTime;
use xcc_tendermint::abci::{Application, CheckTxResult, DeliverTxResult, Event};
use xcc_tendermint::block::{Header, RawTx};
use xcc_tendermint::hash::{hash_fields, Hash};

/// The account that collects transaction fees.
pub const FEE_COLLECTOR: &str = "fee-collector";

/// ABCI error code for a message that failed during execution.
pub const CODE_MSG_FAILED: u32 = 111;
/// ABCI error code for an undecodable transaction.
pub const CODE_DECODE_FAILED: u32 = 2;

/// The Gaia-like blockchain application.
///
/// It keeps two copies of the account state: the committed state used by
/// `DeliverTx`, and a check state used by `CheckTx` so that several
/// transactions from the same account (with consecutive sequences) can be
/// admitted to the mempool within one block, exactly as the Cosmos SDK does.
#[derive(Debug, Clone, PartialEq)]
pub struct GaiaApp {
    chain_id: String,
    fee_denom: String,
    accounts: AccountKeeper,
    check_accounts: AccountKeeper,
    bank: BankModule,
    ibc: IbcModule,
    height: u64,
    block_time: SimTime,
}

impl GaiaApp {
    /// Creates the application from a genesis configuration.
    pub fn from_genesis(genesis: &GenesisConfig) -> Self {
        let mut accounts = AccountKeeper::new();
        let mut bank = BankModule::new();
        accounts.get_or_create(&AccountId::new(FEE_COLLECTOR));
        for (address, coins) in &genesis.accounts {
            accounts.get_or_create(address);
            for coin in coins {
                bank.mint_coins(address, coin);
            }
        }
        GaiaApp {
            chain_id: genesis.chain_id.clone(),
            fee_denom: genesis.fee_denom.clone(),
            check_accounts: accounts.clone(),
            accounts,
            bank,
            ibc: IbcModule::new(genesis.chain_id.clone()),
            height: 0,
            block_time: SimTime::ZERO,
        }
    }

    /// The chain identifier.
    pub fn chain_id(&self) -> &str {
        &self.chain_id
    }

    /// The native fee denomination.
    pub fn fee_denom(&self) -> &str {
        &self.fee_denom
    }

    /// Current block height as seen by the application.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Current block time as seen by the application.
    pub fn block_time(&self) -> SimTime {
        self.block_time
    }

    /// The host context handed to IBC handlers.
    pub fn host_context(&self) -> HostContext {
        HostContext {
            height: Height::at(self.height),
            time: self.block_time,
        }
    }

    /// Read access to the committed account state.
    pub fn accounts(&self) -> &AccountKeeper {
        &self.accounts
    }

    /// Read access to the bank module.
    pub fn bank(&self) -> &BankModule {
        &self.bank
    }

    /// Mutable access to the bank module (genesis/test funding).
    pub fn bank_mut(&mut self) -> &mut BankModule {
        &mut self.bank
    }

    /// Read access to the IBC module.
    pub fn ibc(&self) -> &IbcModule {
        &self.ibc
    }

    /// Mutable access to the IBC module, used by the setup phase to perform
    /// the client/connection/channel handshakes directly (the paper's tool
    /// likewise automates channel setup before benchmarking).
    pub fn ibc_mut(&mut self) -> &mut IbcModule {
        &mut self.ibc
    }

    /// The committed sequence of an account, as a client querying the chain
    /// would observe it.
    pub fn account_sequence(&self, address: &AccountId) -> u64 {
        self.accounts.sequence(address)
    }

    /// The check-state sequence of an account: the sequence `CheckTx` expects
    /// on that account's next submission. It runs ahead of the committed
    /// sequence while the account's transactions sit in the mempool, and is
    /// reset to the committed sequence at every commit — which is exactly
    /// what strands a client that tracked its own continuation across a
    /// straddled commit (§V's account-sequence race).
    pub fn check_account_sequence(&self, address: &AccountId) -> u64 {
        self.check_accounts.sequence(address)
    }

    /// `CheckTx` on a decoded transaction: the ante checks against the check
    /// state. [`Application::check_tx`] decodes and then calls this; a caller
    /// that built the transaction itself (the RPC layer's
    /// `broadcast_tx_sync`) calls it directly, through
    /// [`Chain::submit_tx`](crate::chain::Chain::submit_tx), and skips the
    /// decode. Both give the same result for `tx` and `tx.encode()`.
    pub fn check_decoded(&mut self, tx: &Tx) -> CheckTxResult {
        let (code, log) = match ante::ante_handle(&mut self.check_accounts, tx) {
            Ok(()) => (0, String::new()),
            Err(err) => (err.code(), err.to_string()),
        };
        CheckTxResult {
            code,
            log,
            gas_wanted: tx.gas_limit,
            sender: tx.signer.to_string(),
            sequence: tx.sequence,
        }
    }

    /// Executes one message against the application state.
    fn execute_msg(&mut self, msg: &Msg) -> Result<Vec<Event>, String> {
        let ctx = self.host_context();
        match msg {
            Msg::BankSend { from, to, amount } => {
                self.bank
                    .transfer(from, to, amount)
                    .map_err(|e| e.to_string())?;
                Ok(vec![Event::new("transfer")
                    .with_attr("sender", from.as_str())
                    .with_attr("recipient", to.as_str())
                    .with_attr("amount", amount.to_string())])
            }
            Msg::IbcTransfer(params) => {
                let (_packet, events) = self
                    .ibc
                    .send_transfer(&ctx, &mut self.bank, params)
                    .map_err(|e| e.to_string())?;
                Ok(events)
            }
            Msg::IbcRecvPacket {
                packet,
                proof_commitment,
                proof_height,
                ..
            } => {
                let (_ack, events) = self
                    .ibc
                    .recv_packet(
                        &ctx,
                        &mut self.bank,
                        packet,
                        proof_commitment,
                        *proof_height,
                    )
                    .map_err(|e| e.to_string())?;
                Ok(events)
            }
            Msg::IbcAcknowledgement {
                packet,
                acknowledgement,
                proof_acked,
                proof_height,
                ..
            } => self
                .ibc
                .acknowledge_packet(
                    &ctx,
                    &mut self.bank,
                    packet,
                    acknowledgement,
                    proof_acked,
                    *proof_height,
                )
                .map_err(|e| e.to_string()),
            Msg::IbcTimeout {
                packet,
                proof_unreceived,
                proof_height,
                ..
            } => self
                .ibc
                .timeout_packet(
                    &ctx,
                    &mut self.bank,
                    packet,
                    proof_unreceived,
                    *proof_height,
                )
                .map_err(|e| e.to_string()),
            Msg::IbcUpdateClient {
                client_id, update, ..
            } => self
                .ibc
                .update_client(client_id, update)
                .map_err(|e| e.to_string()),
        }
    }

    fn ante_failure(err: &AnteError, gas_wanted: u64) -> DeliverTxResult {
        DeliverTxResult {
            code: err.code(),
            log: err.to_string(),
            gas_used: gas::TX_BASE_GAS.min(gas_wanted),
            gas_wanted,
            events: vec![],
        }
    }
}

impl Application for GaiaApp {
    fn check_tx(&mut self, tx: &RawTx) -> CheckTxResult {
        match Tx::decode(tx) {
            Ok(decoded) => self.check_decoded(&decoded),
            Err(e) => CheckTxResult {
                code: CODE_DECODE_FAILED,
                log: e.to_string(),
                gas_wanted: 0,
                sender: String::new(),
                sequence: 0,
            },
        }
    }

    fn begin_block(&mut self, header: &Header) {
        self.height = header.height;
        self.block_time = header.time;
    }

    fn deliver_tx(&mut self, tx: &RawTx) -> DeliverTxResult {
        let decoded = match Tx::decode(tx) {
            Ok(tx) => tx,
            Err(e) => {
                return DeliverTxResult {
                    code: CODE_DECODE_FAILED,
                    log: e.to_string(),
                    gas_used: 0,
                    gas_wanted: 0,
                    events: vec![],
                }
            }
        };
        let gas_wanted = decoded.gas_limit;

        // A failing message reverts the whole transaction, as the Cosmos SDK
        // does. Failed transactions still consume gas and block space, which
        // matters for the redundant-relay experiments. Accounts and bank are
        // small and restored from clones; the IBC state grows with traffic,
        // so it reverts through its undo journal instead.
        let accounts = self.accounts.clone();
        if let Err(err) = ante::ante_handle(&mut self.accounts, &decoded) {
            return Self::ante_failure(&err, gas_wanted);
        }
        // Fee payment to the fee collector. A failed transfer changes no
        // balance, but the sequence the ante handler consumed is given back.
        if decoded.fee.amount > 0 {
            if let Err(e) = self.bank.transfer(
                &decoded.signer,
                &AccountId::new(FEE_COLLECTOR),
                &decoded.fee,
            ) {
                self.accounts = accounts;
                return DeliverTxResult {
                    code: ante::CODE_INSUFFICIENT_FUNDS,
                    log: e.to_string(),
                    gas_used: gas::TX_BASE_GAS,
                    gas_wanted,
                    events: vec![],
                };
            }
        }

        // The failed transaction keeps its fee (relayers pay for redundant
        // deliveries, §IV-A) and its consumed account sequence, so it cannot
        // be replayed: only the message effects revert, back to this point.
        let bank = self.bank.clone();
        self.ibc.begin_tx();
        let mut events = Vec::new();
        let mut gas_used = gas::TX_BASE_GAS;
        for msg in &decoded.msgs {
            gas_used += msg.gas_cost();
            match self.execute_msg(msg) {
                Ok(mut msg_events) => {
                    events.push(Event::new("message").with_attr("action", msg.type_url()));
                    events.append(&mut msg_events);
                }
                Err(log) => {
                    self.bank = bank;
                    self.ibc.rollback_tx();
                    return DeliverTxResult {
                        code: CODE_MSG_FAILED,
                        log,
                        gas_used,
                        gas_wanted,
                        events: vec![],
                    };
                }
            }
        }
        self.ibc.commit_tx();

        DeliverTxResult {
            code: 0,
            log: String::new(),
            gas_used,
            gas_wanted,
            events,
        }
    }

    fn end_block(&mut self, _height: u64) {}

    fn commit(&mut self) -> Hash {
        // The check state is reset to the committed state after every block,
        // like resetting the CheckTx state in the SDK.
        self.check_accounts = self.accounts.clone();
        hash_fields(&[
            b"gaia-app-hash",
            self.bank.state_hash().as_bytes(),
            self.ibc.commitment_root().as_bytes(),
            &self.height.to_be_bytes(),
        ])
    }
}

/// Convenience constructor for a funded test/benchmark application.
pub fn funded_app(chain_id: &str, users: usize, balance: u128) -> GaiaApp {
    let genesis = GenesisConfig::new(chain_id)
        .with_account("relayer", balance)
        .with_funded_accounts("user", users, balance);
    GaiaApp::from_genesis(&genesis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::Coin;
    use xcc_ibc::ids::{ChannelId, PortId};
    use xcc_ibc::module::TransferParams;

    fn bank_send_tx(app: &GaiaApp, from: &str, to: &str, amount: u128, seq: u64) -> RawTx {
        let _ = app;
        Tx::new(
            from.into(),
            seq,
            vec![Msg::BankSend {
                from: from.into(),
                to: to.into(),
                amount: Coin::new("uatom", amount),
            }],
            "uatom",
        )
        .encode()
    }

    fn header_at(app: &GaiaApp, height: u64, secs: u64) -> Header {
        use xcc_tendermint::block::{BlockId, Data, Version};
        use xcc_tendermint::validator::{ValidatorAddress, ValidatorSet};
        let vals = ValidatorSet::with_equal_power(5, 10);
        Header {
            version: Version::default(),
            chain_id: app.chain_id().to_string(),
            height,
            time: SimTime::from_secs(secs),
            last_block_id: BlockId { hash: Hash::ZERO },
            last_commit_hash: Hash::ZERO,
            data_hash: Data::default().hash(),
            validators_hash: vals.hash(),
            next_validators_hash: vals.hash(),
            consensus_hash: Hash::ZERO,
            app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            evidence_hash: xcc_tendermint::block::evidence_hash(&[]),
            proposer_address: ValidatorAddress::from_name("val-0"),
        }
    }

    #[test]
    fn genesis_funds_accounts_and_creates_fee_collector() {
        let app = funded_app("chain-a", 3, 1_000);
        assert_eq!(app.bank().balance(&"user-0".into(), "uatom"), 1_000);
        assert_eq!(app.bank().balance(&"relayer".into(), "uatom"), 1_000);
        assert!(app.accounts().get(&AccountId::new(FEE_COLLECTOR)).is_some());
        assert_eq!(app.account_sequence(&"user-0".into()), 0);
    }

    #[test]
    fn check_tx_accepts_consecutive_sequences_within_a_block() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let tx0 = bank_send_tx(&app, "user-0", "relayer", 1, 0);
        let tx1 = bank_send_tx(&app, "user-0", "relayer", 1, 1);
        assert!(app.check_tx(&tx0).is_ok());
        // The check state advanced, so sequence 1 is now admissible even
        // though nothing has been committed yet.
        assert!(app.check_tx(&tx1).is_ok());
        // But replaying sequence 0 is the "account sequence mismatch" error.
        let res = app.check_tx(&tx0);
        assert_eq!(res.code, ante::CODE_SEQUENCE_MISMATCH);
        assert!(res.log.contains("account sequence mismatch"));
    }

    #[test]
    fn check_decoded_equals_check_tx_of_the_encoding() {
        let send = |signer: &str, seq: u64| {
            Tx::new(
                signer.into(),
                seq,
                vec![Msg::BankSend {
                    from: signer.into(),
                    to: "relayer".into(),
                    amount: Coin::new("uatom", 1),
                }],
                "uatom",
            )
        };
        let valid = send("user-0", 0);
        let mut forged = valid.clone();
        forged.signer = "user-1".into();
        let cases = [
            ("valid", valid.clone(), 0),
            ("forged signer", forged, ante::CODE_UNAUTHORIZED),
            (
                "wrong sequence",
                send("user-0", 3),
                ante::CODE_SEQUENCE_MISMATCH,
            ),
            (
                "empty msgs",
                Tx::new("user-0".into(), 0, vec![], "uatom"),
                ante::CODE_EMPTY_TX,
            ),
            (
                "unknown account",
                send("ghost", 0),
                ante::CODE_UNKNOWN_ACCOUNT,
            ),
            // After `valid`, the check state expects sequence 1.
            ("replayed", valid, ante::CODE_SEQUENCE_MISMATCH),
        ];
        let app = funded_app("chain-a", 2, 1_000_000);
        let (mut direct, mut decoded) = (app.clone(), app);
        for (name, tx, code) in cases {
            let result = direct.check_decoded(&tx);
            assert_eq!(result, decoded.check_tx(&tx.encode()), "{name}");
            assert_eq!(result.code, code, "{name}: {}", result.log);
            // The check state each path leaves behind is the same too.
            assert!(direct == decoded, "{name}");
        }
    }

    #[test]
    fn deliver_tx_moves_funds_charges_fees_and_bumps_sequence() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        let res = app.deliver_tx(&bank_send_tx(&app, "user-0", "relayer", 500, 0));
        assert!(res.is_ok(), "log: {}", res.log);
        assert!(res.gas_used > 0 && res.gas_used <= res.gas_wanted);
        assert!(!res.events.is_empty());
        app.end_block(1);
        app.commit();

        let fee = gas::fee_for_gas(gas::TX_BASE_GAS + gas::MSG_BANK_SEND_GAS);
        assert_eq!(app.bank().balance(&"relayer".into(), "uatom"), 1_000_500);
        assert_eq!(
            app.bank().balance(&"user-0".into(), "uatom"),
            1_000_000 - 500 - fee
        );
        assert_eq!(
            app.bank().balance(&AccountId::new(FEE_COLLECTOR), "uatom"),
            fee
        );
        assert_eq!(app.account_sequence(&"user-0".into()), 1);
    }

    #[test]
    fn deliver_tx_with_stale_sequence_fails_with_code_32() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        assert!(app
            .deliver_tx(&bank_send_tx(&app, "user-0", "relayer", 1, 0))
            .is_ok());
        let res = app.deliver_tx(&bank_send_tx(&app, "user-0", "relayer", 1, 0));
        assert_eq!(res.code, ante::CODE_SEQUENCE_MISMATCH);
    }

    #[test]
    fn failing_message_reverts_state_but_consumes_sequence_and_gas() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        // Transfer over a non-existent channel fails at the IBC layer.
        let bad = Tx::new(
            "user-0".into(),
            0,
            vec![Msg::IbcTransfer(TransferParams {
                source_port: PortId::transfer(),
                source_channel: ChannelId::with_index(0),
                denom: "uatom".into(),
                amount: 10,
                sender: "user-0".into(),
                receiver: "bob".into(),
                timeout_height: Height::at(100),
                timeout_timestamp: SimTime::ZERO,
            })],
            "uatom",
        )
        .encode();
        let res = app.deliver_tx(&bad);
        assert_eq!(res.code, CODE_MSG_FAILED);
        assert!(res.gas_used > 0);
        // Transfer effects reverted, but the fee is kept and the sequence is
        // consumed.
        let fee = gas::fee_for_gas(gas::TX_BASE_GAS + gas::MSG_TRANSFER_GAS);
        assert_eq!(
            app.bank().balance(&"user-0".into(), "uatom"),
            1_000_000 - fee
        );
        assert_eq!(app.account_sequence(&"user-0".into()), 1);
    }

    #[test]
    fn undecodable_txs_are_rejected_in_check_and_deliver() {
        let mut app = funded_app("chain-a", 1, 1_000);
        let garbage = RawTx::new(b"junk".to_vec());
        assert_eq!(app.check_tx(&garbage).code, CODE_DECODE_FAILED);
        assert_eq!(app.deliver_tx(&garbage).code, CODE_DECODE_FAILED);
    }

    #[test]
    fn commit_resets_check_state_and_changes_app_hash() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let tx0 = bank_send_tx(&app, "user-0", "relayer", 1, 0);
        assert!(app.check_tx(&tx0).is_ok());
        // Check state is ahead of committed state now; commit resets it.
        app.begin_block(&header_at(&app, 1, 5));
        let h1 = app.commit();
        assert!(
            app.check_tx(&tx0).is_ok(),
            "after reset, sequence 0 is valid again in check state"
        );

        app.begin_block(&header_at(&app, 2, 10));
        app.deliver_tx(&tx0);
        let h2 = app.commit();
        assert_ne!(h1, h2);
    }

    #[test]
    fn begin_block_updates_host_context() {
        let mut app = funded_app("chain-a", 1, 1_000);
        app.begin_block(&header_at(&app, 7, 35));
        assert_eq!(app.height(), 7);
        assert_eq!(app.block_time(), SimTime::from_secs(35));
        assert_eq!(app.host_context().height, Height::at(7));
    }
}
