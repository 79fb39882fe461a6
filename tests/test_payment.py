"""Ledger, channel updates through the offer book, and hop payment semantics."""

import copy
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute import payment
from tollroute.keys import KeyDirectory, KeyPair
from tollroute.payment import (
    UNPAID,
    AuditResult,
    ChannelBook,
    Counter,
    Ledger,
    PaymentError,
    audit_ledger,
    channel_id_for,
    commitment_message,
    consumer_pay_all,
    relay_process_payment,
    verify_state,
)
from tollroute.wire import ChainCommitment, Name, NodeAddr, Payment

CONSUMER = NodeAddr.parse("00-cc-00-00-00-01")
RELAY_A = NodeAddr.parse("00-cc-00-00-00-02")
RELAY_B = NodeAddr.parse("00-cc-00-00-00-03")
PRODUCER = NodeAddr.parse("00-cc-00-00-00-04")
ALL = (CONSUMER, RELAY_A, RELAY_B, PRODUCER)
TAG = (Name((b"video", b"clip")), b"\x07" * 8)
LIFETIME_US = 4_000_000


def fresh_book(balance=1_000, deposit=100):
    """A funded line of channels whose keys record their signatures in
    the ledger's key directory, as a run's keys do."""
    ledger = Ledger(KeyDirectory())
    book = ChannelBook(ledger)
    keys = {}
    for addr in ALL:
        keys[addr] = KeyPair.from_seed(addr, b"payment-tests", ledger.keys)
        ledger.keys.public[addr] = keys[addr].public
        ledger.mint(addr, balance)
    for a, b in zip(ALL, ALL[1:]):
        ledger.open_channel(a, b, deposit, deposit)
    return ledger, book, keys


# One defect per case, applied to a ledger in which CONSUMER and RELAY_A
# hold 100 each and RELAY_B holds 10: (reason, operation).
LEDGER_REFUSALS = {
    "mint-zero": ("bad-amount", lambda led: led.mint(CONSUMER, 0)),
    "same-party": ("bad-party", lambda led: led.open_channel(CONSUMER, CONSUMER, 10, 10)),
    "empty-id": ("bad-channel-id", lambda led: led.open_channel(CONSUMER, RELAY_A, 10, 10, b"")),
    "long-id": (
        "bad-channel-id", lambda led: led.open_channel(CONSUMER, RELAY_A, 10, 10, b"x" * 65)),
    "duplicate-id": (
        "duplicate-channel", lambda led: led.open_channel(RELAY_A, RELAY_B, 10, 10, b"taken")),
    "b-short": ("insufficient-funds", lambda led: led.open_channel(RELAY_A, RELAY_B, 10, 11)),
}


class TestLedger:
    @pytest.mark.parametrize("case", list(LEDGER_REFUSALS))
    def test_single_defect_is_refused_without_mutation(self, case):
        reason, operation = LEDGER_REFUSALS[case]
        ledger = Ledger(KeyDirectory())
        for addr, amount in ((CONSUMER, 100), (RELAY_A, 100), (RELAY_B, 10)):
            ledger.mint(addr, amount)
        ledger.open_channel(CONSUMER, RELAY_A, 5, 5, b"taken")
        before = (dict(ledger.accounts), dict(ledger.channels), list(ledger.log), ledger.minted)
        with pytest.raises(PaymentError) as err:
            operation(ledger)
        assert err.value.reason == reason
        assert (dict(ledger.accounts), dict(ledger.channels), ledger.log, ledger.minted) == before
        assert ledger.conserved()

    def test_open_requires_funds_and_rejects_cleanly(self):
        ledger = Ledger(KeyDirectory())
        ledger.mint(CONSUMER, 50)
        ledger.mint(RELAY_A, 50)
        with pytest.raises(PaymentError) as err:
            ledger.open_channel(CONSUMER, RELAY_A, 60, 10)
        assert err.value.reason == "insufficient-funds"
        # Nothing moved.
        assert ledger.balance(CONSUMER) == 50 and ledger.balance(RELAY_A) == 50
        assert not ledger.channels and ledger.conserved()

    def test_open_debits_both_parties(self):
        ledger = Ledger(KeyDirectory())
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        assert (state.balance_a, state.balance_b, state.sequence) == (30, 20, 0)
        assert ledger.balance(CONSUMER) == 70 and ledger.balance(RELAY_A) == 80
        assert ledger.open_pool_total() == 50 and ledger.conserved()

    def test_seq0_cooperative_close_needs_no_signatures(self):
        ledger = Ledger(KeyDirectory())
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        ledger.settle(state)
        assert ledger.balance(CONSUMER) == 100 and ledger.balance(RELAY_A) == 100
        assert ledger.conserved()

    def test_settle_twice_rejected(self):
        ledger = Ledger(KeyDirectory())
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        ledger.settle(state)
        with pytest.raises(PaymentError) as err:
            ledger.settle(state)
        assert err.value.reason == "already-settled"

    def test_settle_rejects_pool_mismatch(self):
        # A counter that pays out more than its payer put in, committed by
        # that payer, and a state that claims a larger deposit: the
        # ledger derives the balances from its own deposits, so neither
        # can take tokens the pool does not hold.
        ledger = Ledger(KeyDirectory({CONSUMER: _KEYS[CONSUMER].public}))
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        overpaid = _paid_by(CONSUMER, 0, 1, 31)(state)
        with pytest.raises(PaymentError) as err:
            ledger.settle(overpaid)
        assert err.value.reason == "conservation"
        ledger.settle(replace(state, deposit_a=40))
        assert ledger.balance(CONSUMER) == 100 and ledger.balance(RELAY_A) == 100
        assert ledger.conserved()

    def test_stale_sequence_settle_rejected(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        states = []
        for amount in (10, 5):
            offer = book.make_offer(keys[CONSUMER], cid, amount, TAG, 0, LIFETIME_US)
            states.append(book.commit_offer(keys[RELAY_A], CONSUMER, offer))
        s1, s2 = states
        # The payer replays the richer old state: it is stale.
        with pytest.raises(PaymentError) as err:
            ledger.settle(s1)
        assert err.value.reason == "stale-sequence"
        ledger.settle(s2)
        assert ledger.conserved()


def _flip(data: bytes, at: int = -1) -> bytes:
    """`data` with the low bit of byte `at` flipped."""
    at %= len(data)
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


def _drop(public, party):
    return {addr: pub for addr, pub in public.items() if addr != party}


def _with_counter(state, direction, counter):
    """`state` with the counter of `direction` replaced by `counter`."""
    paid = (counter, state.paid[1]) if direction == 0 else (state.paid[0], counter)
    return replace(state, paid=paid)


def _counter(direction, change):
    """A state change that replaces the counter of `direction` by
    `change(counter)`."""
    return lambda s: _with_counter(s, direction, change(s.paid[direction]))


def _commitment(direction, change):
    """A state change that replaces the commitment on the counter of
    `direction` by `change(commitment)`."""
    return _counter(direction, lambda c: replace(c, commitment=change(c.commitment)))


# fresh_book's keys, outside any ledger's key directory.
_KEYS = {addr: KeyPair.from_seed(addr, b"payment-tests") for addr in ALL}


def _chain(payer, cid, direction, base, length=100, signed_length=None, opened=1):
    """A chain that `payer`'s key commits to for `direction` of channel
    `cid`, from `base` and the offer at `opened`: its commitment, which
    states `signed_length` words (by default all of them), and its
    words, root first."""
    key = _KEYS[payer]
    label = b"test:" + cid + bytes([direction]) + struct.pack(">QQ", opened, base)
    words = key.hash_chain(label, length)
    signed = length if signed_length is None else signed_length
    sig = key.sign(payment.chain_label(cid, direction, opened, base, signed) + words[:32])
    return ChainCommitment(opened, base, signed, words[:32], sig), words


def _word(words, index):
    return words[32 * index : 32 * (index + 1)]


def _paid_by(payer, direction, sequence, total, short=0, word_by=None, **chain):
    """A state change: the counter of `direction` at `total`, on a chain
    `payer` commits to from 0, paid with the word `short` steps below it
    on that chain or, given `word_by`, on `word_by`'s chain the other way."""
    def change(s):
        commitment, words = _chain(payer, s.channel_id, direction, 0, **chain)
        if word_by is not None:
            words = _chain(word_by, s.channel_id, 1 - direction, 0)[1]
        counter = Counter(sequence, total, _word(words, total - short), commitment)
        return _with_counter(s, direction, counter)
    return change


def _memo(keys):
    """The signatures in a directory's memo, as (public key, message,
    signature) triples."""
    return {(p, m, s) for (p, m), s in keys._seen.items()}


def _triple(book, state, direction):
    """The memo triple of the commitment on the counter of `direction`."""
    c = state.paid[direction].commitment
    payer = (state.party_a, state.party_b)[direction]
    message = commitment_message(state.channel_id, direction, c)
    return book.ledger.keys.public[payer], message, c.sig


# One defect per case, applied to an honest committed state in which
# each party has paid the other (so each counter holds a word on its
# payer's chain: a -> b at 10, b -> a at 4) and to the public keys
# settle checks it against: (reason, state change, public keys change).
SETTLE_REFUSALS = {
    "unknown-channel": (
        "unknown-channel", lambda s: replace(s, channel_id=b"ch:nowhere"), lambda d: d),
    "bad-party": ("bad-party", lambda s: replace(s, party_b=PRODUCER), lambda d: d),
    "stale-counter": ("stale-sequence", _counter(0, lambda c: UNPAID), lambda d: d),
    # The payer reveals an earlier word of a chain at a later sequence.
    "lower-total": ("stale-sequence", _paid_by(CONSUMER, 0, 3, 9), lambda d: d),
    # A higher total, but on a chain opened before the committed one.
    "older-chain": ("stale-sequence", _paid_by(CONSUMER, 0, 3, 12, opened=0), lambda d: d),
    "overpaid": ("conservation", _counter(0, lambda c: replace(c, total=105)), lambda d: d),
    "sig_a-flipped": (
        "bad-signature", _commitment(0, lambda c: replace(c, sig=_flip(c.sig))), lambda d: d),
    "sig_b-flipped": (
        "bad-signature", _commitment(1, lambda c: replace(c, sig=_flip(c.sig))), lambda d: d),
    "root_a-flipped": (
        "bad-signature", _commitment(0, lambda c: replace(c, root=_flip(c.root))), lambda d: d),
    "word_a-flipped": (
        "bad-signature", _counter(0, lambda c: replace(c, word=_flip(c.word))), lambda d: d),
    # A commitment the payee signed, to its own chain.
    "sig_a-by-payee": ("bad-signature", _paid_by(RELAY_A, 0, 1, 10), lambda d: d),
    "word_a-from-payee-chain": (
        "bad-signature", _paid_by(CONSUMER, 0, 1, 10, word_by=RELAY_A), lambda d: d),
    "word_a-one-short": ("bad-signature", _paid_by(CONSUMER, 0, 1, 10, short=1), lambda d: d),
    # Words past the length the payer signed.
    "chain-end-crossed": (
        "bad-signature", _paid_by(CONSUMER, 0, 1, 10, length=40, signed_length=9), lambda d: d),
    "balances-not-signed": (
        "bad-signature", _counter(0, lambda c: replace(c, total=11)), lambda d: d),
    "sig_b-missing": (
        "bad-signature", _counter(1, lambda c: replace(c, commitment=None)), lambda d: d),
    "word_b-missing": ("bad-signature", _counter(1, lambda c: replace(c, word=None)), lambda d: d),
    "party-not-in-directory": (
        "bad-signature", lambda s: s, lambda d: _drop(d, CONSUMER)),
}


class TestSettleRefusals:
    """Each refusal happens while the memo holds the honest state's
    commitments, so the memo can vouch for nothing but those triples."""

    @staticmethod
    def _committed():
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for payer, payee, amount in ((CONSUMER, RELAY_A, 10), (RELAY_A, CONSUMER, 4)):
            offer = book.make_offer(keys[payer], cid, amount, TAG, 0, LIFETIME_US)
            honest = book.commit_offer(keys[payee], payer, offer)
        # Each payer's commitment to its own chain, and nothing else.
        assert _memo(ledger.keys) == {_triple(book, honest, d) for d in (0, 1)}
        return ledger, book, honest

    @pytest.mark.parametrize("case", list(SETTLE_REFUSALS))
    def test_single_defect_is_refused_without_mutation(self, case):
        reason, change_state, change_public = SETTLE_REFUSALS[case]
        ledger, book, honest = self._committed()
        accounts = dict(ledger.accounts)
        keys = ledger.keys
        trusted, keys.public = keys.public, change_public(keys.public)
        with pytest.raises(PaymentError) as err:
            ledger.settle(change_state(honest))
        keys.public = trusted
        assert err.value.reason == reason
        assert ledger.accounts == accounts and ledger.conserved()
        assert not ledger.channels[honest.channel_id].settled
        ledger.settle(honest)
        assert ledger.balance(CONSUMER) == accounts[CONSUMER] + 100 - 10 + 4

    def test_verify_state_refuses_missing_signatures_and_unknown_parties(self):
        ledger, _, honest = self._committed()
        keys = ledger.keys
        assert verify_state(honest, keys)
        for direction, (payer, payee) in enumerate(((CONSUMER, RELAY_A), (RELAY_A, CONSUMER))):
            unsigned = replace(honest.paid[direction], commitment=None)
            assert not verify_state(_with_counter(honest, direction, unsigned), keys)
            assert not verify_state(honest, KeyDirectory(_drop(keys.public, payer)))
            # Paid in one direction only, a channel needs only the payer's key.
            one_way = _with_counter(honest, 1 - direction, UNPAID)
            assert verify_state(one_way, KeyDirectory(_drop(keys.public, payee)))
        # A counter that has moved needs a committed word even at sequence 0.
        assert not verify_state(_with_counter(honest, 0, Counter(0, 10)), keys)

    def test_settle_all_reuses_the_commit_checks(self, monkeypatch):
        real = []
        monkeypatch.setattr(payment, "verify", lambda *triple: real.append(triple))
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for _ in range(3):
            offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
            book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert book.settle_all() == 3
        assert real == []
        assert ledger.balance(CONSUMER) == 970 and ledger.conserved()

    def test_channel_traffic_cannot_evict_an_idle_final_state(self, monkeypatch):
        real = []
        monkeypatch.setattr(payment, "verify", lambda *triple: real.append(triple))
        ledger, book, keys = fresh_book()
        idle = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], idle, 10, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        # One token bounces back and forth, so every payment passes the
        # end of its payer's one-word chain and signs a new commitment:
        # twice the memo's capacity in all.
        busy = ledger.open_channel(RELAY_A, RELAY_B, 1, 0, channel_id=b"busy").channel_id
        superseded = []
        for _ in range(KeyDirectory.CAPACITY):
            for payer, payee in ((RELAY_A, RELAY_B), (RELAY_B, RELAY_A)):
                offer = book.make_offer(keys[payer], busy, 1, TAG, 0, LIFETIME_US)
                assert offer.commitment is not None and offer.commitment.length == 1
                superseded.append(book.state(busy))
                book.commit_offer(keys[payee], payer, offer)
        # The memo holds the three live counters' commitments and nothing else.
        assert _memo(ledger.keys) == {
            _triple(book, book.state(idle), 0),
            _triple(book, book.state(busy), 0),
            _triple(book, book.state(busy), 1),
        }
        with pytest.raises(PaymentError) as err:
            ledger.settle(superseded[-1])
        assert err.value.reason == "stale-sequence"
        assert book.settle_all() == 4
        assert real == []
        assert ledger.conserved()


class TestChannelUpdate:
    """A channel update is an offer that its payee commits."""

    def test_update_moves_tokens_and_signs(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 25, TAG, 0, LIFETIME_US)
        nxt = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert (nxt.sequence, nxt.balance_a, nxt.balance_b) == (1, 75, 125)
        paid = nxt.paid[0]
        assert nxt.paid == (Counter(1, 25, paid.word, paid.commitment), UNPAID)
        assert (paid.commitment.base, paid.commitment.length) == (0, 100)
        # Committed by the payer only: the payee's key is not needed.
        assert _memo(ledger.keys) == {_triple(book, nxt, 0)}
        assert verify_state(nxt, KeyDirectory(_drop(ledger.keys.public, RELAY_A)))

    def test_overdraw_rejected(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        with pytest.raises(PaymentError) as err:
            book.make_offer(keys[CONSUMER], cid, book.state(cid).balance_a + 1, TAG, 0, LIFETIME_US)
        assert err.value.reason == "insufficient-funds"
        assert not book.pending and not _memo(ledger.keys)

    def test_only_party_a_can_sign(self):
        """Only party a's key moves party a's tokens: a key of neither
        party signs nothing, and a's offer does not pass as b's."""
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        with pytest.raises(PaymentError) as err:
            book.make_offer(keys[RELAY_B], cid, 5, TAG, 0, LIFETIME_US)
        assert err.value.reason == "not-a-party"
        assert not book.pending and not _memo(ledger.keys)
        offer = book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US)
        before = book.state(cid)
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[CONSUMER], RELAY_A, offer)
        assert err.value.reason == "bad-signature"
        assert book.state(cid) is before

    def test_tampered_signature_fails_verification(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US)
        nxt = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        forged = _with_counter(nxt, 0, replace(nxt.paid[0], total=6))
        assert (forged.balance_a, forged.balance_b) == (nxt.balance_a - 1, nxt.balance_b + 1)
        assert not verify_state(forged, ledger.keys)


def _rechained(payer, offer, total):
    """`offer` with a word for an a -> b total of `total` on a new chain
    that `payer`'s key commits to from the committed total of 10."""
    commitment, words = _chain(payer, offer.channel_id, 0, 10)
    return replace(offer, word=_word(words, total - 10), commitment=commitment)


# One defect per case, applied to the commit of an honest offer of 20
# from CONSUMER (party a) made after its first offer of 10 committed, so
# that it carries no commitment: (reason, (offer, first offer, the
# payer's chain words) -> (payee, payer, payment)).
COMMIT_REFUSALS = {
    "payee-not-on-channel": ("not-a-party", lambda offer, first, words: (RELAY_B, CONSUMER, offer)),
    "payer-not-on-channel": ("not-a-party", lambda offer, first, words: (RELAY_A, PRODUCER, offer)),
    "replayed": ("stale-sequence", lambda offer, first, words: (RELAY_A, CONSUMER, first)),
    "zero-amount": (
        "bad-amount",
        lambda offer, first, words: (RELAY_A, CONSUMER, replace(offer, amount=0))),
    "above-holdings": (
        "overdraw",
        lambda offer, first, words: (
            RELAY_A, CONSUMER, _rechained(CONSUMER, replace(offer, amount=91), 101)),
    ),
    # A commitment the payee signed, to its own chain.
    "signed-by-payee": (
        "bad-signature",
        lambda offer, first, words: (RELAY_A, CONSUMER, _rechained(RELAY_A, offer, 30))),
    "amount-not-signed": (
        "bad-signature",
        lambda offer, first, words: (RELAY_A, CONSUMER, replace(offer, amount=21))),
    "word-from-payee-chain": (
        "bad-signature",
        lambda offer, first, words: (RELAY_A, CONSUMER, replace(
            offer, word=_word(_chain(RELAY_A, offer.channel_id, 1, 0)[1], 30)))),
    "word-one-short": (
        "bad-signature",
        lambda offer, first, words: (RELAY_A, CONSUMER, replace(offer, word=_word(words, 29)))),
    "word-flipped": (
        "bad-signature",
        lambda offer, first, words: (RELAY_A, CONSUMER, replace(offer, word=_flip(offer.word)))),
}


class TestChannelBook:
    def test_offer_then_commit_moves_committed_state(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 15, TAG, 0, LIFETIME_US)
        assert offer.amount == 15 and offer.sequence == 1
        state = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert (state.balance_a, state.balance_b) == (85, 115)
        assert verify_state(state, book.ledger.keys)
        assert not book.pending

    def test_pending_offers_reserve_balance(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        book.make_offer(keys[CONSUMER], cid, 60, TAG, 0, LIFETIME_US)
        assert book.projected_balance(cid, CONSUMER) == 40
        with pytest.raises(PaymentError) as err:
            book.make_offer(keys[CONSUMER], cid, 41, TAG, 0, LIFETIME_US)
        assert err.value.reason == "insufficient-funds"
        book.make_offer(keys[CONSUMER], cid, 40, TAG, 0, LIFETIME_US)

    def test_serialized_offers_commit_in_order(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for expected_seq in (1, 2, 3):
            offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
            assert offer.sequence == expected_seq
            book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert book.state(cid).balance_a == 70

    def test_racing_offers_only_first_commits(self):
        # Two offers made against the same committed state: whichever
        # commits first wins; the loser's word no longer hashes to what
        # the payee reconstructs and it bounces without mutation.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        first = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        second = book.make_offer(keys[CONSUMER], cid, 10, other_tag, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, first)
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[RELAY_A], CONSUMER, second)
        assert err.value.reason == "bad-signature"
        assert book.state(cid).balance_a == 90

    def test_lost_offer_leaves_hole_without_poisoning_later_ones(self):
        # An offer that never commits (lost Interest, cancelled flow) must
        # not skew the offers made after it: each one prices the update
        # off the committed state, not off what is still pending.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        lost = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        retry = book.make_offer(keys[CONSUMER], cid, 10, other_tag, 0, LIFETIME_US)
        state = book.commit_offer(keys[RELAY_A], CONSUMER, retry)
        # Sequence hole where the lost offer sat; balances move once.
        assert state.sequence == 2 and state.balance_a == 90
        with pytest.raises(PaymentError):
            book.commit_offer(keys[RELAY_A], CONSUMER, lost)
        assert book.cancel_tag(TAG) == 1

    def test_commit_rejects_stale_and_overdraw_without_mutation(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        before = book.state(cid)
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert err.value.reason == "stale-sequence"
        assert book.state(cid) == before

    @pytest.mark.parametrize("case", list(COMMIT_REFUSALS))
    def test_single_defect_commit_is_refused_without_mutation(self, case):
        reason, change = COMMIT_REFUSALS[case]
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        first = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, first)
        offer = book.make_offer(keys[CONSUMER], cid, 20, TAG, 0, LIFETIME_US)
        assert first.commitment is not None and offer.commitment is None
        before = (book.state(cid), dict(book.pending), list(ledger.log))
        payee, payer, payment = change(offer, first, ledger.keys.chains[(cid, 0)][1])
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[payee], payer, payment)
        assert err.value.reason == reason
        assert (book.state(cid), book.pending, ledger.log) == before
        assert book.commit_offer(keys[RELAY_A], CONSUMER, offer).paid[0].total == 30

    def test_sequences_follow_a_commit_the_book_never_issued(self):
        # A payer-committed payment at sequence 7 commits although no
        # offer issued it; offers then continue above it, and a cancelled
        # offer's sequence is never issued again.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        assert book.make_offer(keys[CONSUMER], cid, 5, other_tag, 0, LIFETIME_US).sequence == 1
        assert book.cancel_tag(other_tag) == 1
        commitment, words = _chain(CONSUMER, cid, 0, 0)
        payment = Payment(cid, 10, 7, _word(words, 10), commitment)
        assert book.commit_offer(keys[RELAY_A], CONSUMER, payment).sequence == 7
        cancelled = book.make_offer(keys[CONSUMER], cid, 5, other_tag, 0, LIFETIME_US)
        assert cancelled.sequence == 8
        assert book.cancel_tag(other_tag) == 1
        offer = book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US)
        assert offer.sequence == 9
        assert book.commit_offer(keys[RELAY_A], CONSUMER, offer).paid[0] == (
            Counter(9, 15, offer.word, offer.commitment))
        assert book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US).sequence == 10

    def test_a_commit_releases_the_reservation_of_the_offer_it_removes(self):
        # The payee commits a payment the other party's book never issued,
        # at the sequence of a pending offer of its own: the offer leaves
        # the book and its own payer's reservation goes with it.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        commitment, words = _chain(RELAY_A, cid, 1, 0)
        payment = Payment(cid, 5, 1, _word(words, 5), commitment)
        state = book.commit_offer(keys[CONSUMER], RELAY_A, payment)
        assert not book.pending
        assert book.projected_balance(cid, CONSUMER) == state.balance_a == 105
        assert book.projected_balance(cid, RELAY_A) == state.balance_b == 95

    def test_offer_must_move_a_token(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        with pytest.raises(PaymentError) as err:
            book.make_offer(keys[CONSUMER], cid, 0, TAG, 0, LIFETIME_US)
        assert err.value.reason == "bad-amount"
        assert not book.pending and not _memo(ledger.keys)

    def test_commit_on_a_settled_channel_changes_nothing(self):
        # A settled channel is unknown: an offer made after the settle is
        # refused before it signs, builds a chain or reserves, and one
        # made before it no longer commits.
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        early = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        ledger.settle(ledger.channels[cid].state)

        def snapshot():
            return (dict(book.pending), dict(book.reserved), dict(ledger.keys.chains),
                    _memo(ledger.keys), list(ledger.log))

        before = snapshot()
        for attempt in (
            lambda: book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US),
            lambda: book.projected_balance(cid, CONSUMER),
            lambda: book.commit_offer(keys[RELAY_A], CONSUMER, early),
        ):
            with pytest.raises(PaymentError) as err:
                attempt()
            assert err.value.reason == "unknown-channel"
            assert snapshot() == before

    def test_payments_both_ways_settle_to_deposit_minus_paid_out_plus_paid_in(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for payer, payee, amount in ((CONSUMER, RELAY_A, 30), (RELAY_A, CONSUMER, 12),
                                     (CONSUMER, RELAY_A, 5)):
            offer = book.make_offer(keys[payer], cid, amount, TAG, 0, LIFETIME_US)
            state = book.commit_offer(keys[payee], payer, offer)
        assert [(c.sequence, c.total) for c in state.paid] == [(3, 35), (2, 12)]
        ledger.settle(state)
        assert ledger.log[-1] == {
            "op": "settle", "channel": cid.decode(), "sequence": 3,
            "balance_a": 100 - 35 + 12, "balance_b": 100 - 12 + 35,
        }
        assert ledger.balance(CONSUMER) == 900 + 77 and ledger.conserved()

    def test_opposite_offers_in_flight_both_commit(self):
        # Each pays on its own chain into its own counter, which the
        # other does not move.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        there = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        back = book.make_offer(keys[RELAY_A], cid, 4, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, there)
        state = book.commit_offer(keys[CONSUMER], RELAY_A, back)
        assert (state.sequence, state.balance_a, state.balance_b) == (2, 94, 106)

    def test_purge_expired(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, 1_000)
        assert book.purge_expired(now=999) == 0
        assert book.purge_expired(now=1_001) == 1
        assert book.projected_balance(cid, CONSUMER) == 100

    def test_settle_all_closes_everything(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert book.settle_all() == 3
        assert all(c.settled for c in ledger.channels.values())
        assert ledger.balance(CONSUMER) == 990 and ledger.balance(RELAY_A) == 1010
        assert ledger.conserved()

    def test_pending_entries_go_when_their_queue_empties(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        onward = channel_id_for(RELAY_A, RELAY_B)
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, 1_000)
        book.make_offer(keys[CONSUMER], cid, 10, other_tag, 0, 2_000)
        book.make_offer(keys[RELAY_A], onward, 5, TAG, 0, 1_000)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert {at: o.tag for at, o in book.pending.items()} == {
            (cid, 2): other_tag, (onward, 1): TAG}
        assert book.purge_expired(now=1_500) == 1
        assert list(book.pending) == [(cid, 2)]
        assert book.cancel_tag(other_tag) == 1
        assert book.pending == {}


def _tampered(offer, mutation, at, balance):
    """`offer` with one defect, or None when `mutation` does not apply:
    a one-byte flip of its word, or of its chain's root or commitment
    signature, or an amount one off that its payer could still afford."""
    c = offer.commitment
    if mutation == "word":
        return replace(offer, word=_flip(offer.word, at))
    if mutation == "root" and c is not None:
        return replace(offer, commitment=replace(c, root=_flip(c.root, at)))
    if mutation == "sig" and c is not None:
        return replace(offer, commitment=replace(c, sig=_flip(c.sig, 2 * at)))
    if mutation == "amount" and offer.amount + 1 <= balance:
        return replace(offer, amount=offer.amount + 1)
    if mutation == "amount" and offer.amount > 1:
        return replace(offer, amount=offer.amount - 1)
    return None


class TestPayWordChains:
    def test_an_offer_past_the_chain_end_needs_a_new_commitment(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        # A chain whose words run past the 15 its payer signed for.
        commitment, words = _chain(CONSUMER, cid, 0, 0, length=40, signed_length=15)
        first = Payment(cid, 10, 1, _word(words, 10), commitment)
        book.commit_offer(keys[RELAY_A], CONSUMER, first)
        before = (book.state(cid), list(ledger.log))
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[RELAY_A], CONSUMER, Payment(cid, 10, 2, _word(words, 20)))
        assert err.value.reason == "bad-signature"
        assert (book.state(cid), ledger.log) == before
        # The payer's own offer starts a chain at the committed total.
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        assert (offer.commitment.base, offer.commitment.length) == (10, 90)
        assert book.commit_offer(keys[RELAY_A], CONSUMER, offer).paid[0].total == 20

    def test_a_chain_that_runs_out_starts_again_at_the_committed_total(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        chains = []
        for payer, payee, amount in ((CONSUMER, RELAY_A, 60), (RELAY_A, CONSUMER, 50),
                                     (CONSUMER, RELAY_A, 60), (CONSUMER, RELAY_A, 20)):
            offer = book.make_offer(keys[payer], cid, amount, TAG, 0, LIFETIME_US)
            chains.append(offer.commitment and (offer.commitment.base, offer.commitment.length))
            state = book.commit_offer(keys[payee], payer, offer)
        # The consumer's first chain ends at 100, its balance.  Paid back
        # 50, it pays up to 120 on a second chain from 60, which holds
        # its balance of 90 then, and keeps that chain for the last 20.
        assert chains == [(0, 100), (0, 160), (60, 90), None]
        assert ledger.keys.chains[(cid, 0)][0] == state.paid[0].commitment
        ledger.settle(state)
        assert (ledger.log[-1]["balance_a"], ledger.log[-1]["balance_b"]) == (10, 190)

    def test_a_chain_holds_at_least_the_words_an_offer_needs(self):
        ledger, book, keys = fresh_book(balance=5_000)
        cid = ledger.open_channel(CONSUMER, PRODUCER, 3_000, 0, channel_id=b"big").channel_id
        offers = [book.make_offer(keys[CONSUMER], cid, n, TAG, 0, LIFETIME_US) for n in (2, 1_500)]
        # The first chain holds CHAIN_WORDS_MAX words; the second offer
        # passes its end and starts one long enough for itself.
        assert [(o.commitment.base, o.commitment.length) for o in offers] == [
            (0, payment.CHAIN_WORDS_MAX), (0, 1_500)]
        assert len(ledger.keys.chains[(cid, 0)][1]) == 32 * 1_501
        state = book.commit_offer(keys[PRODUCER], CONSUMER, offers[1])
        assert state.balance_b == 1_500

    def test_a_lost_commitment_rides_on_the_next_offer(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        lost = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        assert book.cancel_tag(TAG) == 1
        retry = book.make_offer(keys[CONSUMER], cid, 10, other_tag, 0, LIFETIME_US)
        assert retry.commitment == lost.commitment is not None
        book.commit_offer(keys[RELAY_A], CONSUMER, retry)
        assert book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US).commitment is None

    @staticmethod
    def _refused(ledger, book, claim, reason):
        accounts, log = dict(ledger.accounts), list(ledger.log)
        with pytest.raises(PaymentError) as err:
            ledger.settle(claim)
        assert err.value.reason == reason
        assert (ledger.accounts, ledger.log) == (accounts, log)
        assert not ledger.channels[claim.channel_id].settled

    def test_a_lost_word_is_not_settled_over_a_later_commit(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        lost = book.make_offer(keys[CONSUMER], cid, 12, TAG, 0, LIFETIME_US)
        assert book.cancel_tag(TAG) == 1
        paid = book.make_offer(keys[CONSUMER], cid, 5, other_tag, 0, LIFETIME_US)
        # The payee may hold the word of 12, so 5 is paid on a new chain.
        assert (lost.commitment.sequence, paid.commitment.sequence) == (1, 2)
        state = book.commit_offer(keys[RELAY_A], CONSUMER, paid)
        for chain, reason in ((lost.commitment, "stale-sequence"),
                              (paid.commitment, "bad-signature")):
            claim = _with_counter(state, 0, Counter(state.sequence + 1, 12, lost.word, chain))
            self._refused(ledger, book, claim, reason)
        ledger.settle(state)
        assert (ledger.log[-1]["balance_a"], ledger.log[-1]["balance_b"]) == (95, 105)

    def test_a_chain_replaced_at_the_same_base_shares_no_word(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        lost = book.make_offer(keys[CONSUMER], cid, 80, TAG, 0, LIFETIME_US)
        assert book.cancel_tag(TAG) == 1
        back = book.make_offer(keys[RELAY_A], cid, 50, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[CONSUMER], RELAY_A, back)
        offer = book.make_offer(keys[CONSUMER], cid, 120, TAG, 0, LIFETIME_US)
        # 120 passes the end of the chain (0, 100), so the consumer, now
        # holding 150, opens (0, 150).  Had both chains one secret, the
        # lost word 80, 20 below the first end, would be word 130 here.
        assert [(c.base, c.length) for c in (lost.commitment, offer.commitment)] == [
            (0, 100), (0, 150)]
        state = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        for chain, reason in ((offer.commitment, "bad-signature"),
                              (lost.commitment, "stale-sequence")):
            claim = _with_counter(state, 0, Counter(state.sequence + 1, 130, lost.word, chain))
            self._refused(ledger, book, claim, reason)
        ledger.settle(state)
        assert (ledger.log[-1]["balance_a"], ledger.log[-1]["balance_b"]) == (30, 170)


@given(
    deposits=st.tuples(st.integers(1, 2_500), st.integers(0, 2_500)),
    steps=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(1, 1_200),
            st.sampled_from(("commit", "lose", "tamper")),
            st.sampled_from(("word", "root", "sig", "amount")),
            st.integers(0, 31),
        ),
        max_size=10,
    ),
)
@settings(max_examples=40, deadline=None)
def test_honest_offers_commit_and_one_defect_is_refused(deposits, steps):
    """Random deposits and payments both ways, some lost and some
    crossing a chain's end: every honest offer commits, one defect in an
    offer is refused with nothing changed, and settling pays each party
    its deposit minus what it paid out plus what it was paid.  A lost
    offer's word settles only when no later offer in its direction
    committed, as a signature on its sequence would, or when a later
    offer revealed it again and committed it."""
    ledger, book, keys = fresh_book(balance=5_000)
    cid = ledger.open_channel(CONSUMER, RELAY_A, *deposits, channel_id=b"prop").channel_id
    parties = (CONSUMER, RELAY_A)
    paid = [0, 0]
    lost_commitment = [False, False]
    last_commit = [0, 0]
    lost = []
    for i, (direction, want, fate, mutation, at) in enumerate(steps):
        payer, payee = parties[direction], parties[1 - direction]
        amount = min(want, book.projected_balance(cid, payer))
        if amount == 0:
            continue
        tag = (Name((b"prop",)), i.to_bytes(8, "big"))
        offer = book.make_offer(keys[payer], cid, amount, tag, 0, LIFETIME_US)
        assert offer.commitment is not None or not lost_commitment[direction]
        if fate == "lose":
            lost_commitment[direction] |= offer.commitment is not None
            total = book.state(cid).paid[direction].total + amount
            chain = ledger.keys.chains[(cid, direction)][0]
            lost.append((direction, offer.sequence, Counter(0, total, offer.word, chain)))
            assert book.cancel_tag(tag) == 1
            continue
        bad = _tampered(offer, mutation, at, book.state(cid).balance(direction))
        if fate == "tamper" and bad is not None:
            before = (book.state(cid), dict(book.pending), list(ledger.log))
            with pytest.raises(PaymentError) as err:
                book.commit_offer(keys[payee], payer, bad)
            assert err.value.reason == "bad-signature"
            assert (book.state(cid), book.pending, ledger.log) == before
        book.commit_offer(keys[payee], payer, offer)
        paid[direction] += amount
        lost_commitment[direction] = False
        last_commit[direction] = offer.sequence
    assert book.pending == {}
    final = book.state(cid)
    for direction, sequence, counter in lost:
        claim = _with_counter(final, direction, replace(counter, sequence=final.sequence + 1))
        trial = copy.deepcopy(ledger)
        committed = replace(final.paid[direction], sequence=counter.sequence)
        if sequence > last_commit[direction] or counter == committed:
            trial.settle(claim)
        else:
            with pytest.raises(PaymentError) as err:
                trial.settle(claim)
            assert err.value.reason == "stale-sequence"
    ledger.settle(final)
    assert ledger.log[-1]["balance_a"] == deposits[0] - paid[0] + paid[1]
    assert ledger.log[-1]["balance_b"] == deposits[1] - paid[1] + paid[0]


def _reservations_hold(book, cids):
    """Whether the running reserved total of each payer on each channel
    is the sum of its pending offers there, and its projected balance
    its committed one less that sum."""
    for cid in cids:
        state = book.state(cid)
        for direction, payer in enumerate((state.party_a, state.party_b)):
            summed = sum(
                o.amount for (c, _), o in book.pending.items() if (c, o.direction) == (cid, direction)
            )
            if book.reserved.get((cid, direction), 0) != summed:
                return False
            if book.projected_balance(cid, payer) != state.balance(direction) - summed:
                return False
    return True


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(("offer", "commit", "tamper", "cancel", "purge")),
            st.integers(0, 1),  # channel
            st.integers(0, 1),  # direction
            st.integers(0, 120),  # amount
            st.integers(0, 2),  # flow tag
            st.integers(0, 9),  # which offer; lifetime
        ),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_running_reservation_equals_the_resummed_queue(steps):
    """Offers made, committed, refused, tampered with, cancelled and
    expired on two channels both ways: after every step each payer's
    running reserved total on each channel is the sum of its pending
    offers there, and a refused offer or commit leaves it as it was."""
    _, book, keys = fresh_book()
    cids = [channel_id_for(CONSUMER, RELAY_A), channel_id_for(RELAY_A, RELAY_B)]
    tags = [(Name((b"flow",)), bytes([t]) * 8) for t in range(3)]
    offers = []
    for now, (op, channel, direction, amount, t, pick) in enumerate(steps):
        before = dict(book.reserved)
        cid = cids[channel]
        parties = (book.state(cid).party_a, book.state(cid).party_b)
        payer = parties[direction]
        try:
            if op == "offer":
                offer = book.make_offer(keys[payer], cid, amount, tags[t], now, 1 + pick)
                offers.append((parties[1 - direction], payer, offer))
            elif op == "purge":
                book.purge_expired(now)
            elif op == "cancel":
                book.cancel_tag(tags[t])
            elif offers:
                payee, payer, offer = offers[pick % len(offers)]
                if op == "tamper":
                    offer = replace(offer, word=_flip(offer.word, pick))
                book.commit_offer(keys[payee], payer, offer)
        except PaymentError:
            assert book.reserved == before
        assert _reservations_hold(book, cids)
    for tag in tags:
        book.cancel_tag(tag)
    assert not any(book.reserved.values()) and book.pending == {}


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(("offer", "commit", "replay", "tamper", "cancel", "purge")),
            st.integers(0, 1),  # direction
            st.integers(1, 60),  # amount
            st.integers(0, 2),  # flow tag
            st.sampled_from(("word", "root", "sig", "amount")),
            st.integers(0, 31),  # which offer; lifetime; byte to flip
        ),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_every_committed_word_hashes_to_its_chain_root(steps):
    """Offers made both ways, committed in and out of order, replayed,
    tampered with, cancelled and expired: after every step each counter
    with a commitment holds a word that hashes to its chain's root in
    (total - base) steps.  So a word that hashes to the root in its own
    steps also hashes into the word the payee holds."""
    ledger, book, keys = fresh_book()
    cid = channel_id_for(CONSUMER, RELAY_A)
    parties = (CONSUMER, RELAY_A)
    tags = [(Name((b"flow",)), bytes([t]) * 8) for t in range(3)]
    offers, committed = [], []
    for now, (op, direction, amount, t, mutation, pick) in enumerate(steps):
        payer, payee = parties[direction], parties[1 - direction]
        try:
            if op == "offer":
                offer = book.make_offer(keys[payer], cid, amount, tags[t], now, 1 + pick)
                offers.append((payee, payer, offer))
            elif op == "cancel":
                book.cancel_tag(tags[t])
            elif op == "purge":
                book.purge_expired(now)
            elif op == "replay" and committed:
                book.commit_offer(*committed[pick % len(committed)])
            elif offers:
                payee, payer, offer = offers[pick % len(offers)]
                if op == "tamper":
                    state = book.state(cid)
                    balance = state.balance(state.direction(payer))
                    offer = _tampered(offer, mutation, pick, balance) or offer
                book.commit_offer(keys[payee], payer, offer)
                committed.append((keys[payee], payer, offer))
        except PaymentError:
            pass
        for counter in book.state(cid).paid:
            c = counter.commitment
            assert c is None or payment._hashes_to(counter.word, counter.total - c.base, c.root)


def test_a_commit_after_the_payer_trims_past_the_held_word_hashes_nothing(monkeypatch):
    """A lost offer trims the payer's copy of its chain past the word the
    payee holds; the next offer's word is still found on the live chain
    at its own place, so neither its commit nor settlement hashes."""
    ledger, book, keys = fresh_book()
    cid = channel_id_for(CONSUMER, RELAY_A)
    other_tag = (Name((b"other",)), b"\x01" * 8)
    first = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
    book.commit_offer(keys[RELAY_A], CONSUMER, first)
    book.make_offer(keys[CONSUMER], cid, 60, other_tag, 0, LIFETIME_US)
    assert book.cancel_tag(other_tag) == 1
    assert ledger.keys.chains[(cid, 0)][3] == 70
    offer = book.make_offer(keys[CONSUMER], cid, 65, TAG, 0, LIFETIME_US)
    assert offer.commitment is None
    steps, hashes_to = [], payment._hashes_to
    monkeypatch.setattr(payment, "_hashes_to", lambda *args: steps.append(args) or hashes_to(*args))
    state = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
    ledger.settle(state)
    assert state.paid[0].total == 75 and steps == []


def test_a_payer_keeps_only_the_unrevealed_part_of_its_chain():
    """Over a long run of small paid offers, each checked by its payee,
    the payer's copy of its live chain is never larger than twice the
    words from its highest revealed total to its end."""
    ledger, book, keys = fresh_book(balance=5_000)
    cid = ledger.open_channel(CONSUMER, PRODUCER, 3_000, 0, channel_id=b"long").channel_id
    trimmed = 0
    for _ in range(700):
        offer = book.make_offer(keys[CONSUMER], cid, 3, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[PRODUCER], CONSUMER, offer)
        commitment, words, revealed, start = ledger.keys.chains[(cid, 0)]
        end = commitment.base + commitment.length
        assert commitment.base <= start <= revealed
        assert len(words) == 32 * (end - start + 1) <= 2 * 32 * (end - revealed + 1)
        trimmed += start > commitment.base
    assert trimmed and book.state(cid).balance_b == 2_100


@given(
    length=st.integers(1, 64),
    case=st.sampled_from(("on-chain", "bit-flipped", "other-chain", "one-off", "elsewhere")),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_a_word_checked_by_its_place_answers_as_hashing(length, case, data):
    """On a payer's chain of `length` words, a word shown for any total
    is judged by the memo-first checks as hashing it to the root judges
    it, by the commit and by settlement's check alike, although the
    payer's copy may have dropped the word the payee holds.  A word the
    payer's live copy holds, shown where it holds it, is not hashed."""
    hashes_to = payment._hashes_to
    ledger, book, keys = fresh_book()
    cid = ledger.open_channel(CONSUMER, PRODUCER, length, 0, channel_id=b"memo").channel_id
    held = data.draw(st.integers(1, length), label="held")
    first = book.make_offer(keys[CONSUMER], cid, held, TAG, 0, LIFETIME_US)
    state = book.commit_offer(keys[PRODUCER], CONSUMER, first)
    # An offer made and cancelled may cut the payer's copy past the held word.
    ahead = data.draw(st.integers(0, length - held), label="ahead")
    if ahead:
        book.make_offer(keys[CONSUMER], cid, ahead, TAG, 0, LIFETIME_US)
        book.cancel_tag(TAG)
    chain = first.commitment
    label = payment.chain_label(cid, 0, chain.sequence, chain.base, chain.length)
    words = keys[CONSUMER].hash_chain(label, chain.length)
    assert chain.length == length and _word(words, 0) == chain.root

    amount = data.draw(st.integers(1, length), label="amount")
    total = held + amount
    at = min(total, length)
    if case == "one-off":
        at += -1 if at == length or data.draw(st.booleans(), label="below") else 1
    elif case == "elsewhere":
        at = data.draw(st.integers(0, length), label="at")
    word = _word(words, at)
    if case == "bit-flipped":
        word = _flip(word, data.draw(st.integers(0, 31), label="byte"))
    elif case == "other-chain":
        word = _word(_chain(CONSUMER, cid, 0, 0, length)[1], at)
    tail_first = ledger.keys.chains[(cid, 0)][3] - chain.base
    from_tail = case == "on-chain" and tail_first <= total <= length

    steps = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(payment, "_hashes_to", lambda *args: steps.append(args) or hashes_to(*args))
        expected = (
            "overdraw" if total > length
            else None if hashes_to(word, total, chain.root)
            else "bad-signature"
        )
        try:
            book.commit_offer(keys[PRODUCER], CONSUMER, Payment(cid, amount, 9, word, None))
            reason = None
        except PaymentError as err:
            reason = err.reason
        assert reason == expected
        assert not (from_tail and steps)

        shown = _with_counter(state, 0, Counter(9, total, word, chain))
        expected = total <= length and hashes_to(word, total, chain.root)
        steps.clear()
        assert payment.payer_committed(shown, 0, ledger.keys) == expected
        assert not (from_tail and steps)


def test_a_tail_answers_only_for_the_positions_it_holds():
    memo = KeyDirectory()
    slot, root = (b"ch", 0), b"r" * 32
    tail = [bytes([i]) * 32 for i in range(4)]
    # A chain of 6 words from the total 10, kept from the total 13 on:
    # its words 3 to 6 past the root.
    memo.chains[slot] = (ChainCommitment(1, 10, 6, root, bytes(64)), b"".join(tail), 13, 13)
    assert all(memo.on_chain(slot, root, 3 + i, word) for i, word in enumerate(tail))
    # Below the tail, past it, under another root and in another slot,
    # it knows nothing.
    for word in tail + [b""]:
        assert not any(memo.on_chain(slot, root, at, word) for at in (0, 1, 2, 7, 8))
        assert not memo.on_chain(slot, b"o" * 32, 3, word)
        assert not memo.on_chain((b"ch", 1), root, 3, word)


def test_a_ledger_that_never_saw_the_chain_hashes_honest_words():
    """Keys outside the ledger's directory leave it no live chain to
    look a word up in: honest offers, with a commitment and without, still
    commit, and the channel settles, by hashing alone."""
    keys = {addr: KeyPair.from_seed(addr, b"payment-tests") for addr in (CONSUMER, RELAY_A)}
    ledger = Ledger(KeyDirectory({addr: key.public for addr, key in keys.items()}))
    book = ChannelBook(ledger)
    for addr in keys:
        ledger.mint(addr, 1_000)
    cid = ledger.open_channel(CONSUMER, RELAY_A, 100, 100).channel_id
    for amount in (10, 5, 7):
        offer = book.make_offer(keys[CONSUMER], cid, amount, TAG, 0, LIFETIME_US)
        state = book.commit_offer(keys[RELAY_A], CONSUMER, offer)
    assert not ledger.keys.chains and keys[CONSUMER].memo.chains
    assert state.paid[0].total == 22 and not ledger.keys.on_chain(
        (cid, 0), state.paid[0].commitment.root, 22, state.paid[0].word)
    ledger.settle(state)
    assert ledger.balance(CONSUMER) == 1_000 - 100 + 78 and ledger.conserved()


class TestHopPayments:
    def test_relay_commits_and_forwards_remainder(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        incoming = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        kept, onward = relay_process_payment(
            book, keys[RELAY_A], CONSUMER, incoming, my_cost=5, upstream=RELAY_B, tag=TAG,
            now=0, lifetime_us=LIFETIME_US,
        )
        assert (kept, onward.amount) == (5, 5)
        assert book.state(cid).balance_b == 110
        # The onward offer is pending until the next hop commits it.
        kept_b, onward_b = relay_process_payment(
            book, keys[RELAY_B], RELAY_A, onward, my_cost=2, upstream=PRODUCER, tag=TAG,
            now=0, lifetime_us=LIFETIME_US,
        )
        assert (kept_b, onward_b.amount) == (2, 3)
        kept_p, none = relay_process_payment(
            book, keys[PRODUCER], RELAY_B, onward_b, my_cost=3, upstream=None, tag=TAG,
            now=0, lifetime_us=LIFETIME_US,
        )
        assert (kept_p, none) == (3, None)
        assert book.settle_all() == 3

    def test_underpayment_rejected_without_mutation(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        incoming = book.make_offer(keys[CONSUMER], cid, 4, TAG, 0, LIFETIME_US)
        before = book.state(cid)
        with pytest.raises(PaymentError) as err:
            relay_process_payment(
                book, keys[RELAY_A], CONSUMER, incoming, my_cost=5, upstream=RELAY_B, tag=TAG,
                now=0, lifetime_us=LIFETIME_US,
            )
        assert err.value.reason == "insufficient-payment"
        assert book.state(cid) == before

    def test_missing_payment_rejected_when_cost_nonzero(self):
        _, book, keys = fresh_book()
        with pytest.raises(PaymentError):
            relay_process_payment(
                book, keys[RELAY_A], CONSUMER, None, my_cost=5, upstream=None, tag=TAG,
                now=0, lifetime_us=LIFETIME_US,
            )

    def test_relay_that_cannot_fund_upstream_rejects_before_commit(self):
        _, book, keys = fresh_book()
        cid_up = channel_id_for(RELAY_A, RELAY_B)
        # Drain relay A's upstream balance first.
        drain = book.make_offer(keys[RELAY_A], cid_up, 100, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_B], RELAY_A, drain)
        cid_down = channel_id_for(CONSUMER, RELAY_A)
        incoming = book.make_offer(keys[CONSUMER], cid_down, 10, TAG, 0, LIFETIME_US)
        before = book.state(cid_down)
        with pytest.raises(PaymentError) as err:
            relay_process_payment(
                book, keys[RELAY_A], CONSUMER, incoming, my_cost=5, upstream=RELAY_B, tag=TAG,
                now=0, lifetime_us=LIFETIME_US,
            )
        assert err.value.reason == "insufficient-payment"
        assert book.state(cid_down) == before

    def test_exact_payment_at_producer(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(RELAY_B, PRODUCER)
        incoming = book.make_offer(keys[RELAY_B], cid, 3, TAG, 0, LIFETIME_US)
        kept, onward = relay_process_payment(
            book, keys[PRODUCER], RELAY_B, incoming, my_cost=3, upstream=None, tag=TAG,
            now=0, lifetime_us=LIFETIME_US,
        )
        assert (kept, onward) == (3, None)


class TestPayAll:
    def test_lazy_channels_and_atomic_prepay(self):
        ledger, book, keys = fresh_book(balance=1_000, deposit=100)
        recipients = [(RELAY_A, 5), (RELAY_B, 2), (PRODUCER, 3)]
        paid = [(keys[node], amount) for node, amount in recipients]
        states = consumer_pay_all(book, keys[CONSUMER], paid, TAG, 0, 50, LIFETIME_US)
        assert len(states) == 3
        # The consumer is party a of each direct channel.
        for (node, amount), state in zip(recipients, states):
            assert state.balance_b == amount
        # Direct channels opened lazily, one per recipient.
        assert all(
            channel_id_for(CONSUMER, node, kind="pay") in ledger.channels
            for node, _ in recipients
        )
        before = ledger.balance(CONSUMER)
        # Second group on the same paths reuses the channels.
        consumer_pay_all(book, keys[CONSUMER], paid, TAG, 1, 50, LIFETIME_US)
        assert ledger.balance(CONSUMER) == before
        assert ledger.conserved()

    def test_insufficient_ledger_balance_changes_nothing(self):
        ledger, book, keys = fresh_book(balance=1_000, deposit=100)
        # Lock almost everything the consumer has into an unrelated channel
        # so the three lazy 50-token fundings cannot be covered.
        ledger.open_channel(CONSUMER, RELAY_B, ledger.balance(CONSUMER) - 40, 0, b"drain")
        channels_before = set(ledger.channels)
        with pytest.raises(PaymentError) as err:
            consumer_pay_all(
                book, keys[CONSUMER],
                [(keys[RELAY_A], 5), (keys[RELAY_B], 2), (keys[PRODUCER], 3)],
                TAG, 0, 50, LIFETIME_US,
            )
        assert err.value.reason == "insufficient-funds"
        assert set(ledger.channels) == channels_before
        assert ledger.balance(CONSUMER) == 40 and ledger.conserved()


class TestConservation:
    def test_random_op_storm_conserves_tokens(self):
        # Mints, opens and settles mixed with offers both ways over the
        # open channels, each cancelled by a Nack for its flow, left to
        # expire or committed by its payee in any order, as a payee that
        # never saw the Nack would.
        rng = random.Random(4242)
        ledger, book, keys = fresh_book(balance=500)
        live = list(ledger.channels)
        tags = [(Name((b"storm",)), bytes([t]) * 8) for t in range(4)]
        offers = []
        committed = [0, 0]
        refused = {}
        for step in range(2_000):
            op = rng.random()
            try:
                if op < 0.1:
                    ledger.mint(rng.choice(ALL), rng.randrange(1, 50))
                elif op < 0.25:
                    a, b = rng.sample(ALL, 2)
                    da = rng.randrange(0, min(60, ledger.balance(a)) + 1)
                    db = rng.randrange(0, min(60, ledger.balance(b)) + 1)
                    state = ledger.open_channel(a, b, da, db, f"storm:{step}".encode())
                    live.append(state.channel_id)
                elif op < 0.6 and live:
                    cid = rng.choice(live)
                    direction = rng.randrange(2)
                    parties = (book.state(cid).party_a, book.state(cid).party_b)
                    payer, payee = parties[direction], parties[1 - direction]
                    amount, tag = rng.randrange(1, 40), rng.choice(tags)
                    offer = book.make_offer(keys[payer], cid, amount, tag, step, rng.randrange(1, 20))
                    offers.append((direction, payee, payer, offer))
                elif op < 0.8 and offers:
                    direction, payee, payer, offer = offers.pop(rng.randrange(len(offers)))
                    book.commit_offer(keys[payee], payer, offer)
                    committed[direction] += 1
                elif op < 0.87:
                    book.cancel_tag(rng.choice(tags))
                elif op < 0.93:
                    book.purge_expired(step)
                elif live:
                    ledger.settle(book.state(live.pop(rng.randrange(len(live)))))
            except PaymentError as err:
                refused[err.reason] = refused.get(err.reason, 0) + 1
            assert ledger.conserved(), f"conservation broke at step {step}"
        assert min(committed) > 100, committed
        # An open funded nothing, an offer would overdraw its payer, or a
        # commit lost a race to another one or came after its settle.
        assert set(refused) <= {
            "bad-amount", "insufficient-funds", "overdraw", "stale-sequence", "bad-signature",
            "unknown-channel",
        }
        book.settle_all()
        assert ledger.conserved()
        report = audit_ledger(ledger.log)
        assert report.ok, report.violations[:3]


class TestAudit:
    def test_clean_log_passes(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 15, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        book.settle_all()
        report = audit_ledger(ledger.log)
        assert isinstance(report, AuditResult)
        assert report.ok and report.records == len(ledger.log)

    def test_injected_theft_is_flagged(self):
        ledger, book, _ = fresh_book()
        book.settle_all()
        log = list(ledger.log)
        log.insert(5, {
            "op": "settle", "channel": "ch:bogus", "sequence": 1,
            "balance_a": 10, "balance_b": 0,
        })
        report = audit_ledger(log)
        assert not report.ok
        assert any("non-open channel" in v for v in report.violations)

    def test_balance_inflation_is_flagged(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], cid, 15, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        log = list(ledger.log)
        doctored = dict(next(r for r in log if r["op"] == "update"))
        doctored["balance_b"] += 7
        log[log.index(next(r for r in log if r["op"] == "update"))] = doctored
        report = audit_ledger(log)
        assert not report.ok
        assert any("break pool" in v for v in report.violations)


def _mint(account, amount):
    return {"op": "mint", "account": account, "amount": amount}


def _open(cid, a, b, da, db):
    return {"op": "open", "channel": cid, "party_a": a, "party_b": b,
            "deposit_a": da, "deposit_b": db}


def _update(cid, seq, ba, bb):
    return {"op": "update", "channel": cid, "sequence": seq, "balance_a": ba,
            "balance_b": bb, "payer": "a", "payee": "b", "amount": 1}


def _settle(cid, seq, ba, bb):
    return {"op": "settle", "channel": cid, "sequence": seq, "balance_a": ba, "balance_b": bb}


_FUNDED = [_mint("a", 100), _mint("b", 100), _open("ch", "a", "b", 50, 50)]

# Doctored ledger logs and the exact violations the replay reports, in
# order.  A violation that skips the rest of its record also skips that
# record's conservation check, so a settle that breaks the pool shows
# its conservation breach on the next record.
DOCTORED_LOGS = {
    "clean": (
        _FUNDED + [_update("ch", 1, 40, 60), _settle("ch", 1, 40, 60)],
        [],
    ),
    "nonpositive-mint": (
        [_mint("a", 100), _mint("b", 0), _mint("c", -5)],
        ["record 1: nonpositive mint", "record 2: nonpositive mint"],
    ),
    "overdrawn-open": (
        [_mint("a", 100), _mint("b", 100), _open("ch", "a", "b", 150, 120)],
        ["record 2: a overdrew opening ch", "record 2: b overdrew opening ch"],
    ),
    "double-open": (
        _FUNDED + [_open("ch", "a", "b", 10, 10), _update("ch", 1, 40, 60)],
        ["record 3: channel ch opened twice"],
    ),
    "update-on-closed": (
        _FUNDED + [_settle("ch", 0, 50, 50), _update("ch", 1, 40, 60),
                   _update("zz", 1, 1, 1)],
        ["record 4: update on non-open channel ch",
         "record 5: update on non-open channel zz"],
    ),
    "non-increasing-sequence": (
        _FUNDED + [_update("ch", 2, 40, 60), _update("ch", 2, 30, 70),
                   _update("ch", 1, 20, 80), _update("ch", 3, 20, 81)],
        ["record 4: sequence 2 not increasing on ch",
         "record 5: sequence 1 not increasing on ch",
         "record 6: update balances break pool on ch"],
    ),
    "settle-breaks-pool": (
        _FUNDED + [_update("ch", 1, 40, 60), _settle("ch", 1, 40, 70), _mint("c", 10)],
        ["record 4: settle balances break pool on ch",
         "record 5: accounts+pools 110 != minted 210"],
    ),
    "stale-settle": (
        _FUNDED + [_update("ch", 2, 40, 60), _settle("ch", 1, 45, 55)],
        ["record 4: settle at stale sequence 1 on ch"],
    ),
    "settle-unopened": (
        _FUNDED + [_settle("zz", 0, 0, 0)],
        ["record 3: settle on non-open channel zz"],
    ),
    # A channel id opens once, even after it settles: the second open is
    # skipped, so its deposits stay in the accounts and its settle finds
    # no open channel.
    "reopen-after-settle": (
        _FUNDED + [_settle("ch", 0, 50, 50), _mint("c", 100),
                   _open("ch", "b", "c", 0, 100), _settle("ch", 0, 0, 100),
                   _open("ch2", "c", "a", 100, 0)],
        ["record 5: channel ch opened twice", "record 6: settle on non-open channel ch"],
    ),
    # Reopened under other parties, the id once paid c's deposit to a.
    "reopen-under-other-parties": (
        [_mint("a", 10), _mint("b", 10), _mint("c", 10),
         _open("x", "a", "b", 5, 5), _settle("x", 0, 5, 5),
         _open("x", "c", "b", 5, 5), _settle("x", 0, 5, 5)],
        ["record 5: channel x opened twice", "record 6: settle on non-open channel x"],
    ),
    "unknown-op": (
        _FUNDED + [{"op": "burn", "account": "a", "amount": 5}],
        ["record 3: unknown op 'burn'"],
    ),
    # Balances that keep the pool but pay one party into the negative; a
    # settle that does so credits nobody, like one that breaks the pool.
    "negative-balance": (
        [_mint("a", 5), _mint("b", 5), _open("ch:a:b", "a", "b", 5, 5),
         _update("ch:a:b", 1, -90, 100), _settle("ch:a:b", 1, -90, 100)],
        ["record 3: update balance goes negative on ch:a:b",
         "record 4: settle balance goes negative on ch:a:b"],
    ),
}


@pytest.mark.parametrize("case", sorted(DOCTORED_LOGS))
def test_audit_ledger_reports_exact_violations(case):
    records, expected = DOCTORED_LOGS[case]
    report = audit_ledger(records)
    assert report.violations == expected
    assert report.ok == (not expected)
    assert report.records == len(records)
