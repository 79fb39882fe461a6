"""Ledger, channel update, offer book, and hop payment semantics."""

import copy
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute import payment
from tollroute.keys import KeyPair, VerifiedLinks
from tollroute.payment import (
    UNPAID,
    AuditResult,
    ChannelBook,
    Counter,
    Ledger,
    PaymentError,
    audit_ledger,
    channel_id_for,
    channel_update,
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
    the book's memo, as a run's keys do."""
    ledger = Ledger()
    directory = {}
    book = ChannelBook(ledger, directory, VerifiedLinks())
    keys = {}
    for addr in ALL:
        kp = KeyPair.from_seed(addr, b"payment-tests", book.memo)
        keys[addr] = kp
        directory[addr] = kp.public
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
        ledger = Ledger()
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
        ledger = Ledger()
        ledger.mint(CONSUMER, 50)
        ledger.mint(RELAY_A, 50)
        with pytest.raises(PaymentError) as err:
            ledger.open_channel(CONSUMER, RELAY_A, 60, 10)
        assert err.value.reason == "insufficient-funds"
        # Nothing moved.
        assert ledger.balance(CONSUMER) == 50 and ledger.balance(RELAY_A) == 50
        assert not ledger.channels and ledger.conserved()

    def test_open_debits_both_parties(self):
        ledger = Ledger()
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        assert (state.balance_a, state.balance_b, state.sequence) == (30, 20, 0)
        assert ledger.balance(CONSUMER) == 70 and ledger.balance(RELAY_A) == 80
        assert ledger.open_pool_total() == 50 and ledger.conserved()

    def test_seq0_cooperative_close_needs_no_signatures(self):
        ledger = Ledger()
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        ledger.settle(state, {}, VerifiedLinks())
        assert ledger.balance(CONSUMER) == 100 and ledger.balance(RELAY_A) == 100
        assert ledger.conserved()

    def test_settle_twice_rejected(self):
        ledger = Ledger()
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        ledger.settle(state, {}, VerifiedLinks())
        with pytest.raises(PaymentError) as err:
            ledger.settle(state, {}, VerifiedLinks())
        assert err.value.reason == "already-settled"

    def test_settle_rejects_pool_mismatch(self):
        # A counter that pays out more than its payer put in, committed by
        # that payer, and a state that claims a larger deposit: the
        # ledger derives the balances from its own deposits, so neither
        # can take tokens the pool does not hold.
        ledger = Ledger()
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        overpaid = _paid_by(CONSUMER, 0, 1, 31)(state)
        with pytest.raises(PaymentError) as err:
            ledger.settle(overpaid, {CONSUMER: _KEYS[CONSUMER].public}, VerifiedLinks())
        assert err.value.reason == "conservation"
        ledger.settle(replace(state, deposit_a=40), {}, VerifiedLinks())
        assert ledger.balance(CONSUMER) == 100 and ledger.balance(RELAY_A) == 100
        assert ledger.conserved()

    def test_stale_sequence_settle_rejected(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        old = book.state(cid)
        s1 = channel_update(old, 10, keys[CONSUMER])
        s2 = channel_update(s1, 5, keys[CONSUMER])
        ledger.note_update(s1, CONSUMER, 10)
        ledger.note_update(s2, CONSUMER, 5)
        #.. the payee tries to roll back to the state that favored it less,
        # or the payer replays the richer old state: both are stale.
        with pytest.raises(PaymentError) as err:
            ledger.settle(s1, book.directory, book.memo)
        assert err.value.reason == "stale-sequence"
        ledger.settle(s2, book.directory, book.memo)
        assert ledger.conserved()


def _flip(data: bytes, at: int = -1) -> bytes:
    """`data` with the low bit of byte `at` flipped."""
    at %= len(data)
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


def _drop(directory, party):
    return {addr: pub for addr, pub in directory.items() if addr != party}


def _counter(direction, change):
    """A state change that replaces the counter of `direction` by
    `change(counter)`."""
    return lambda s: s.moved(direction, change(s.paid[direction]))


def _commitment(direction, change):
    """A state change that replaces the commitment on the counter of
    `direction` by `change(commitment)`."""
    return _counter(direction, lambda c: replace(c, commitment=change(c.commitment)))


# fresh_book's keys, outside any book's memo.
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
    sig = key.sign(commitment_message(cid, direction, opened, base, signed, words[:32]))
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
        return s.moved(direction, Counter(sequence, total, _word(words, total - short), commitment))
    return change


def _triple(book, state, direction):
    """The memo triple of the commitment on the counter of `direction`."""
    c = state.paid[direction].commitment
    payer = (state.party_a, state.party_b)[direction]
    message = commitment_message(state.channel_id, direction, c.sequence, c.base, c.length, c.root)
    return book.directory[payer], message, c.sig


# One defect per case, applied to an honest committed state in which
# each party has paid the other (so each counter holds a word on its
# payer's chain: a -> b at 10, b -> a at 4) and to the directory settle
# checks it against: (reason, state change, directory change).
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
        assert set(book.memo._seen) == {_triple(book, honest, d) for d in (0, 1)}
        return ledger, book, honest

    @pytest.mark.parametrize("case", list(SETTLE_REFUSALS))
    def test_single_defect_is_refused_without_mutation(self, case):
        reason, change_state, change_directory = SETTLE_REFUSALS[case]
        ledger, book, honest = self._committed()
        accounts = dict(ledger.accounts)
        with pytest.raises(PaymentError) as err:
            ledger.settle(change_state(honest), change_directory(book.directory), book.memo)
        assert err.value.reason == reason
        assert ledger.accounts == accounts and ledger.conserved()
        assert not ledger.channels[honest.channel_id].settled
        ledger.settle(honest, book.directory, book.memo)
        assert ledger.balance(CONSUMER) == accounts[CONSUMER] + 100 - 10 + 4

    def test_verify_state_refuses_missing_signatures_and_unknown_parties(self):
        _, book, honest = self._committed()
        assert verify_state(honest, book.directory, book.memo)
        for direction, payer in enumerate((CONSUMER, RELAY_A)):
            unsigned = honest.moved(direction, replace(honest.paid[direction], commitment=None))
            assert not verify_state(unsigned, book.directory, book.memo)
            assert not verify_state(honest, _drop(book.directory, payer), book.memo)
            # Paid in one direction only, a channel needs only the payer's key.
            one_way = honest.moved(1 - direction, UNPAID)
            assert verify_state(one_way, _drop(book.directory, one_way.peer_of(payer)), book.memo)
        # A counter that has moved needs a committed word even at sequence 0.
        assert not verify_state(honest.moved(0, Counter(0, 10)), book.directory, book.memo)

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
        for _ in range(VerifiedLinks.CAPACITY):
            for payer, payee in ((RELAY_A, RELAY_B), (RELAY_B, RELAY_A)):
                offer = book.make_offer(keys[payer], busy, 1, TAG, 0, LIFETIME_US)
                assert offer.commitment is not None and offer.commitment.length == 1
                superseded.append(book.state(busy))
                book.commit_offer(keys[payee], payer, offer)
        # The memo holds the three live counters' commitments and nothing else.
        assert set(book.memo._seen) == {
            _triple(book, book.state(idle), 0),
            _triple(book, book.state(busy), 0),
            _triple(book, book.state(busy), 1),
        }
        with pytest.raises(PaymentError) as err:
            ledger.settle(superseded[-1], book.directory, book.memo)
        assert err.value.reason == "stale-sequence"
        assert book.settle_all() == 4
        assert real == []
        assert ledger.conserved()


class TestChannelUpdate:
    def test_update_moves_tokens_and_signs(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        state = book.state(cid)
        nxt = channel_update(state, 25, keys[CONSUMER])
        assert (nxt.sequence, nxt.balance_a, nxt.balance_b) == (1, 75, 125)
        paid = nxt.paid[0]
        assert nxt.paid == (Counter(1, 25, paid.word, paid.commitment), UNPAID)
        assert (paid.commitment.base, paid.commitment.length) == (0, 100)
        # Committed by the payer only: the payee's key is not needed.
        assert set(book.memo._seen) == {_triple(book, nxt, 0)}
        assert verify_state(nxt, _drop(book.directory, RELAY_A), book.memo)

    def test_zero_delta_still_advances_sequence(self):
        _, book, keys = fresh_book()
        state = book.state(channel_id_for(CONSUMER, RELAY_A))
        nxt = channel_update(state, 0, keys[CONSUMER])
        assert nxt.sequence == state.sequence + 1
        assert (nxt.balance_a, nxt.balance_b) == (state.balance_a, state.balance_b)
        assert verify_state(nxt, book.directory, book.memo)

    def test_overdraw_rejected(self):
        _, book, keys = fresh_book()
        state = book.state(channel_id_for(CONSUMER, RELAY_A))
        with pytest.raises(PaymentError) as err:
            channel_update(state, state.balance_a + 1, keys[CONSUMER])
        assert err.value.reason == "overdraw"

    def test_only_party_a_can_sign(self):
        _, book, keys = fresh_book()
        state = book.state(channel_id_for(CONSUMER, RELAY_A))
        with pytest.raises(PaymentError) as err:
            channel_update(state, 5, keys[RELAY_A])
        assert err.value.reason == "not-a-party"
        assert not book.memo._seen

    def test_tampered_signature_fails_verification(self):
        _, book, keys = fresh_book()
        state = book.state(channel_id_for(CONSUMER, RELAY_A))
        nxt = channel_update(state, 5, keys[CONSUMER])
        forged = nxt.moved(0, replace(nxt.paid[0], total=6))
        assert (forged.balance_a, forged.balance_b) == (nxt.balance_a - 1, nxt.balance_b + 1)
        assert not verify_state(forged, book.directory, book.memo)


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
        assert state.balance_of(CONSUMER) == 85 and state.balance_of(RELAY_A) == 115
        assert verify_state(state, book.directory, book.memo)
        assert cid not in book.pending

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
        assert book.state(cid).balance_of(CONSUMER) == 70

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
        assert book.state(cid).balance_of(CONSUMER) == 90

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
        assert state.sequence == 2 and state.balance_of(CONSUMER) == 90
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
        before = (book.state(cid), list(book.pending[cid]), list(ledger.log))
        payee, payer, payment = change(offer, first, keys[CONSUMER].chains[(cid, 0)][1])
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[payee], payer, payment)
        assert err.value.reason == reason
        assert (book.state(cid), book.pending[cid], ledger.log) == before
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

    def test_offer_must_move_a_token(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        with pytest.raises(PaymentError) as err:
            book.make_offer(keys[CONSUMER], cid, 0, TAG, 0, LIFETIME_US)
        assert err.value.reason == "bad-amount"
        assert not book.pending and not book.memo._seen

    def test_commit_on_a_settled_channel_changes_nothing(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        ledger.settle(book.state(cid), book.directory, book.memo)
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, LIFETIME_US)
        before = (book.state(cid), list(book.pending[cid]), list(ledger.log))
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert err.value.reason == "unknown-channel"
        assert (book.state(cid), book.pending[cid], ledger.log) == before

    def test_payments_both_ways_settle_to_deposit_minus_paid_out_plus_paid_in(self):
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for payer, payee, amount in ((CONSUMER, RELAY_A, 30), (RELAY_A, CONSUMER, 12),
                                     (CONSUMER, RELAY_A, 5)):
            offer = book.make_offer(keys[payer], cid, amount, TAG, 0, LIFETIME_US)
            state = book.commit_offer(keys[payee], payer, offer)
        assert [(c.sequence, c.total) for c in state.paid] == [(3, 35), (2, 12)]
        ledger.settle(state, book.directory, book.memo)
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
        offer = book.make_offer(keys[CONSUMER], cid, 10, TAG, 0, 1_000)
        book.make_offer(keys[CONSUMER], cid, 10, other_tag, 0, 2_000)
        book.make_offer(keys[RELAY_A], channel_id_for(RELAY_A, RELAY_B), 5, TAG, 0, 1_000)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        assert [o.tag for o in book.pending[cid]] == [other_tag]
        assert book.purge_expired(now=1_500) == 1
        assert list(book.pending) == [cid]
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
        assert keys[CONSUMER].chains[(cid, 0)][0] == state.paid[0].commitment
        ledger.settle(state, book.directory, book.memo)
        assert (ledger.log[-1]["balance_a"], ledger.log[-1]["balance_b"]) == (10, 190)

    def test_a_chain_holds_at_least_the_words_an_offer_needs(self):
        ledger, book, keys = fresh_book(balance=5_000)
        cid = ledger.open_channel(CONSUMER, PRODUCER, 3_000, 0, channel_id=b"big").channel_id
        offers = [book.make_offer(keys[CONSUMER], cid, n, TAG, 0, LIFETIME_US) for n in (2, 1_500)]
        # The first chain holds CHAIN_WORDS_MAX words; the second offer
        # passes its end and starts one long enough for itself.
        assert [(o.commitment.base, o.commitment.length) for o in offers] == [
            (0, payment.CHAIN_WORDS_MAX), (0, 1_500)]
        assert len(keys[CONSUMER].chains[(cid, 0)][1]) == 32 * 1_501
        state = book.commit_offer(keys[PRODUCER], CONSUMER, offers[1])
        assert state.balance_of(PRODUCER) == 1_500

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
            ledger.settle(claim, book.directory, book.memo)
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
            claim = state.moved(0, Counter(state.sequence + 1, 12, lost.word, chain))
            self._refused(ledger, book, claim, reason)
        ledger.settle(state, book.directory, book.memo)
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
            claim = state.moved(0, Counter(state.sequence + 1, 130, lost.word, chain))
            self._refused(ledger, book, claim, reason)
        ledger.settle(state, book.directory, book.memo)
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
            chain = keys[payer].chains[(cid, direction)][0]
            lost.append((direction, offer.sequence, Counter(0, total, offer.word, chain)))
            assert book.cancel_tag(tag) == 1
            continue
        bad = _tampered(offer, mutation, at, book.state(cid).balance_of(payer))
        if fate == "tamper" and bad is not None:
            pending = {c: list(q) for c, q in book.pending.items()}
            before = (book.state(cid), pending, list(ledger.log))
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
        claim = final.moved(direction, replace(counter, sequence=final.sequence + 1))
        trial = copy.deepcopy(ledger)
        committed = replace(final.paid[direction], sequence=counter.sequence)
        if sequence > last_commit[direction] or counter == committed:
            trial.settle(claim, book.directory, book.memo)
        else:
            with pytest.raises(PaymentError) as err:
                trial.settle(claim, book.directory, book.memo)
            assert err.value.reason == "stale-sequence"
    ledger.settle(final, book.directory, book.memo)
    assert ledger.log[-1]["balance_a"] == deposits[0] - paid[0] + paid[1]
    assert ledger.log[-1]["balance_b"] == deposits[1] - paid[1] + paid[0]


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
        assert book.state(cid).balance_of(RELAY_A) == 110
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
        for (node, amount), state in zip(recipients, states):
            assert state.balance_of(node) == amount
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
        rng = random.Random(4242)
        ledger = Ledger()
        memo = VerifiedLinks()
        keys = {a: KeyPair.from_seed(a, b"storm", memo) for a in ALL}
        directory = {a: k.public for a, k in keys.items()}
        for a in ALL:
            ledger.mint(a, 500)
        live: dict[bytes, object] = {}
        serial = 0
        for step in range(2_000):
            op = rng.random()
            if op < 0.15:
                ledger.mint(rng.choice(ALL), rng.randrange(1, 50))
            elif op < 0.45:
                a, b = rng.sample(ALL, 2)
                serial += 1
                cid = f"storm:{serial}".encode()
                da = rng.randrange(0, min(60, ledger.balance(a)) + 1)
                db = rng.randrange(0, min(60, ledger.balance(b)) + 1)
                try:
                    live[cid] = ledger.open_channel(a, b, da, db, cid)
                except PaymentError:
                    pass
            elif op < 0.85 and live:
                cid = rng.choice(list(live))
                state = live[cid]
                delta = rng.randrange(0, state.balance_a + 1)
                state = channel_update(state, delta, keys[state.party_a])
                ledger.note_update(state, state.party_a, delta)
                live[cid] = state
            elif live:
                cid = rng.choice(list(live))
                ledger.settle(live.pop(cid), directory, memo)
            assert ledger.conserved(), f"conservation broke at step {step}"
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
