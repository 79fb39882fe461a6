"""Ledger, channel update, offer book, and hop payment semantics."""

import random
from dataclasses import replace

import pytest

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
    consumer_pay_all,
    counter_message,
    relay_process_payment,
    update_message,
    verify_state,
)
from tollroute.wire import Name, NodeAddr, Payment

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
        # A counter that pays out more than its payer put in, signed by
        # that payer, and a state that claims a larger deposit: the
        # ledger derives the balances from its own deposits, so neither
        # can take tokens the pool does not hold.
        ledger = Ledger()
        ledger.mint(CONSUMER, 100)
        ledger.mint(RELAY_A, 100)
        state = ledger.open_channel(CONSUMER, RELAY_A, 30, 20)
        overpaid = _signed(CONSUMER, 0, 1, 31)(state)
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


def _flip(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def _drop(directory, party):
    return {addr: pub for addr, pub in directory.items() if addr != party}


def _counter(direction, change):
    """A state change that replaces the counter of `direction` by
    `change(counter)`."""
    return lambda s: s.moved(direction, change(s.paid[direction]))


# fresh_book's keys, outside any book's memo.
_KEYS = {addr: KeyPair.from_seed(addr, b"payment-tests") for addr in ALL}


def _signed(payer, direction, sequence, total):
    """A state change: the counter of `direction` as `payer`'s key signs it."""
    def change(s):
        sig = _KEYS[payer].sign(update_message(s.channel_id, sequence, direction, total))
        return s.moved(direction, Counter(sequence, total, sig))
    return change


# One defect per case, applied to an honest committed state in which
# each party has paid the other (so each holds one signature: sig_a on
# the a -> b counter, sig_b on b -> a) and to the directory settle checks
# it against: (reason, state change, directory change).
SETTLE_REFUSALS = {
    "unknown-channel": (
        "unknown-channel", lambda s: replace(s, channel_id=b"ch:nowhere"), lambda d: d),
    "bad-party": ("bad-party", lambda s: replace(s, party_b=PRODUCER), lambda d: d),
    "stale-counter": ("stale-sequence", _counter(0, lambda c: UNPAID), lambda d: d),
    # The payer signs a later sequence that pays less than it committed.
    "lower-total": ("stale-sequence", _signed(CONSUMER, 0, 3, 9), lambda d: d),
    "overpaid": ("conservation", _counter(0, lambda c: replace(c, total=105)), lambda d: d),
    "sig_a-flipped": (
        "bad-signature", _counter(0, lambda c: replace(c, sig=_flip(c.sig))), lambda d: d),
    "sig_b-flipped": (
        "bad-signature", _counter(1, lambda c: replace(c, sig=_flip(c.sig))), lambda d: d),
    "sig_a-by-payee": ("bad-signature", _signed(RELAY_A, 0, 1, 10), lambda d: d),
    "balances-not-signed": (
        "bad-signature", _counter(0, lambda c: replace(c, total=11)), lambda d: d),
    "sig_b-missing": ("bad-signature", _counter(1, lambda c: replace(c, sig=None)), lambda d: d),
    "party-not-in-directory": (
        "bad-signature", lambda s: s, lambda d: _drop(d, CONSUMER)),
}


class TestSettleRefusals:
    """Each refusal happens while the memo holds the honest state's
    signatures, so the memo can vouch for nothing but those triples."""

    @staticmethod
    def _committed():
        ledger, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        for payer, payee, amount in ((CONSUMER, RELAY_A, 10), (RELAY_A, CONSUMER, 4)):
            offer = book.make_offer(keys[payer], cid, amount, TAG, 0, LIFETIME_US)
            honest = book.commit_offer(keys[payee], payer, offer)
        # Each payer's signature over its own counter, and nothing else.
        assert set(book.memo._seen) == {
            (book.directory[payer], counter_message(honest, direction), honest.paid[direction].sig)
            for direction, payer in enumerate((CONSUMER, RELAY_A))
        }
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
            unsigned = honest.moved(direction, replace(honest.paid[direction], sig=None))
            assert not verify_state(unsigned, book.directory, book.memo)
            assert not verify_state(honest, _drop(book.directory, payer), book.memo)
            # Paid in one direction only, a channel needs only the payer's key.
            one_way = honest.moved(1 - direction, UNPAID)
            assert verify_state(one_way, _drop(book.directory, one_way.peer_of(payer)), book.memo)
        # A counter that has moved needs a signature even at sequence 0.
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
        ledger, book, keys = fresh_book(balance=8_000, deposit=4_000)
        idle = channel_id_for(CONSUMER, RELAY_A)
        offer = book.make_offer(keys[CONSUMER], idle, 10, TAG, 0, LIFETIME_US)
        book.commit_offer(keys[RELAY_A], CONSUMER, offer)
        busy = channel_id_for(RELAY_A, RELAY_B)
        superseded = []
        # One signature per update: twice the memo's capacity in all.
        for _ in range(2 * VerifiedLinks.CAPACITY):
            offer = book.make_offer(keys[RELAY_A], busy, 1, TAG, 0, LIFETIME_US)
            superseded.append(book.state(busy))
            book.commit_offer(keys[RELAY_B], RELAY_A, offer)
        # The memo holds the two live counters' signatures and nothing else.
        live = [book.state(idle), book.state(busy)]
        assert set(book.memo._seen) == {
            (book.directory[state.party_a], counter_message(state, 0), state.paid[0].sig)
            for state in live
        }
        with pytest.raises(PaymentError) as err:
            ledger.settle(superseded[-1], book.directory, book.memo)
        assert err.value.reason == "stale-sequence"
        assert book.settle_all() == 3
        assert real == []
        assert ledger.conserved()


class TestChannelUpdate:
    def test_update_moves_tokens_and_signs(self):
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        state = book.state(cid)
        nxt = channel_update(state, 25, keys[CONSUMER])
        assert (nxt.sequence, nxt.balance_a, nxt.balance_b) == (1, 75, 125)
        assert nxt.paid == (Counter(1, 25, nxt.paid[0].sig), UNPAID)
        # Signed by the payer only: the payee's key is not needed.
        assert set(book.memo._seen) == {
            (keys[CONSUMER].public, counter_message(nxt, 0), nxt.paid[0].sig)
        }
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


def _resigned(payer, offer, total):
    """`offer` with `payer`'s signature over an a -> b total of `total`."""
    message = update_message(offer.channel_id, offer.sequence, 0, total)
    return replace(offer, payer_sig=_KEYS[payer].sign(message))


# One defect per case, applied to the commit of an honest offer of 20
# from CONSUMER (party a) made after its first offer of 10 committed:
# (reason, (offer, first offer) -> (payee, payer, payment)).
COMMIT_REFUSALS = {
    "payee-not-on-channel": ("not-a-party", lambda offer, first: (RELAY_B, CONSUMER, offer)),
    "payer-not-on-channel": ("not-a-party", lambda offer, first: (RELAY_A, PRODUCER, offer)),
    "replayed": ("stale-sequence", lambda offer, first: (RELAY_A, CONSUMER, first)),
    "zero-amount": (
        "bad-amount", lambda offer, first: (RELAY_A, CONSUMER, replace(offer, amount=0))),
    "above-holdings": (
        "overdraw",
        lambda offer, first: (
            RELAY_A, CONSUMER, _resigned(CONSUMER, replace(offer, amount=91), 101)),
    ),
    "signed-by-payee": (
        "bad-signature", lambda offer, first: (RELAY_A, CONSUMER, _resigned(RELAY_A, offer, 30))),
    "amount-not-signed": (
        "bad-signature", lambda offer, first: (RELAY_A, CONSUMER, replace(offer, amount=21))),
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
        assert book.pending[cid] == []

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
        # Two offers signed against the same committed state: whichever
        # commits first wins; the loser's total no longer matches what
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
        before = (book.state(cid), list(book.pending[cid]), list(ledger.log))
        payee, payer, payment = change(offer, first)
        with pytest.raises(PaymentError) as err:
            book.commit_offer(keys[payee], payer, payment)
        assert err.value.reason == reason
        assert (book.state(cid), book.pending[cid], ledger.log) == before
        assert book.commit_offer(keys[RELAY_A], CONSUMER, offer).paid[0].total == 30

    def test_sequences_follow_a_commit_the_book_never_issued(self):
        # A payer-signed payment at sequence 7 commits although no offer
        # issued it; offers then continue above it, and a cancelled
        # offer's sequence is never issued again.
        _, book, keys = fresh_book()
        cid = channel_id_for(CONSUMER, RELAY_A)
        other_tag = (Name((b"other",)), b"\x01" * 8)
        assert book.make_offer(keys[CONSUMER], cid, 5, other_tag, 0, LIFETIME_US).sequence == 1
        assert book.cancel_tag(other_tag) == 1
        sig = _KEYS[CONSUMER].sign(update_message(cid, 7, 0, 10))
        payment = Payment(channel_id=cid, amount=10, sequence=7, payer_sig=sig)
        assert book.commit_offer(keys[RELAY_A], CONSUMER, payment).sequence == 7
        cancelled = book.make_offer(keys[CONSUMER], cid, 5, other_tag, 0, LIFETIME_US)
        assert cancelled.sequence == 8
        assert book.cancel_tag(other_tag) == 1
        offer = book.make_offer(keys[CONSUMER], cid, 5, TAG, 0, LIFETIME_US)
        assert offer.sequence == 9
        assert book.commit_offer(keys[RELAY_A], CONSUMER, offer).paid[0] == (
            Counter(9, 15, offer.payer_sig))
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
        # Each signs its own counter, which the other does not move.
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
