"""Token accounting: a mock on-chain ledger, two-party payment channels,
and the per-hop offer bookkeeping that rides on Interests.

Channel model.  A channel is funded on the ledger by both parties'
deposits and then runs as two one-way channels: counters of the tokens
a has paid b and b has paid a.  A counter only grows, and its payer
vouches for each total with a word of a PayWord hash chain (Rivest &
Shamir, 1996): the payer signs once per chain a commitment to its root,
opening sequence, base total and length, and paying a total T reveals
the word T - base hashes from the root.  A payer never reveals a word
of one chain below one it revealed before, and opens its chains in
sequence order, so a word on an older chain, or below the committed
total on its own, is an earlier promise than the committed one.  One
rule judges every word: it pays a total T on a chain when it hashes to
the chain's root in T - base steps.  The payee checks a new word by it,
and the commitment's signature when the offer carries one, and signs
nothing.  A balance is the party's deposit minus what it paid plus what
it was paid.  Both directions share one strictly increasing sequence; a
rejected offer simply leaves a hole.  Settlement checks each counter's
commitment against its payer's key and its word by the same rule, pays
the balances out to the ledger accounts and is terminal.  Every word
check asks the key directory first: a word its payer's live chain holds
at the place the check needs is answered as hashing would answer,
without hashing, as a signature the payer's key made is answered
without verifying.  Any other word is hashed.

The Ledger holds each channel's committed state, which the next offer
builds on and below which settlement refuses to go; it logs only mints,
opens and settles.  The ChannelBook holds only what is in flight:
offers stay pending (reserving the payer's funds) until the payee
commits them to the ledger or a Nack cancels them.  The ledger holds
the run's key directory, as a chain knows its accounts' keys, and
checks every commitment against it.  The simulator keeps one book; a
node acts on it by passing its own KeyPair, whose owner is the payer or
payee and whose directory keeps the payer's live chains.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from hashlib import sha256
from typing import Callable

from .keys import KeyDirectory, KeyPair, verify
from .wire import CHANNEL_ID_MAX, DIGEST_LEN, ChainCommitment, Name, NodeAddr, Payment

# Tag identifying the flow a pending offer belongs to: (name, nonce).
OfferTag = tuple[Name, bytes]

# The most words one payment chain holds.  A chain as long as a large
# deposit would take megabytes and milliseconds to build.
CHAIN_WORDS_MAX = 1024


class PaymentError(Exception):
    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class Counter:
    """The tokens one party has paid the other over a channel, in total,
    as of `sequence`: the payer's chain word for that total and the
    commitment of the chain it is on.  The unpaid counter of the funding
    state carries neither."""

    sequence: int = 0
    total: int = 0
    word: bytes | None = None
    commitment: ChainCommitment | None = None

    @property
    def opened(self) -> int:
        """The sequence that opened this counter's chain; 0 without one."""
        return self.commitment.sequence if self.commitment else 0


UNPAID = Counter()


@dataclass(frozen=True)
class ChannelState:
    """A channel snapshot: the funding deposits and one payer-vouched
    counter per direction, a -> b first.  Balances derive from them."""

    channel_id: bytes
    party_a: NodeAddr
    party_b: NodeAddr
    deposit_a: int
    deposit_b: int
    paid: tuple[Counter, Counter] = (UNPAID, UNPAID)

    @property
    def sequence(self) -> int:
        a, b = self.paid
        return a.sequence if a.sequence > b.sequence else b.sequence

    @property
    def balance_a(self) -> int:
        return self.deposit_a - self.paid[0].total + self.paid[1].total

    @property
    def balance_b(self) -> int:
        return self.deposit_b + self.paid[0].total - self.paid[1].total

    def direction(self, payer: NodeAddr) -> int:
        """Index in `paid` of the counter `payer` pays into."""
        if payer == self.party_a:
            return 0
        if payer == self.party_b:
            return 1
        raise PaymentError("not-a-party", str(payer))

    def balance(self, direction: int) -> int:
        """The balance of the party that pays into counter `direction`."""
        return self.balance_b if direction else self.balance_a


def chain_label(channel_id: bytes, direction: int, sequence: int, base: int, length: int) -> bytes:
    """What names a chain: it pays the cumulative totals base .. base +
    length over the channel in `direction` (0 when party a pays), from
    the offer at `sequence` on.  The chain's secret end derives from it,
    so two chains never share a word."""
    return b"payword-chain" + channel_id + struct.pack(">BQQQ", direction, sequence, base, length)


def commitment_message(channel_id: bytes, direction: int, c: ChainCommitment) -> bytes:
    """What a payer signs to open chain `c`: its label and its root."""
    return chain_label(channel_id, direction, c.sequence, c.base, c.length) + c.root


def _hashes_to(word: bytes, steps: int, target: bytes) -> bool:
    """Whether hashing `word` `steps` times gives `target`."""
    for _ in range(steps):
        word = sha256(word).digest()
    return word == target


# Each paid hop asks for its channel's id; a run's node pairs bound the memo.
@lru_cache(maxsize=1 << 14)
def channel_id_for(a: NodeAddr, b: NodeAddr, kind: str = "ch") -> bytes:
    lo, hi = sorted((a, b))
    return f"{kind}:{lo}:{hi}".encode("ascii")


def chain_word(
    key: KeyPair, state: ChannelState, direction: int, total: int, sequence: int
) -> tuple[bytes, ChainCommitment]:
    """The word by which `key.owner`, paying into counter `direction`,
    pays `total` in all over the channel at `sequence`, and its chain:
    the live chain of this channel direction in the key's directory, or a
    new one signed now that starts at the committed total and replaces it
    there.  A new chain is needed when `total` passes the live one's end,
    and when it is below the highest total revealed on it: the payee may
    hold that word, and would collect it over the lower one revealed
    later.  So no word below `total` is revealed again, and the key drops
    them from its copy of a live chain once they fill half of it."""
    base = state.paid[direction].total
    slot = (state.channel_id, direction)
    live = key.memo.chains.get(slot)
    if live and live[0].base <= base and live[2] <= total <= live[0].base + live[0].length:
        commitment, words, _, start = live
        spent = (total - start) * DIGEST_LEN
        if 2 * spent > len(words):
            words, start = words[spent:], total
    else:
        length = max(min(state.balance(direction), CHAIN_WORDS_MAX), total - base)
        label = chain_label(state.channel_id, direction, sequence, base, length)
        words = key.hash_chain(label, length)
        root = words[:DIGEST_LEN]
        commitment = ChainCommitment(sequence, base, length, root, key.sign(label + root))
        start = base
    key.memo.chains[slot] = (commitment, words, total, start)
    at = (total - start) * DIGEST_LEN
    return words[at : at + DIGEST_LEN], commitment


def payer_committed(state: ChannelState, direction: int, keys: KeyDirectory) -> bool:
    """Whether the counter of `direction` holds the word for its total on
    a chain its payer committed to: the commitment's signature, checked
    against the payer's key in `keys` and through its memo, and the word,
    by `_pays`."""
    counter = state.paid[direction]
    commitment = counter.commitment
    pub = keys.public.get(state.party_b if direction else state.party_a)
    if commitment is None or counter.word is None or pub is None:
        return False
    message = commitment_message(state.channel_id, direction, commitment)
    return (
        0 <= counter.total - commitment.base <= commitment.length
        and keys.check(pub, message, commitment.sig, verify)
        and _pays(keys, (state.channel_id, direction), commitment, counter.total, counter.word)
    )


def _pays(
    keys: KeyDirectory, slot: tuple[bytes, int], c: ChainCommitment, total: int, word: bytes
) -> bool:
    """Whether `word` pays `total` on chain `c` of `slot`: it hashes to
    `c.root` in `total - c.base` steps, at most `c.length`."""
    steps = total - c.base
    return keys.on_chain(slot, c.root, steps, word) or (
        0 <= steps <= c.length and _hashes_to(word, steps, c.root)
    )


def verify_state(state: ChannelState, keys: KeyDirectory) -> bool:
    """Each counter that has moved must be payer-committed; unpaid
    counters need no word."""
    return all(state.paid[d] == UNPAID or payer_committed(state, d, keys) for d in (0, 1))


@dataclass
class LedgerChannel:
    """A channel as the ledger records it.  `state` is its newest
    committed state: the next offer builds on it, and settlement refuses
    a counter below it in sequence or in total."""

    state: ChannelState
    settled: bool = False


class Ledger:
    """Mock on-chain token ledger.  Each mint, open and settle appends one
    JSON-ready record to `log`, and the conservation invariant

        sum(accounts) + sum(open channel pools) == sum(mints)

    holds after every operation.  `keys` holds the accounts' public keys
    that settlement checks commitments against.
    """

    def __init__(self, keys: KeyDirectory) -> None:
        self.keys = keys
        self.accounts: dict[NodeAddr, int] = {}
        self.channels: dict[bytes, LedgerChannel] = {}
        self.minted = 0
        self.log: list[dict] = []

    def balance(self, addr: NodeAddr) -> int:
        return self.accounts.get(addr, 0)

    def mint(self, addr: NodeAddr, amount: int) -> None:
        if amount <= 0:
            raise PaymentError("bad-amount", "mint must be positive")
        self.accounts[addr] = self.balance(addr) + amount
        self.minted += amount
        self.log.append({"op": "mint", "account": str(addr), "amount": amount})

    def open_channel(
        self,
        a: NodeAddr,
        b: NodeAddr,
        deposit_a: int,
        deposit_b: int,
        channel_id: bytes | None = None,
    ) -> ChannelState:
        """Fund a channel from both accounts.  Insufficient funds reject
        the whole operation with no state change."""
        if a == b:
            raise PaymentError("bad-party", "a channel needs two distinct parties")
        if deposit_a < 0 or deposit_b < 0 or deposit_a + deposit_b == 0:
            raise PaymentError("bad-amount", "deposits must be nonnegative and fund something")
        cid = channel_id if channel_id is not None else channel_id_for(a, b)
        if not 1 <= len(cid) <= CHANNEL_ID_MAX:
            raise PaymentError("bad-channel-id", f"{len(cid)} bytes")
        if cid in self.channels:
            raise PaymentError("duplicate-channel", cid.decode("ascii", "replace"))
        if self.balance(a) < deposit_a:
            raise PaymentError("insufficient-funds", f"{a} has {self.balance(a)}, needs {deposit_a}")
        if self.balance(b) < deposit_b:
            raise PaymentError("insufficient-funds", f"{b} has {self.balance(b)}, needs {deposit_b}")
        self.accounts[a] = self.balance(a) - deposit_a
        self.accounts[b] = self.balance(b) - deposit_b
        state = ChannelState(cid, a, b, deposit_a, deposit_b)
        self.channels[cid] = LedgerChannel(state)
        self.log.append(
            {
                "op": "open",
                "channel": cid.decode("ascii", "replace"),
                "party_a": str(a),
                "party_b": str(b),
                "deposit_a": deposit_a,
                "deposit_b": deposit_b,
            }
        )
        return state

    def settle(self, state: ChannelState) -> None:
        """Close a channel at the given state and credit the accounts.

        Rejected: unknown or already settled channels, a counter below
        the newest one the ledger has seen in sequence, in total or in
        the sequence that opened its chain (its word was revealed
        before the newest one), balances that the ledger's deposits and
        the counters leave negative, and counters their payers did not
        commit to (`bad-signature`).
        """
        chan = self.channels.get(state.channel_id)
        cid = state.channel_id.decode("ascii", "replace")
        if chan is None:
            raise PaymentError("unknown-channel", cid)
        if chan.settled:
            raise PaymentError("already-settled", cid)
        committed = chan.state
        if (state.party_a, state.party_b) != (committed.party_a, committed.party_b):
            raise PaymentError("bad-party", cid)
        for counter, noted in zip(state.paid, committed.paid):
            if (
                counter.sequence < noted.sequence
                or counter.total < noted.total
                or counter.commitment is not None and counter.opened < noted.opened
            ):
                raise PaymentError("stale-sequence", f"{cid}: below {noted.sequence}/{noted.total}")
        final = replace(state, deposit_a=committed.deposit_a, deposit_b=committed.deposit_b)
        if min(final.balance_a, final.balance_b) < 0:
            raise PaymentError("conservation", f"{cid}: pays {final.balance_a}/{final.balance_b}")
        if not verify_state(final, self.keys):
            raise PaymentError("bad-signature", cid)
        chan.settled = True
        self.accounts[state.party_a] = self.balance(state.party_a) + final.balance_a
        self.accounts[state.party_b] = self.balance(state.party_b) + final.balance_b
        self.log.append({
            "op": "settle", "channel": cid, "sequence": final.sequence,
            "balance_a": final.balance_a, "balance_b": final.balance_b,
        })

    def open_pool_total(self) -> int:
        open_states = (c.state for c in self.channels.values() if not c.settled)
        return sum(s.deposit_a + s.deposit_b for s in open_states)

    def conserved(self) -> bool:
        return sum(self.accounts.values()) + self.open_pool_total() == self.minted


@dataclass
class PendingOffer:
    direction: int  # of the counter its payer pays into
    amount: int
    tag: OfferTag
    expires_us: int


class ChannelBook:
    """In-flight payment offers over the ledger's channels, which a payee
    checks against the ledger's keys.

    Offers reserve the payer's balance so concurrent flows cannot promise
    the same tokens twice; the reservation dissolves on commit, on a Nack
    for the offer's flow tag, or when the offer outlives its Interest.
    `pending` holds each offer by (channel id, sequence), and `reserved`
    keeps each payer's reserved total per channel, keyed by (channel id,
    direction), as offers come and go, so checking a balance never
    re-sums the offers.  `commits` counts the offers committed to the
    ledger, where alone committed state lives.
    """

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.commits = 0
        self.pending: dict[tuple[bytes, int], PendingOffer] = {}
        self.reserved: dict[tuple[bytes, int], int] = {}
        self._issued: dict[bytes, int] = {}

    def state(self, channel_id: bytes) -> ChannelState:
        """The ledger's committed state of an open channel; a settled one
        is unknown to offers and commits alike."""
        chan = self.ledger.channels.get(channel_id)
        if chan is None or chan.settled:
            raise PaymentError("unknown-channel", channel_id.decode("ascii", "replace"))
        return chan.state

    def projected_balance(self, channel_id: bytes, party: NodeAddr) -> int:
        """Committed balance minus what this party has promised in
        still-pending offers."""
        state = self.state(channel_id)
        direction = state.direction(party)
        return state.balance(direction) - self.reserved.get((channel_id, direction), 0)

    def make_offer(
        self,
        key: KeyPair,
        channel_id: bytes,
        amount: int,
        tag: OfferTag,
        now: int,
        lifetime_us: int,
    ) -> Payment:
        """Make, as `key.owner`, and queue an offer of `amount` to the
        channel peer."""
        payer = key.owner
        if amount <= 0:
            raise PaymentError("bad-amount", "offers must move at least one token")
        state = self.state(channel_id)
        direction = state.direction(payer)
        reserved = self.reserved.get((channel_id, direction), 0)
        projected = state.balance(direction) - reserved
        if projected < amount:
            raise PaymentError("insufficient-funds", f"{payer} projected {projected} < {amount}")
        # Cancelled offers leave holes: a sequence, once issued, is never
        # reused, so a stale offer can never pass for a new one.
        seq = max(state.sequence, self._issued.get(channel_id, 0)) + 1
        self._issued[channel_id] = seq
        committed = state.paid[direction]
        word, commitment = chain_word(key, state, direction, committed.total + amount, seq)
        # The commitment rides along until the payee holds a word on its
        # chain.  Honest paths hold the very object; a decoded copy compares.
        held = committed.commitment
        carried = None if held is commitment or held == commitment else commitment
        payment = Payment(channel_id, amount, seq, word, carried)
        self.pending[channel_id, seq] = PendingOffer(direction, amount, tag, now + lifetime_us)
        self.reserved[channel_id, direction] = reserved + amount
        return payment

    def commit_offer(self, key: KeyPair, payer: NodeAddr, payment: Payment) -> ChannelState:
        """Payee-side acceptance by `key.owner`: check that the payer's
        word pays its committed total plus the amount, and store it as the
        payer's counter.  Raises without mutating on any defect."""
        payee = key.owner
        cid = payment.channel_id
        state = self.state(cid)
        direction = state.direction(payer)
        if (state.party_a if direction else state.party_b) != payee:
            raise PaymentError("not-a-party", f"{payee} on {cid!r}")
        if payment.sequence <= state.sequence:
            raise PaymentError(
                "stale-sequence", f"{payment.sequence} <= committed {state.sequence}"
            )
        if payment.amount <= 0:
            raise PaymentError("bad-amount", "zero payment")
        balance = state.balance(direction)
        if balance < payment.amount:
            raise PaymentError("overdraw", f"{payer} holds {balance} < {payment.amount}")
        old = state.paid[direction]
        total = old.total + payment.amount
        chain = payment.commitment or old.commitment
        counter = Counter(payment.sequence, total, payment.word, chain)
        paid = (state.paid[0], counter) if direction else (counter, state.paid[1])
        committed = ChannelState(
            cid, state.party_a, state.party_b, state.deposit_a, state.deposit_b, paid
        )
        keys = self.ledger.keys
        if payment.commitment is not None:
            valid = payer_committed(committed, direction, keys)
        else:
            # The chain of the word the payee holds, whose commitment it
            # checked when it committed that word.
            valid = chain is not None and _pays(keys, (cid, direction), chain, total, payment.word)
        if not valid:
            raise PaymentError("bad-signature", f"offer seq {payment.sequence} by {payer}")
        self.ledger.channels[cid].state = committed
        self.commits += 1
        if old.commitment not in (None, chain):
            # The ledger refuses a superseded counter before it checks
            # commitments, so this one can never be checked again.
            message = commitment_message(cid, direction, old.commitment)
            keys.discard(keys.public[payer], message, old.commitment.sig)
        offer = self.pending.pop((cid, payment.sequence), None)
        if offer is not None:
            self.reserved[cid, offer.direction] -= offer.amount
        return committed

    def cancel_tag(self, tag: OfferTag) -> int:
        """Drop every pending offer for a flow tag (Nack backflow);
        committed updates are untouched.  Returns how many died."""
        return self._keep_pending(lambda offer: offer.tag != tag)

    def purge_expired(self, now: int) -> int:
        return self._keep_pending(lambda offer: offer.expires_us > now)

    def _keep_pending(self, keep: Callable[[PendingOffer], bool]) -> int:
        """Drop every pending offer that `keep` rejects; returns how many."""
        dropped = [at for at, offer in self.pending.items() if not keep(offer)]
        for at in dropped:
            offer = self.pending.pop(at)
            self.reserved[at[0], offer.direction] -= offer.amount
        return len(dropped)

    def settle_all(self) -> int:
        """Settle every still-open ledger channel at its committed state,
        in the order the channels were opened."""
        settled = 0
        for chan in self.ledger.channels.values():
            if not chan.settled:
                self.ledger.settle(chan.state)
                settled += 1
        return settled


def relay_process_payment(
    book: ChannelBook,
    key: KeyPair,
    payer: NodeAddr,
    incoming: Payment | None,
    my_cost: int,
    upstream: NodeAddr | None,
    tag: OfferTag,
    now: int,
    lifetime_us: int,
) -> tuple[int, Payment | None]:
    """Handle the payment riding an Interest at the hop `key.owner`.

    Checks run before any mutation: an offer that cannot cover this
    node's cost, or that leaves this node unable to fund the upstream
    offer, is rejected with the book untouched.  On success the incoming
    offer is committed and, when there is an upstream hop, a new offer of
    (incoming - my_cost) is made toward it.  A zero-cost hop accepts an
    Interest that carries no payment (a zero-price route) and forwards it
    without an onward offer.  Returns (tokens kept, upstream offer or
    None).
    """
    if incoming is None:
        if my_cost == 0:
            return 0, None
        raise PaymentError("insufficient-payment", "no payment attached")
    if incoming.amount < my_cost:
        raise PaymentError(
            "insufficient-payment", f"offered {incoming.amount}, cost {my_cost}"
        )
    me = key.owner
    forward_amount = incoming.amount - my_cost
    upstream_cid: bytes | None = None
    if upstream is not None and forward_amount > 0:
        upstream_cid = channel_id_for(me, upstream)
        # Raises unknown-channel when there is no channel toward upstream.
        if book.projected_balance(upstream_cid, me) < forward_amount:
            raise PaymentError(
                "insufficient-payment",
                f"{me} cannot fund {forward_amount} toward {upstream}",
            )
    book.commit_offer(key, payer, incoming)
    if upstream_cid is None:
        return incoming.amount, None
    offer = book.make_offer(key, upstream_cid, forward_amount, tag, now, lifetime_us)
    return my_cost, offer


def consumer_pay_all(
    book: ChannelBook,
    key: KeyPair,
    recipients: list[tuple[KeyPair, int]],
    tag: OfferTag,
    now: int,
    deposit: int,
    lifetime_us: int,
) -> list[ChannelState]:
    """Prepay every node on a path directly, atomically: `key.owner`
    offers and each recipient's key commits.

    Direct consumer-to-node channels (id kind "pay") open lazily from the
    consumer's ledger account on first use.  All affordability checks run
    before the first token moves; any failure leaves the book as found.
    """
    consumer = key.owner
    plan: list[tuple[bytes, KeyPair, int]] = []
    to_open: list[tuple[NodeAddr, bytes, int]] = []
    ledger_needed = 0
    for node_key, amount in recipients:
        if amount <= 0:
            continue
        node = node_key.owner
        cid = channel_id_for(consumer, node, "pay")
        if cid not in book.ledger.channels:
            funding = max(deposit, amount)
            to_open.append((node, cid, funding))
            ledger_needed += funding
            available = funding
        else:
            available = book.projected_balance(cid, consumer)
        if available < amount:
            raise PaymentError(
                "insufficient-payment", f"{consumer} cannot prepay {amount} to {node}"
            )
        plan.append((cid, node_key, amount))
    if book.ledger.balance(consumer) < ledger_needed:
        raise PaymentError(
            "insufficient-funds",
            f"{consumer} holds {book.ledger.balance(consumer)}, needs {ledger_needed}",
        )
    for node, cid, funding in to_open:
        book.ledger.open_channel(consumer, node, funding, 0, channel_id=cid)
    committed = []
    for cid, node_key, amount in plan:
        offer = book.make_offer(key, cid, amount, tag, now, lifetime_us)
        committed.append(book.commit_offer(node_key, consumer, offer))
    return committed


@dataclass
class AuditResult:
    ok: bool
    records: int
    minted: int
    violations: list[str] = field(default_factory=list)


# The fields audit_ledger reads from each op's records, with their JSON types.
_LEDGER_FIELDS = {
    "mint": {"account": str, "amount": int},
    "open": {"channel": str, "party_a": str, "party_b": str, "deposit_a": int, "deposit_b": int},
    "settle": {"channel": str, "balance_a": int, "balance_b": int},
}


def ledger_record_problem(rec) -> str | None:
    """Why audit_ledger cannot replay a record read from a file, or None.
    An unknown op is left for the audit to report."""
    if not isinstance(rec, dict):
        return "not a JSON object"
    op = rec.get("op")
    for name, kind in (_LEDGER_FIELDS.get(op, {}) if isinstance(op, str) else {}).items():
        value = rec.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):  # isinstance(True, int) holds
            return f"{op} record needs {kind.__name__} field {name!r}"
    return None


@dataclass
class _ReplayedChannel:
    """A channel as audit_ledger replays it, named by its one open record."""

    party_a: str
    party_b: str
    pool: int
    open: bool = True


def audit_ledger(records: list[dict]) -> AuditResult:
    """Replay a ledger log and check token conservation after every
    record, plus opens that fund a pool between two parties, settles that
    fill it, balances that never go negative and ids that open only once.

    The replay keeps `total`, the sum of all accounts and open pools, up
    to date record by record, so each check costs O(1)."""
    accounts: dict[str, int] = {}
    channels: dict[str, _ReplayedChannel] = {}
    minted = 0
    total = 0
    violations: list[str] = []

    for i, rec in enumerate(records):
        op = rec.get("op")
        if op == "mint":
            amount = rec["amount"]
            if amount <= 0:
                violations.append(f"record {i}: nonpositive mint")
                continue
            accounts[rec["account"]] = accounts.get(rec["account"], 0) + amount
            minted += amount
            total += amount
        elif op == "open":
            cid = rec["channel"]
            da, db = rec["deposit_a"], rec["deposit_b"]
            # Ledger.open_channel's bad-party and bad-amount rules.
            if rec["party_a"] == rec["party_b"]:
                violations.append(f"record {i}: channel {cid} opened with one party")
                continue
            if da < 0 or db < 0 or da + db == 0:
                violations.append(f"record {i}: channel {cid} opened with deposits {da}/{db}")
                continue
            if cid in channels:
                violations.append(f"record {i}: channel {cid} opened twice")
                continue
            for party, dep in ((rec["party_a"], da), (rec["party_b"], db)):
                if accounts.get(party, 0) < dep:
                    violations.append(f"record {i}: {party} overdrew opening {cid}")
            # The deposits move from the accounts into the pool: total holds.
            accounts[rec["party_a"]] = accounts.get(rec["party_a"], 0) - da
            accounts[rec["party_b"]] = accounts.get(rec["party_b"], 0) - db
            channels[cid] = _ReplayedChannel(rec["party_a"], rec["party_b"], da + db)
        elif op == "settle":
            cid = rec["channel"]
            ch = channels.get(cid)
            if ch is None or not ch.open:
                violations.append(f"record {i}: settle on non-open channel {cid}")
                continue
            ch.open = False
            total -= ch.pool
            if rec["balance_a"] + rec["balance_b"] != ch.pool:
                violations.append(f"record {i}: settle balances break pool on {cid}")
                continue
            if min(rec["balance_a"], rec["balance_b"]) < 0:
                violations.append(f"record {i}: settle balance goes negative on {cid}")
                continue
            accounts[ch.party_a] = accounts.get(ch.party_a, 0) + rec["balance_a"]
            accounts[ch.party_b] = accounts.get(ch.party_b, 0) + rec["balance_b"]
            total += rec["balance_a"] + rec["balance_b"]
        else:
            violations.append(f"record {i}: unknown op {op!r}")
        if total != minted:
            violations.append(f"record {i}: accounts+pools {total} != minted {minted}")
    return AuditResult(ok=not violations, records=len(records), minted=minted, violations=violations)
