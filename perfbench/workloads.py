"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into the text of a ``.scn`` file, the only
input the program sees. The ``expect:`` lines are derived while the orders
are written, so the expected final balances hold by construction and
``assert_conservation`` checks them exactly.

All three workloads use the two-broker shape of the shipped scenarios:
BR1 and BR2 on one exchange X1, cleared by CC1 through CB1 and DP1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

_VENUES = (
    "broker: BR1",
    "broker: BR2",
    "exchange: X1",
    "clearing_corporation: CC1",
    "clearing_bank: CB1",
    "depository: DP1",
)

# Accounts the participants hold; every run must leave them flat.
_FLAT = ("BR1.house", "BR2.house", "CC1.ccp")


def _holdings(money: int, positions: dict[str, int]) -> str:
    parts = [f"money={money}"] if money else []
    parts += [f"{symbol}={qty}" for symbol, qty in sorted(positions.items()) if qty]
    return " ".join(parts)


def _order(client: str, side: str, qty: int, symbol: str, kind: str, price: int) -> str:
    if kind == "market":
        # a retail market buy must carry a funding cap; sells need none
        tail = f" cap={price}" if side == "buy" else ""
        return f"order: {client} {side} {qty} {symbol} market{tail}"
    return f"order: {client} {side} {qty} {symbol} {kind} {price}"


def _header(name: str, seed: int, symbols: tuple[str, ...]) -> list[str]:
    return [
        f"# generated by perfbench/workloads.py: {name} seed={seed}",
        f"scenario: {name}",
        "currency: USD",
        *(f"symbol: {symbol}" for symbol in symbols),
        *_VENUES,
    ]


def retail_cross(seed: int, *, pairs: int, prices: int) -> str:
    """`pairs` retail sell/buy pairs (SECO A); each pair crosses at once.

    Every client places one order. The first order of a pair is a resting
    limit order and the second crosses it in full, so the book never holds
    more than one order and step recording dominates the run.
    """
    rng = random.Random(seed)
    symbols = ("ACME", "BOLT", "CRUX")
    levels = sorted(rng.sample(range(900, 1200), prices))
    lines = _header("retail_cross", seed, symbols)
    clients, endow, orders, expect = [], [], [], []
    for pair in range(1, pairs + 1):
        seller, buyer = f"S{pair:04d}", f"B{pair:04d}"
        symbol = rng.choice(symbols)
        price = rng.choice(levels)
        qty = rng.randint(1, 100)
        spare = rng.randint(0, 5000)
        for client in (seller, buyer):
            clients.append(f"retail: {client} broker={rng.choice(('BR1', 'BR2'))}")
        endow.append(f"endow: {seller} {_holdings(0, {symbol: qty})}")
        endow.append(f"endow: {buyer} {_holdings(price * qty + spare, {})}")
        aggressor = ("limit", "ioc", "fok", "market")[pair % 4]
        sell = (seller, "sell", qty, symbol)
        buy = (buyer, "buy", qty, symbol)
        first, second = (sell, buy) if rng.random() < 0.5 else (buy, sell)
        orders.append(_order(*first, "limit", price))
        orders.append(_order(*second, aggressor, price))
        expect.append(f"expect: {seller} {_holdings(price * qty, {})}")
        expect.append(f"expect: {buyer} {_holdings(spare, {symbol: qty})}")
    expect += [f"expect: {account} money=0" for account in _FLAT]
    return "\n".join(lines + clients + endow + orders + expect) + "\n"


def deep_book(seed: int, *, levels: int, per_level: int, clients: int) -> str:
    """A deep one-symbol ask book (SECO B), then one buy per price level.

    ``levels * per_level`` shuffled limit sells of mixed sizes rest
    first. Then one limit, IOC or FOK buy per level, lowest price first,
    takes exactly that level, so final balances do not depend on how orders
    rank within a level and the file is valid under every comparator.
    Sellers are at BR1 and buyers at BR2.
    """
    rng = random.Random(seed)
    symbol = "ACME"
    prices = sorted(rng.sample(range(1000, 1000 + 4 * levels), levels))
    sellers = [f"S{i:02d}" for i in range(1, clients + 1)]
    buyers = [f"B{i:02d}" for i in range(1, clients + 1)]
    lines = _header("deep_book", seed, (symbol,))
    lines += [f"retail: {client} broker=BR1" for client in sellers]
    lines += [f"retail: {client} broker=BR2" for client in buyers]

    sells, level_qty = [], {}
    for price in prices:
        for _ in range(per_level):
            qty = rng.choice((rng.randint(1, 20), rng.randint(20, 200), rng.randint(200, 900)))
            sells.append((rng.choice(sellers), qty, price))
            level_qty[price] = level_qty.get(price, 0) + qty
    rng.shuffle(sells)

    shares = dict.fromkeys(sellers, 0)
    proceeds = dict.fromkeys(sellers, 0)
    for seller, qty, price in sells:
        shares[seller] += qty
        proceeds[seller] += qty * price
    # the seed shuffles each level's buy type but keeps the number of each
    # type fixed, since a FOK buy scans the whole book once more
    kinds = [("limit", "ioc", "fok")[n % 3] for n in range(levels)]
    rng.shuffle(kinds)
    buys = [(rng.choice(buyers), level_qty[price], price, kind)
            for price, kind in zip(prices, kinds)]
    cost = dict.fromkeys(buyers, 0)
    bought = dict.fromkeys(buyers, 0)
    for buyer, qty, price, _ in buys:
        cost[buyer] += qty * price
        bought[buyer] += qty
    spare = {buyer: rng.randint(0, 5000) for buyer in buyers}

    lines += [f"endow: {s} {_holdings(0, {symbol: shares[s]})}" for s in sellers if shares[s]]
    lines += [f"endow: {b} {_holdings(cost[b] + spare[b], {})}" for b in buyers
              if cost[b] + spare[b]]
    lines += [_order(s, "sell", qty, symbol, "limit", price) for s, qty, price in sells]
    lines += [_order(b, "buy", qty, symbol, kind, price) for b, qty, price, kind in buys]
    lines += [f"expect: {s} money={proceeds[s]}" for s in sellers]
    lines += [f"expect: {b} {_holdings(spare[b], {symbol: bought[b]})}" for b in buyers]
    lines += [f"expect: {account} money=0" for account in _FLAT]
    return "\n".join(lines) + "\n"


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random composition of `total` into `parts` positive terms."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def block_alloc(seed: int, *, blocks: int, allocations: int) -> str:
    """Institutional blocks (SECO B), each allocated to `allocations` end clients.

    `blocks` buying institutions (BR1, custodian CU1) and `blocks` selling
    institutions (BR2, custodian CU2) place one block each, in sell/buy
    pairs of equal size at one price, so every block fills with one trade.
    Each block is split over its own end clients, which makes many accounts
    over few steps.
    """
    rng = random.Random(seed)
    symbol = "ACME"
    price = rng.randint(900, 1100)
    lines = _header("block_alloc", seed, (symbol,)) + ["custodian: CU1", "custodian: CU2"]
    institutions, orders, allocs, expect = [], [], [], []
    total = 0
    for block in range(1, blocks + 1):
        buy_split = [rng.randint(1, 60) for _ in range(allocations)]
        qty = sum(buy_split)
        sell_split = _split(rng, qty, allocations)
        total += qty
        for side, broker, custodian, split in (
            ("sell", "BR2", "CU2", sell_split),
            ("buy", "BR1", "CU1", buy_split),
        ):
            inst = f"I{side[0].upper()}{block:02d}"
            ends = [f"{inst}E{n:03d}" for n in range(1, allocations + 1)]
            institutions.append(
                f"institution: {inst} broker={broker} custodian={custodian} "
                f"ends={','.join(ends)}")
            orders.append(_order(inst, side, qty, symbol, "limit", price))
            pairs = " ".join(f"{end}={q}" for end, q in zip(ends, split))
            allocs.append(f"allocate: {inst} order={len(orders)} {pairs}")
            for end, q in zip(ends, split):
                got = {symbol: q} if side == "buy" else {}
                expect.append(f"expect: {end} {_holdings(price * q if side == 'sell' else 0, got)}")
    endow = [
        f"endow: CU1.omnibus money={price * total}",
        f"endow: CU2.omnibus {symbol}={total}",
    ]
    expect += [f"expect: {account} money=0"
               for account in ("CU1.omnibus", "CU2.omnibus", *_FLAT)]
    return "\n".join(lines + institutions + endow + orders + allocs + expect) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    product: str                       # shipped configuration: seco_a or seco_b
    generate: Callable[..., str]
    params: dict[str, int]             # generator sizes; the seed varies the rest

    def scenario_text(self, seed: int, **overrides: int) -> str:
        return self.generate(seed, **{**self.params, **overrides})


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("retail_cross", "seco_a", retail_cross, {"pairs": 200, "prices": 5}),
        Workload("deep_book", "seco_b", deep_book,
                 {"levels": 96, "per_level": 8, "clients": 8}),
        Workload("block_alloc", "seco_b", block_alloc, {"blocks": 10, "allocations": 100}),
    )
}
