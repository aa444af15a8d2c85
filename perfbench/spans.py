"""Spans around each layer's public entry points, and the per-layer metrics.

`Tracer` replaces each entry point in `entry_points()` with a wrapper that
records a span (name, start, end, parent) and restores the originals when
it exits, so nothing under ``src/`` changes and untraced runs call the
program's own functions. A layer is a module of ``stpsim``; a span's name
is ``<module>.<qualified name>`` and its layer is the module.

Self time is a span's duration minus the durations of its child spans.
Spans nest strictly (the program is single-threaded), so the self times of
a span and all its descendants add up to that span's duration.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from stpsim import assembly, features, lifecycle, report, scenarios
from stpsim.broker import BrokerService
from stpsim.clearing import ClearingCorporation
from stpsim.custodian import CustodianService
from stpsim.exchange import ExchangeService
from stpsim.ledger import Ledger
from stpsim.trading import Rejection

_MARK = "__perfbench_span__"


def _placement(args, result) -> dict:
    rejected = isinstance(result, Rejection)
    return {"order_id": None if rejected else result, "rejected": rejected}


def _submit(args, result) -> dict:
    exchange, order = args[0], args[1]
    return {"order_id": order.order_id, "trades": len(result),
            "depth": exchange.book_depth(order.symbol)}


def entry_points():
    """(owner, attribute, note) for every wrapped call.

    `note(args, result)` returns the counts a span carries; it runs after
    the span ends, so its cost is not charged to the span.
    """
    return (
        (features, "parse_feature_model", None),
        (features, "parse_configuration", None),
        (features, "validate_configuration", None),
        (features, "derive_product", None),
        (scenarios, "parse_scenario", None),
        (assembly, "build_ecosystem", lambda a, r: {"accounts": len(r.ledger.accounts)}),
        (lifecycle.ScenarioRunner, "run", lambda a, r: {"steps": len(r.steps)}),
        (lifecycle, "assert_conservation", None),
        (Ledger, "snapshot", lambda a, r: {"accounts": len(r)}),
        (Ledger, "transfer_money", None),
        (Ledger, "transfer_equity", None),
        (BrokerService, "place_retail_order", _placement),
        (BrokerService, "place_institutional_order", _placement),
        (BrokerService, "handle_allocation_details", None),
        (BrokerService, "settle_retail_rec", lambda a, r: {"credits": r}),
        (ExchangeService, "validate_incoming_order", None),
        (ExchangeService, "submit_order", _submit),
        (ExchangeService, "best_quote", None),
        (ExchangeService, "report_trades_rec", None),
        (ClearingCorporation, "clear_rec", lambda a, r: {"obligations": len(r)}),
        (ClearingCorporation, "settle_rec", lambda a, r: {"instructions": len(r)}),
        (CustodianService, "receive_allocation_details", lambda a, r: {"allocations": len(a[1])}),
        (CustodianService, "affirm_contracts", None),
        (CustodianService, "send_trades_to_clearing_rec", None),
        (CustodianService, "settle_institutional_rec", None),
        (report, "render_machine", lambda a, r: {"lines": r.count("\n")}),
        (report, "parse_machine", None),
        (report, "render_parsed", None),
    )


def span_name(owner, attribute: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.removeprefix('stpsim.')}.{owner.__name__}.{attribute}"
    return f"{owner.__name__.removeprefix('stpsim.')}.{attribute}"


def assert_untraced() -> None:
    """Raise if any entry point is still wrapped."""
    left = [span_name(owner, attribute) for owner, attribute, _ in entry_points()
            if hasattr(getattr(owner, attribute), _MARK)]
    if left:
        raise RuntimeError(f"tracing wrappers left in place: {', '.join(left)}")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: int                 # perf_counter_ns
    end: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Context manager: wraps every entry point on enter, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attribute, note in entry_points():
                original = getattr(owner, attribute)
                setattr(owner, attribute, self._wrap(original, span_name(owner, attribute), note))
                self._saved.append((owner, attribute, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, original, name: str, note):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, open_spans[-1] if open_spans else None, clock())
            spans.append(span)
            open_spans.append(span.sid)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                open_spans.pop()
            if note is not None:
                span.attrs = note(args, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({"id": span.sid, "name": span.name, "parent": span.parent,
                                      "start_ns": span.start, "end_ns": span.end,
                                      **span.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus its children's durations, in ns."""
    own = {span.sid: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def _percentile_us(durations_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when there are no samples."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e3


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced repeat, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_s(*names: str) -> float:
        return sum(own[span.sid] for name in names for span in by_name.get(name, ())) / 1e9

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, key: str) -> int:
        return sum(span.attrs[key] for span in by_name.get(name, ()))

    def durations(*names: str) -> list[int]:
        return [span.end - span.start for name in names for span in by_name.get(name, ())]

    place = ("broker.BrokerService.place_retail_order",
             "broker.BrokerService.place_institutional_order")
    submit = "exchange.ExchangeService.submit_order"
    transfers = ("ledger.Ledger.transfer_money", "ledger.Ledger.transfer_equity")
    trades = total(submit, "trades")
    obligations = total("clearing.ClearingCorporation.clear_rec", "obligations")
    return {
        "features.setup_s": self_s("features.parse_feature_model", "features.parse_configuration",
                                   "features.validate_configuration", "features.derive_product"),
        "scenarios.parse_s": self_s("scenarios.parse_scenario"),
        "assembly.build_s": self_s("assembly.build_ecosystem"),
        "assembly.accounts": total("assembly.build_ecosystem", "accounts"),
        "lifecycle.run_self_s": self_s("lifecycle.ScenarioRunner.run"),
        "lifecycle.steps": total("lifecycle.ScenarioRunner.run", "steps"),
        "lifecycle.check_s": self_s("lifecycle.assert_conservation"),
        "ledger.snapshot_s": self_s("ledger.Ledger.snapshot"),
        "ledger.snapshot_calls": calls("ledger.Ledger.snapshot"),
        "ledger.snapshot_accounts": total("ledger.Ledger.snapshot", "accounts"),
        "ledger.transfer_s": self_s(*transfers),
        "ledger.transfers": sum(calls(name) for name in transfers),
        "broker.place_self_s": self_s(*place),
        "broker.place_p50_us": _percentile_us(durations(*place), 0.50),
        "broker.place_p99_us": _percentile_us(durations(*place), 0.99),
        "broker.rejections": sum(total(name, "rejected") for name in place),
        "broker.alloc_s": self_s("broker.BrokerService.handle_allocation_details"),
        "broker.credit_s": self_s("broker.BrokerService.settle_retail_rec"),
        "broker.credits": total("broker.BrokerService.settle_retail_rec", "credits"),
        "exchange.validate_s": self_s("exchange.ExchangeService.validate_incoming_order"),
        "exchange.submit_s": self_s(submit),
        "exchange.submit_p99_us": _percentile_us(durations(submit), 0.99),
        "exchange.quote_s": self_s("exchange.ExchangeService.best_quote"),
        "exchange.depth_max": max((span.attrs["depth"] for span in by_name.get(submit, ())),
                                  default=0),
        "exchange.trades": trades,
        "exchange.report_s": self_s("exchange.ExchangeService.report_trades_rec"),
        "clearing.clear_s": self_s("clearing.ClearingCorporation.clear_rec"),
        "clearing.settle_s": self_s("clearing.ClearingCorporation.settle_rec"),
        "clearing.obligations": obligations,
        "clearing.instructions": total("clearing.ClearingCorporation.settle_rec", "instructions"),
        # a correct run clears every trade, so the trades matched are the trades cleared
        "clearing.netting_ratio": obligations / (2 * trades) if trades else 0.0,
        "custodian.details_s": self_s("custodian.CustodianService.receive_allocation_details"),
        "custodian.affirm_s": self_s("custodian.CustodianService.affirm_contracts"),
        "custodian.forward_s": self_s("custodian.CustodianService.send_trades_to_clearing_rec"),
        "custodian.distribute_s": self_s("custodian.CustodianService.settle_institutional_rec"),
        "custodian.allocations": total("custodian.CustodianService.receive_allocation_details",
                                       "allocations"),
        "report.render_s": self_s("report.render_machine"),
        "report.lines": total("report.render_machine", "lines"),
        "report.parse_s": self_s("report.parse_machine"),
        "report.render_parsed_s": self_s("report.render_parsed"),
    }
