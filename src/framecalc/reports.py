"""Deterministic check reports.

A report is a subject, a list of named check items, and a discrepancy ledger
comparing declared expected values against computed ones. Text and JSON
renderings are byte-stable: no timestamps, no environment data, fixed key
order.
"""
from __future__ import annotations

from .record import Record

PASS = "pass"
FAIL = "fail"
ERROR = "error"
PRECONDITION = "precondition_violated"

_BAD = (FAIL, ERROR, PRECONDITION)


class CheckItem(Record):
    def __init__(self, name: str, status: str, defect: str | None = None):
        self.name = name
        self.status = status
        self.defect = defect


class LedgerEntry(Record):
    def __init__(self, source: str, expected: str, computed: str):
        self.source = source
        self.expected = expected
        self.computed = computed


class CheckReport(Record):
    __hash__ = None

    def __init__(self, subject: str, items: list | None = None,
                 ledger: list | None = None):
        self.subject = subject
        self.items = [] if items is None else items
        self.ledger = [] if ledger is None else ledger

    def add(self, name: str, ok: bool, defect: str | None = None) -> None:
        self.items.append(CheckItem(name, PASS if ok else FAIL,
                                    None if ok else defect))

    def add_check(self, name: str, defects: list, prefix: str = "") -> None:
        """An item that passes when defects is empty, else lists them."""
        self.add(name, not defects, prefix + "; ".join(map(str, defects)))

    def add_item(self, item: CheckItem) -> None:
        self.items.append(item)

    def add_ledger(self, source: str, expected: str, computed: str) -> None:
        self.ledger.append(LedgerEntry(source, expected, computed))

    @property
    def overall(self) -> str:
        if any(item.status in _BAD for item in self.items):
            return "fail"
        if self.ledger:
            return "discrepancies"
        return "pass"

    @property
    def exit_code(self) -> int:
        # 0: all checks pass, empty ledger. 1: some check failed.
        # 2: checks pass but declared expected values disagree.
        code = {"pass": 0, "fail": 1, "discrepancies": 2}
        return code[self.overall]

    def to_obj(self) -> dict:
        items = []
        for item in self.items:
            o = {"name": item.name, "status": item.status}
            if item.defect is not None:
                o["defect"] = item.defect
            items.append(o)
        return {
            "subject": self.subject,
            "overall": self.overall,
            "items": items,
            "ledger": [{"source": e.source, "expected": e.expected,
                        "computed": e.computed} for e in self.ledger],
        }

    def render_json(self) -> str:
        import json  # here, not at the top: only JSON output pays its import
        return json.dumps(self.to_obj(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [f"subject: {self.subject}", f"overall: {self.overall}"]
        if not self.items and not self.ledger:
            lines.append("  no checks run")
        if self.items:
            width = max(len(item.name) for item in self.items)
            for item in self.items:
                line = f"  {item.name.ljust(width)}  {item.status}"
                if item.defect is not None:
                    line += f"  [{item.defect}]"
                lines.append(line)
        if self.ledger:
            lines.append("ledger:")
            for e in self.ledger:
                lines.append(f"  [{e.source}] expected {e.expected}; computed {e.computed}")
        return "\n".join(lines) + "\n"


def combine(subject: str, sections: list) -> CheckReport:
    """Merge section reports into one, prefixing item names by section subject."""
    out = CheckReport(subject)
    for sec in sections:
        for item in sec.items:
            out.add_item(CheckItem(f"{sec.subject}: {item.name}", item.status,
                                   item.defect))
        out.ledger.extend(sec.ledger)
    return out
