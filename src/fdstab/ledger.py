"""Named-constant ledger with leveled log values and JSON export.

Each entry stores a positive constant as a :class:`~fdstab.logscale.LogReal`
together with a one-line ``formula`` string stating how it is defined.
The JSON form emits, per entry, the plain ``value`` and ``log_value``
whenever they fit in a float64 (``null`` otherwise) plus the exact leveled
representation, in insertion order so golden-file diffs stay stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .logscale import LogReal


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    value: LogReal
    formula: str

    def to_json_dict(self) -> dict:
        log_value = self.value.ln_float() if self.value.log_representable else None
        plain = self.value.to_float() if self.value.representable else None
        return {
            "name": self.name,
            "log_value": log_value,
            "value": plain,
            "formula": self.formula,
            "log_scale": self.value.to_repr(),
        }


@dataclass
class ConstantLedger:
    entries: dict[str, LedgerEntry] = field(default_factory=dict)

    def put(self, name: str, value: LogReal | float, formula: str) -> None:
        if not isinstance(value, LogReal):
            value = LogReal.from_float(float(value))
        if name in self.entries:
            raise KeyError(f"duplicate ledger entry {name!r}")
        self.entries[name] = LedgerEntry(name, value, formula)

    def __getitem__(self, name: str) -> LogReal:
        return self.entries[name].value

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> list[str]:
        return list(self.entries)

    def to_json(self) -> str:
        payload = [e.to_json_dict() for e in self.entries.values()]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConstantLedger":
        """Rebuild a ledger from :meth:`to_json` output via the exact
        leveled ``log_scale`` form, canonicalized (the plain values are not
        read)."""
        led = cls()
        for e in json.loads(text):
            ls = e["log_scale"]
            value = LogReal.canonical(ls["lnsign"], ls["lndepth"], ls["lnmag"])
            led.entries[e["name"]] = LedgerEntry(e["name"], value, e["formula"])
        return led

    def close_to(self, other: "ConstantLedger", rel: float = 1e-12) -> list[str]:
        """Names of entries that disagree beyond ``rel`` in leveled log form."""
        bad = []
        for name, entry in self.entries.items():
            if name not in other.entries:
                bad.append(name)
            elif not entry.value.close_to(other.entries[name].value, rel):
                bad.append(name)
        for name in other.entries:
            if name not in self.entries:
                bad.append(name)
        return bad
