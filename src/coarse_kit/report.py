"""Machine-readable verification reports.

Reports are deterministic JSON: every numeric value is carried as a string
(integers and `p/q` rationals round-trip losslessly), keys are sorted, and
nothing time-dependent is written — wall-clock timing goes to the console,
not the artifact.  A report carries its witness cochains inline under
``witnesses``, each as the object ``{cell: value}`` of its nonzero values.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def encode_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    return str(v)


def decode_number(s):
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


@dataclass
class VerificationReport:
    command: str
    params: dict
    records: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    node_count: int = 0
    version: str = __version__

    def add(self, name, status, **values):
        self.records.append({
            "name": name,
            "status": status,
            "values": {k: encode_value(v) for k, v in values.items()},
        })
        return status

    def check(self, name, ok, **values):
        return self.add(name, PASS if ok else FAIL, **values)

    @property
    def status(self):
        if any(r["status"] == FAIL for r in self.records):
            return FAIL
        if any(r["status"] == INCONCLUSIVE for r in self.records):
            return INCONCLUSIVE
        return PASS

    def exit_code(self):
        return {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}[self.status]

    def to_json(self):
        payload = {
            "command": self.command,
            "params": {k: encode_value(v) for k, v in self.params.items()},
            "records": self.records,
            "witnesses": self.witnesses,
            "node_count": str(self.node_count),
            "status": self.status,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_report(path):
    with open(path) as fp:
        return json.load(fp)
