"""Pass/fail report items carrying law names and witnesses."""

from dataclasses import dataclass


@dataclass
class CheckItem:
    law: str
    ok: bool
    witness: tuple = ()

    def __str__(self):
        if self.ok:
            return f"PASS {self.law}"
        return f"FAIL {self.law} witness=({','.join(map(str, self.witness))})"


def _first_witness(law, witnesses):
    """law failed at the first witness the iterable yields, else passed."""
    for witness in witnesses:
        return CheckItem(law, False, witness)
    return CheckItem(law, True)


@dataclass
class Report:
    items: list

    @property
    def all_ok(self):
        return all(it.ok for it in self.items)

    def failures(self):
        return [it for it in self.items if not it.ok]

    def __str__(self):
        return "\n".join(str(it) for it in self.items)
