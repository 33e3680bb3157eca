"""Check records shared by every suite.

A check reports the window of source degrees it actually verified; a pass
is always a pass-on-window claim.
"""

from __future__ import annotations


class CheckOutcome:
    __slots__ = ("id", "window", "status", "detail", "failing_block")

    def __init__(self, id, window, status, detail="", failing_block=None):
        self.id, self.window, self.status = id, window, status  # pass | fail | skipped
        self.detail, self.failing_block = detail, failing_block

    def as_dict(self):
        d = {"id": self.id, "window": list(self.window), "status": self.status}
        if self.detail:
            d["detail"] = self.detail
        if self.failing_block is not None:
            d["first_failing_block"] = self.failing_block
        return d


def zero_check(cid, op) -> CheckOutcome:
    """Pass when every block of the graded operator vanishes; a failure
    names the lowest source degree with a nonzero block."""
    bad = op.first_failing_block()
    if bad is None:
        return CheckOutcome(cid, op.window, "pass")
    return CheckOutcome(
        cid,
        op.window,
        "fail",
        detail="first failing block at degree %d" % bad,
        failing_block=bad,
    )
