"""SEC003 fixture: one violation silenced per-line, one left audible."""


def justified(leaf):
    if leaf > 4:  # reprolint: disable=SEC003 -- fixture justification
        return 1
    return 0


def audible(leaf):
    if leaf > 4:                            # still flagged
        return 1
    return 0
