"""The benchmark's workloads: each module holds one fixed, ordered job list.

A job is a function of a context object (see ``worker.Context``) that
calls into bscoal through ``ctx.L`` and checks every output it gets.
"""

import hashlib

NAMES = ("exact", "sampling", "sweep", "cli")


def registry():
    """A job list and the decorator that appends to it, in source order."""
    jobs = []

    def job(name, smoke=False):
        def add(fn):
            jobs.append((name, fn, smoke))
            return fn

        return add

    return jobs, job


def sha(parts) -> str:
    """Digest of a sequence of strings (one per line)."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()


def frac(v) -> str:
    """Exact rational as the library's "num/den" string."""
    return f"{v.numerator}/{v.denominator}"
