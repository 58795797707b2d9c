"""Reference arithmetic the benchmark checks the program's outputs against.

Written independently of the package under test: exact product expansion,
the verification digest format, and a direct test of sum-side conditions on a
single partition.  Conditions use the package's JSON form (the ConditionSet
file format), so the checks work on the same files the CLI reads.
"""

from __future__ import annotations

import hashlib


def expand_periodic(profile: list[int], order: int) -> list[int]:
    """Coefficients of prod_{m=1..order} (1 - q^m)^(-a_m) through q^order,
    with a_m = profile[(m - 1) % len(profile)]."""
    period = len(profile)
    c = [1] + [0] * order
    for m in range(1, order + 1):
        e = profile[(m - 1) % period]
        for _ in range(e):  # times 1/(1 - q^m): running sum with stride m
            for i in range(m, order + 1):
                c[i] += c[i - m]
        for _ in range(-e):  # times (1 - q^m), from the top down
            for i in range(order, m - 1, -1):
                c[i] -= c[i - m]
    return c


def residue_profile(modulus: int, residues: list[int]) -> list[int]:
    """Exponent profile of 'parts congruent to residues (mod modulus)'."""
    return [1 if r in residues else 0 for r in range(1, modulus + 1)]


def digest(coeffs: list[int]) -> str:
    """The verification report digest: sha256 of comma-joined decimals."""
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()


def satisfies(parts: tuple[int, ...], conditions: dict) -> bool:
    """Whether weakly decreasing positive parts obey every rule in a
    condition file's JSON object."""
    smallest = conditions.get("smallest")
    if smallest is not None:
        low, cap = smallest["min_part"], smallest["max_mult"]
        if parts and parts[-1] < low:
            return False
        if cap != "unbounded" and parts.count(low) > cap:
            return False
    for r in conditions.get("diffs", []):
        d = r["distance"]
        if any(parts[j] - parts[j + d] < r["min_diff"] for j in range(len(parts) - d)):
            return False
    for r in conditions.get("congruences", []):
        s = r["span"]
        for j in range(len(parts) - s):
            if parts[j] <= parts[j + s] + r["gap"]:
                if sum(parts[j : j + s + 1]) % r["modulus"] != r["residue"]:
                    return False
    return True
