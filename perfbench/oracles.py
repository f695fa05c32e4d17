"""Independent answers for the benchmark's correctness checks.

Nothing here imports latticecalc.  The builtin interactions are restated
from their definitions, finite counts come from closed forms, and the few
answers without a closed form (kernel ranks and bases) are recorded from the
program at the commit that defined the benchmark, keyed on untranslated
windows.  Configurations are tuples of state indices over consecutive
integer sites starting at ``first``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

# ---------------------------------------------------------------------------
# builtin interactions, restated


def _swaps(n):
    return {(j, k): [(k, j)] for j, k in product(range(n), repeat=2) if j != k}


def interaction(name: str):
    """(labels, base index, {pair: sorted target pairs}) of a builtin id."""
    if name == "exclusion":
        return ("0", "1"), 0, _swaps(2)
    if name.startswith("multispecies:"):
        kappa = int(name.split(":", 1)[1])
        return tuple(str(i) for i in range(kappa + 1)), 0, _swaps(kappa + 1)
    if name == "quastel2":
        moves = _swaps(3)
        del moves[(1, 2)], moves[(2, 1)]
        return ("0", "1", "2"), 0, moves
    if name == "two-species-ac":
        m, z, p = 0, 1, 2
        pairs = [((m, z), (z, m)), ((p, z), (z, p)), ((p, m), (m, p)),
                 ((p, m), (z, z)), ((z, z), (m, p))]
        moves: dict = {}
        for src, dst in pairs + [(d, s) for s, d in pairs]:
            moves.setdefault(src, set()).add(dst)
        return ("-1", "0", "1"), 1, {k: sorted(v) for k, v in moves.items()}
    raise ValueError(f"not a builtin id: {name!r}")


# unordered configuration pairs one move apart, per graph edge
_MOVES_PER_EDGE = {"exclusion": 1, "two-species-ac": 5, "quastel2": 2}


def consv_basis(name: str) -> list[dict[str, Fraction]]:
    """Canonical conserved-quantity basis over the declared base."""
    labels, _, _ = interaction(name)
    if name == "two-species-ac":
        return [{"-1": Fraction(1), "0": Fraction(0), "1": Fraction(-1)}]
    # particle counts per species; quastel2 conserves the same two
    return [
        {lbl: Fraction(int(lbl == labels[j])) for lbl in labels}
        for j in range(1, len(labels))
    ]


def exchangeable(name: str) -> bool:
    return name != "quastel2"


# ---------------------------------------------------------------------------
# closed forms


def h0_counts(name: str, kind: str, n: int) -> dict[str, int]:
    """dim_c0, dim_c1, rank, h0, h1 of a builtin on ``path:n`` or ``cycle:n``.

    h0 counts the conserved classes: particle number n+1 for exclusion,
    species counts C(n+kappa, kappa) for multispecies, charge 2n+1 for
    two-species-ac, and words over {1, 2} of length <= n (2^(n+1) - 1) for
    quastel2, whose two species never pass each other.
    """
    labels, _, _ = interaction(name)
    q = len(labels)
    if name.startswith("multispecies:"):
        kappa = q - 1
        h0, moves = comb(n + kappa, kappa), comb(q, 2)
    else:
        moves = _MOVES_PER_EDGE[name]
        h0 = {"exclusion": n + 1, "two-species-ac": 2 * n + 1,
              "quastel2": 2 ** (n + 1) - 1}[name]
    if kind == "cycle" and name != "exclusion":
        raise ValueError("cycle closed form known for exclusion only")
    edges = n if kind == "cycle" else n - 1
    dim_c0 = q ** n
    dim_c1 = edges * moves * q ** (n - 2)
    rank = dim_c0 - h0
    return {"dim_c0": dim_c0, "dim_c1": dim_c1, "rank": rank, "h0": h0,
            "h1": dim_c1 - rank}


def multinomial(total: int, *parts: int) -> int:
    out = factorial(total)
    for p in parts + (total - sum(parts),):
        out //= factorial(p)
    return out


def central_trinomial(n: int) -> int:
    """Charge-0 configurations of n sites with states -1, 0, 1."""
    return sum(multinomial(n, k, k) for k in range(n // 2 + 1))


def kernel_unknowns(name: str, radius: int, length: int) -> int:
    """Exact-support table entries of every support of span <= radius (k=1)."""
    nonbase = len(interaction(name)[0]) - 1
    total = 0
    for x in range(length):
        others = min(radius, length - 1 - x)
        for r in range(others + 1):
            total += comb(others, r) * nonbase ** (1 + r)
    return total


# ---------------------------------------------------------------------------
# kernel answers recorded at the defining commit (window translated to the
# one listed; the basis digest is over supports shifted back by that amount)

KERNEL = {
    # (interaction, radius, lo, hi, base label): (rank, basis sha256)
    ("exclusion", 1, -8, 8, "0"):
        (30, "ee068c41c9d42d35e1150d0744de6d98f58668479a15d5047214233038359059"),
    ("multispecies:2", 1, -6, 6, "0"):
        (68, "f0e490b5ee682069eaece7d4665e52ece2a618b130ba2bcd408647cc02f4ac67"),
    ("two-species-ac", 1, -6, 6, "0"):
        (69, "767fa3abb944ff07be7e73936196e3063a810ebd959c3fc9e6e3611a902b5248"),
    ("two-species-ac", 1, -6, 6, "-1"):
        (69, "5c8d363d454dad5db0e82322a2a5c49d10faf3f8b86312746c61127d4a50dfe1"),
    ("quastel2", 1, -8, 8, "0"):
        (92, "be463db19adedc3e464c8f1c0434ebcba48ccfcbdec2b9fb6a1a249e513dbb1f"),
    ("exclusion", 2, -7, 7, "0"):
        (48, "11f44de0af00c5c58410c2446054bb6f8124706296db5ebdc76a9db28d9073c2"),
    ("quastel2", 1, -4, 4, "0"):
        (44, "9f33e1ce2c01ab67d9012803af299573bfc13ce3d871f5751f8959eeb7b684fd"),
}


def shift_basis(basis: list, by: int) -> list:
    """Kernel basis documents with every support site moved by ``by``."""
    out = []
    for fn in basis:
        fn = dict(fn)
        key = "components" if "components" in fn else "template"
        fn[key] = [
            {"support": [s + by for s in c["support"]], "table": c["table"]}
            for c in fn[key]
        ]
        out.append(fn)
    return out


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# transitions on integer windows


def _doc(edge, pair, target, labels) -> dict:
    return {"edge": list(edge), "from": [labels[pair[0]], labels[pair[1]]],
            "to": [labels[target[0]], labels[target[1]]]}


def neighbors(name: str, eta: tuple, first: int):
    """Single transitions out of ``eta`` as (document, after) pairs.

    Mirrors the documented order on a range-1 window: edges left to right,
    both orientations, targets sorted, one entry per reached configuration
    and edge.
    """
    labels, _, moves = interaction(name)
    out = []
    for i in range(len(eta) - 1):
        seen = set()
        for a, b in ((i, i + 1), (i + 1, i)):
            pair = (eta[a], eta[b])
            for target in moves.get(pair, ()):
                after = list(eta)
                after[a], after[b] = target
                after = tuple(after)
                if after in seen:
                    continue
                seen.add(after)
                edge = (a + first, b + first)
                out.append((_doc(edge, pair, target, labels), after))
    return out


def component_lines(name: str, eta: tuple, first: int) -> list[str]:
    """Streamed JSON lines of a breadth-first ``component`` run."""
    visited = {eta}
    frontier = [eta]
    lines = []
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    while frontier:
        nxt = []
        for cur in frontier:
            for doc, after in neighbors(name, cur, first):
                if after not in visited:
                    visited.add(after)
                    lines.append(dumps(doc))
                    nxt.append(after)
        frontier = nxt
    return lines


def replay(name: str, eta: tuple, first: int, docs) -> tuple | None:
    """Apply transition documents in order; None when one does not fire."""
    labels, _, moves = interaction(name)
    cur = list(eta)
    for doc in docs:
        x, y = (s - first for s in doc["edge"])
        pair = tuple(labels.index(s) for s in doc["from"])
        target = tuple(labels.index(s) for s in doc["to"])
        if not (0 <= x < len(cur) and 0 <= y < len(cur)) or abs(x - y) != 1:
            return None
        if (cur[x], cur[y]) != pair or target not in moves.get(pair, ()):
            return None
        cur[x], cur[y] = target
    return tuple(cur)


# ---------------------------------------------------------------------------
# local and uniform functions


def mobius(labels, base: int, support, table: dict[str, Fraction]):
    """Exact-support components {support: {key: value}} of a dense function."""
    n = len(support)

    def value(assign):
        return table.get(",".join(labels[s] for s in assign), Fraction(0))

    out = {}
    for size in range(n + 1):
        for pos in combinations(range(n), size):
            comp = {}
            for states in product([s for s in range(len(labels)) if s != base],
                                  repeat=size):
                total = Fraction(0)
                for sub in range(size + 1):
                    for keep in combinations(range(size), sub):
                        full = [base] * n
                        for p in keep:
                            full[pos[p]] = states[p]
                        total += (-1) ** (size - sub) * value(full)
                if total:
                    comp[",".join(labels[s] for s in states)] = total
            if comp:
                out[tuple(support[p] for p in pos)] = comp
    return out


def evaluate(labels, fn_doc: dict, window: tuple[int, int], eta: tuple) -> Fraction:
    """Value of a translated uniform function at a full window configuration.

    Every translate of every template component that fits in the window
    contributes its table entry; absent entries are zero.
    """
    a, b = window
    total = Fraction(0)
    for comp in fn_doc["template"]:
        support = comp["support"]
        if not support:
            continue
        table = comp["table"]
        for t in range(a - min(support), b - max(support) + 1):
            key = ",".join(labels[eta[s + t - a]] for s in support)
            if key in table:
                total += Fraction(table[key])
    return total
