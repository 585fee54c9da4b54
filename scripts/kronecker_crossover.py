"""Time the Kronecker packing of the exact kernel against plainer forms.

    PYTHONPATH=src python3 scripts/kronecker_crossover.py

Prints one Markdown table per comparison, in microseconds per call (the
best of three timed batches, each at least 20 ms): packing and unpacking
at slots of at most 8 bytes by :mod:`struct`, as the library does, against
the slot-by-slot ``int.to_bytes`` form it keeps for wider slots, on seeded
random polynomials spread over three exponent slots per term; then one
batched decode of a class-boundary solve's values, as ``greensolver``
reads delta and delta Z at q = 2^K, against one decode per value; then the
rotation part of the Molien sum for one class function, m (m + 1)
reduced products in Z[zeta_m] against one packed dot product of
floor(m/2) + 1 terms.
"""

from __future__ import annotations

import random
import time
from itertools import compress

from lsgreen import exactalg as ea
from lsgreen import fakedegree as fd
from lsgreen.dihedral import irreps

SPAN = 3      # exponent slots per term of the operands


def poly(rng: random.Random, n: int, bits: int) -> dict[int, int]:
    exps = rng.sample(range(SPAN * n), n)
    return {e: rng.choice((-1, 1)) * rng.randrange(1, 1 << bits) for e in exps}


def pack_by_slot(c: dict[int, int], lo: int, kb: int, n: int) -> int:
    """``exactalg._kron_pack`` as it packs slots wider than 8 bytes."""
    half = 1 << (8 * kb - 1)
    slots = [half] * n
    for e, v in c.items():
        slots[e - lo] += v
    raw = b"".join([v.to_bytes(kb, "little") for v in slots])
    return int.from_bytes(raw, "little") - int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")


def unpack_by_slot(x: int, kb: int, n: int, lo: int) -> dict[int, int]:
    """``exactalg._kron_unpack`` as it unpacks slots wider than 8 bytes."""
    raw = (x + int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")).to_bytes(kb * n, "little")
    half = 1 << (8 * kb - 1)
    digits = [int.from_bytes(raw[j:j + kb], "little") - half for j in range(0, kb * n, kb)]
    return dict(compress(zip(range(lo, lo + n), digits), digits))


def rotation_sum_by_element(m: int, rot) -> list[ea.CycloNum]:
    """``fakedegree._rotation_sum`` as m (m + 1) products in Z[zeta_m]:
    f(rho^k) times each coefficient of C_k = C_(m-k), unpaired."""
    cof = fd._rotation_cofactors(m)
    nrot = [fd._czero(m)] * (m + 1)
    for k, fv in enumerate(rot):
        if not fv.is_zero():
            for e, c in enumerate(cof[min(k, m - k)]):
                if not c.is_zero():
                    nrot[e] = nrot[e] + fv * c
    return nrot


def usec(fn, *args) -> float:
    best = float("inf")
    for _ in range(3):
        reps, elapsed = 0, 0.0
        start = time.perf_counter()
        while elapsed < 0.02:
            fn(*args)
            reps += 1
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return best * 1e6


def row(label: str, old: float, new: float) -> str:
    return f"| {label} | {old:,.1f} | {new:,.1f} | {old / new:.2f} |"


def main() -> None:
    rng = random.Random(2009)
    head = "| {} | slot by slot (µs) | struct (µs) | speed-up |\n|---|---:|---:|---:|"
    for what in ("Packing", "Unpacking"):
        print(f"\n{what} n terms into slots of kb bytes\n")
        print(head.format("n, kb"))
        for n in (16, 64, 256):
            for kb in (3, 8):
                c = poly(rng, n, bits=8 * kb - 4)
                lo, slots = min(c), max(c) - min(c) + 1
                x = ea._kron_pack(c, lo, kb, slots)
                assert x == pack_by_slot(c, lo, kb, slots)
                assert ea._kron_unpack(x, kb, slots, lo) == unpack_by_slot(x, kb, slots, lo) == c
                if what == "Packing":
                    old, new = usec(pack_by_slot, c, lo, kb, slots), usec(ea._kron_pack, c, lo, kb, slots)
                else:
                    old, new = usec(unpack_by_slot, x, kb, slots, lo), usec(ea._kron_unpack, x, kb, slots, lo)
                print(row(f"{n}, {kb}", old, new))

    print("\nDecoding the values of one integer solve at 2^K\n")
    print("| values, slots, K | one decode per value (µs) | one batched decode (µs) | speed-up |\n"
          "|---|---:|---:|---:|")
    for count, slots, kb in ((12, 9, 2), (35, 19, 3), (80, 31, 5)):
        bits = 8 * kb - 4
        polys = [{e: rng.randrange(-(1 << bits), 1 << bits) for e in range(slots)}
                 for _ in range(count)]
        xs = [ea._kron_pack(c, 0, kb, slots) for c in polys]
        want = [{e: v for e, v in c.items() if v} for c in polys]
        got = ea._kron_unpack_many(xs, kb, slots, 0)
        assert got == want == [ea._kron_unpack(x, kb, slots, 0) for x in xs]
        one = usec(lambda: [ea._kron_unpack(x, kb, slots, 0) for x in xs])
        batched = usec(ea._kron_unpack_many, xs, kb, slots, 0)
        print(row(f"{count}, {slots}, {8 * kb}", one, batched))

    print("\nThe rotation sum of chi_1 . chi_2 . eps, as one omega entry takes it\n")
    print("| m (phi) | element by element (µs) | packed (µs) | speed-up |\n|---|---:|---:|---:|")
    for m in (3, 8, 9, 12, 13, 15, 29, 30, 40):
        chars = irreps(m)
        rot = [a * b * e for a, b, e in zip(chars[1].values, chars[2].values, chars[-1].values)][:m]
        assert fd._rotation_sum(m, rot) == rotation_sum_by_element(m, rot)
        label = f"{m} ({ea.euler_phi(m)})"
        print(row(label, usec(rotation_sum_by_element, m, rot), usec(fd._rotation_sum, m, rot)))


if __name__ == "__main__":
    main()
