"""Replay of `analyze`, `decompose`, `verify` and `witness` against reports
recorded from an earlier build.

tests/data/analyze_golden.jsonl and tests/data/verify_golden.jsonl hold one
record per call: the argument list, the exit code, and standard output and
error as printed.  Each call is replayed through `circulant.cli.main` and
must print the same bytes, so a change that speeds up the analyzer or the
oracle cannot change their answers unnoticed.  The verify calls are every S
with 2 <= n <= 9, which take the regular, symmetric, sylow and enumerate
paths, then each cap with and without --strict, an element reduced mod n,
and one --batch over tests/data/verify_batch.txt, named from the
repository root, where every file is recorded.
tests/data/verify_kernel_golden.jsonl, named for a convolution kernel the
engine no longer has, holds seeded verify calls at
16 <= n <= 64, where the engine refines by splitters every circulant the
oracle's regular certificate does not settle: random S (the regular path), empty and complete S (symmetric), and S = -S
at n = 16, 25, 27 and 32, unions of multiplier orbits at n = 25 and
n = 27 with S = {4, 13, 22}, the slowest known search (sylow).
tests/data/witness_golden.jsonl keeps the sha256 of standard output
in place of the text, since a tower prints one line per arc.
tests/data/poset_golden.jsonl keeps it the same way for `poset` in text,
json and dot at every n <= 64, at a few prime powers and at 2^8 * 3^6.
tests/data/usage_golden.jsonl holds the calls that argparse answers: help,
usage errors and leftover arguments.  They end in SystemExit, so a record
keeps its exit code under "exit" (and "code" is null); help text is laid
out for 80 columns.

To record a file again from a checkout whose output is trusted:

    PYTHONPATH=src python tests/test_golden.py tests/data/analyze_golden.jsonl
    PYTHONPATH=src python tests/test_golden.py tests/data/verify_golden.jsonl
    PYTHONPATH=src python tests/test_golden.py tests/data/verify_kernel_golden.jsonl
    PYTHONPATH=src python tests/test_golden.py tests/data/witness_golden.jsonl
    PYTHONPATH=src python tests/test_golden.py tests/data/poset_golden.jsonl
    PYTHONPATH=src python tests/test_golden.py tests/data/usage_golden.jsonl
"""

import hashlib
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from circulant.cli import main

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.jsonl"
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_golden.jsonl"
KERNEL_GOLDEN = Path(__file__).parent / "data" / "verify_kernel_golden.jsonl"
WITNESS_GOLDEN = Path(__file__).parent / "data" / "witness_golden.jsonl"
POSET_GOLDEN = Path(__file__).parent / "data" / "poset_golden.jsonl"
USAGE_GOLDEN = Path(__file__).parent / "data" / "usage_golden.jsonl"
ROOT = Path(__file__).parent.parent
VERIFY_BATCH = "tests/data/verify_batch.txt"  # from ROOT, as the batch's reports name it
SEED = 20261018
LARGE_NS = [2**k for k in range(16, 23)] + [3**13, 5**9, 2**10 * 3**6, 2**12 * 5**4]


def _literal(n, members):
    return f"n={n}; S={','.join(map(str, sorted(members)))}"


def _coset_union(rng, n, size):
    """Cosets of a random small subgroup around multiples of a random divisor of n."""
    q = rng.choice([q for q in range(1, 9) if n % q == 0])
    scale = gcd(n, rng.choice([1, 1, 2, 3, 4, 5, 8, 9, 16, 25, 27, 64, 81, 125, 256, 729, 1024]))
    starts = [scale * rng.randrange(n // scale) for _ in range(max(1, size // q))]
    return {(x + k * (n // q)) % n for x in starts for k in range(q)}


def _instances():
    """About 300 fixed literals: small and mixed n, the analyze_large n, and edge cases."""
    rng = random.Random(SEED)
    literals = []
    for _ in range(100):  # small mixed n, plain random sets and coset unions
        n = rng.randrange(2, 201)
        size = rng.randrange(0, min(n, 12) + 1)
        members = set(rng.sample(range(n), size)) if rng.random() < 0.4 else _coset_union(rng, n, size)
        literals.append(_literal(n, members))
    for n in LARGE_NS:  # the analyze_large n, up to 2^22
        for _ in range(12):
            literals.append(_literal(n, _coset_union(rng, n, rng.randrange(1, 9))))
    for _ in range(50):  # mixed n up to about 2^22 from the primes 2, 3, 5, 7, 11
        n = 1
        while n < 2 or rng.random() < 0.85:
            p = rng.choice((2, 2, 2, 3, 3, 5, 7, 11))
            if n * p > 2**22:
                break
            n *= p
        literals.append(_literal(n, _coset_union(rng, n, rng.randrange(0, 9))))
    literals += [
        "n=45; S=0,1,15,30",
        "n=9; S=3,6",
        "n=16; S=1,4,5,9,13",
        "n=8; S=",
        "n=2; S=0,1",
        "n=12; S=13,-1",  # reduced mod n, with a warning
        f"n={2**40}; S=1,3,5,7",
        f"n={2**50}; S=",  # past the group cap
        "n=1; S=",  # no prime: no layers, and the one group Z1
    ]
    return literals


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _calls():
    for literal in _instances():
        yield ["analyze", literal, "--format", "json"]
        yield ["decompose", literal, "--format", "json"]


def _verify_calls():
    for n in range(2, 10):
        for mask in range(2**n):
            yield ["verify", _literal(n, [x for x in range(n) if mask >> x & 1]), "--format", "json"]
    # each cap as a report and as exit 3, an element reduced mod n, and a batch
    for capped in (["n=65; S=1"], ["n=12;S=6", "--cap", "100"]):
        for fmt in ("text", "json"):
            yield ["verify", *capped, "--format", fmt]
            yield ["verify", *capped, "--format", fmt, "--strict"]
    yield ["verify", "n=8;S=9,-1", "--format", "json"]
    yield ["verify", "--batch", VERIFY_BATCH, "--cap", "100", "--format", "json"]


def _kernel_verify_calls():
    """About 80 seeded calls at 16 <= n <= 64, inside the convolution kernel's range."""
    rng = random.Random(SEED + 3)
    literals = []
    for _ in range(48):
        n = rng.randint(16, 64)
        literals.append(_literal(n, rng.sample(range(n), rng.randrange(1, n))))
    for n in (16, 21):
        literals += [_literal(n, ()), _literal(n, (0,)), _literal(n, range(1, n))]
    for n in (16, 25, 27, 32):  # S = -S: the dihedral group, a 2-group at n = 16, 32
        for _ in range(7):
            picked = [x for x in range(n) if rng.random() < 0.3]
            literals.append(_literal(n, {y for x in picked for y in (x, -x % n)}))
    for _ in range(4):  # orbits of x -> 6x, of order 5 on Z_25
        picked = [x for x in range(25) if rng.random() < 0.3]
        literals.append(_literal(25, {x * 6**k % 25 for x in picked for k in range(5)}))
    literals.append("n=27; S=4,13,22")  # the slowest known sylow line: |Aut| = 90,699,264
    for literal in literals:
        yield ["verify", literal, "--format", "json"]


def _witness_literals():
    """README literals, towers of many layers, and a seeded sample with n <= 128."""
    rng = random.Random(SEED + 1)
    literals = [
        "n=45;S=0,1,15,30",
        "n=8;S=4",
        "n=9;S=3,6",
        "n=16;S=1,4,5,9,13",
        "n=64;S=",
        "n=243;S=81,162",
        "n=128;S=",
        "n=81;S=",
        "n=125;S=25,50,75,100",
        "n=72;S=",
        f"n={2**20};S=",  # past the arc cap
        "n=1;S=",  # no prime, so no tower
    ]
    for _ in range(145):
        n = rng.randrange(2, 129)
        size = rng.randrange(0, min(n, 10) + 1)
        members = set(rng.sample(range(n), size)) if rng.random() < 0.4 else _coset_union(rng, n, size)
        literals.append(_literal(n, members))
    return literals


def _witness_calls():
    for literal in _witness_literals():
        for fmt in ("text", "dot"):
            yield ["witness", literal, "--format", fmt]


def _poset_calls():
    """Every n <= 64, then prime powers with up to 5,604 groups and one order of two primes."""
    for n in list(range(1, 65)) + [2**10, 2**16, 2**20, 2**30, 3**9, 5**7, 7**6, 2**8 * 3**6]:
        for fmt in ("text", "json", "dot"):
            yield ["poset", str(n), "--format", fmt]


def _hashed_run(argv):
    record = _run(argv)
    record["stdout_sha256"] = hashlib.sha256(record.pop("stdout").encode()).hexdigest()
    return record


def _usage_calls():
    """Help on every parser, usage errors, leftovers and an abbreviated flag."""
    literal = "n=8;S=1"
    yield []
    yield ["--help"]
    for command in ("analyze", "decompose", "witness", "generate", "verify", "poset"):
        yield [command, "-h"]
    yield ["frobnicate"]
    yield ["analyze"]
    yield ["analyze", literal, "--format", "dot"]
    yield ["analyze", literal, "--strip-loops"]
    yield ["analyze", literal, "extra"]
    yield ["analyze", literal, "--form", "json"]
    yield ["decompose", literal, "--prime"]
    yield ["verify", literal, "--cap", "0"]
    yield ["generate", "--p", "2", "--layers", "1,x"]
    yield ["poset"]


def _usage_run(argv):
    """A call's record, with the code of the SystemExit that ended it under "exit"."""
    out, err = StringIO(), StringIO()
    code = exit_code = None
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
    return {"argv": argv, "code": code, "exit": exit_code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _records(path=GOLDEN):
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_golden_file_covers_every_call():
    assert [r["argv"] for r in _records()] == list(_calls())


@pytest.mark.parametrize("chunk", range(4))
def test_replays_byte_for_byte(chunk):
    records = _records()[chunk::4]
    assert records
    for record in records:
        assert _run(record["argv"]) == record, record["argv"]


def test_verify_golden_covers_every_call():
    assert [r["argv"] for r in _records(VERIFY_GOLDEN)] == list(_verify_calls())


def test_verify_replays_byte_for_byte(monkeypatch):
    monkeypatch.chdir(ROOT)
    records = _records(VERIFY_GOLDEN)
    lines = [json.loads(line) for r in records if "json" in r["argv"] for line in r["stdout"].splitlines()]
    assert {line["path"] for line in lines} == {"regular", "symmetric", "sylow", "enumerate", None}
    assert {r["code"] for r in records} == {0, 1, 3}
    for record in records:
        assert _run(record["argv"]) == record, record["argv"]


def test_kernel_golden_covers_every_call():
    assert [r["argv"] for r in _records(KERNEL_GOLDEN)] == list(_kernel_verify_calls())


def test_kernel_replays_byte_for_byte():
    records = _records(KERNEL_GOLDEN)
    assert {json.loads(r["stdout"])["path"] for r in records} == {"regular", "symmetric", "sylow"}
    for record in records:
        assert _run(record["argv"]) == record, record["argv"]


def test_witness_golden_covers_every_call():
    assert [r["argv"] for r in _records(WITNESS_GOLDEN)] == list(_witness_calls())


def test_witness_replays_byte_for_byte():
    records = _records(WITNESS_GOLDEN)
    assert {r["code"] for r in records} == {0, 1}
    for record in records:
        assert _hashed_run(record["argv"]) == record, record["argv"]


def test_poset_golden_covers_every_call():
    assert [r["argv"] for r in _records(POSET_GOLDEN)] == list(_poset_calls())


def test_poset_replays_byte_for_byte():
    for record in _records(POSET_GOLDEN):
        assert _hashed_run(record["argv"]) == record, record["argv"]


def test_usage_golden_covers_every_call():
    assert [r["argv"] for r in _records(USAGE_GOLDEN)] == list(_usage_calls())


def test_usage_replays_byte_for_byte():
    records = _records(USAGE_GOLDEN)
    assert {r["exit"] for r in records} == {None, 0, 1}
    for record in records:
        assert _usage_run(record["argv"]) == record, record["argv"]


if __name__ == "__main__":
    name = Path(sys.argv[1]).name
    calls = {
        GOLDEN.name: _calls,
        VERIFY_GOLDEN.name: _verify_calls,
        KERNEL_GOLDEN.name: _kernel_verify_calls,
        WITNESS_GOLDEN.name: _witness_calls,
        POSET_GOLDEN.name: _poset_calls,
        USAGE_GOLDEN.name: _usage_calls,
    }[name]
    run = {WITNESS_GOLDEN.name: _hashed_run, POSET_GOLDEN.name: _hashed_run, USAGE_GOLDEN.name: _usage_run}.get(name, _run)
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        for argv in calls():
            handle.write(json.dumps(run(argv), sort_keys=True) + "\n")
