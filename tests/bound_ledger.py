"""The bound ledger: every fixed-seed certificate's bound, pinned so that
"no bound rose" is a test (test_bound_ledger.py) rather than a claim.

The corpus:
  * 3-XOR at n = 20, 30 and 45, p = mult * n^-1.5 for mult 10 and 40,
    seeds 1-3 (refute_xor);
  * 3-SAT at (n, p) = (20, 0.05), (40, 0.01) and (40, 0.03), seeds 1-3
    (refute_csp);
  * majority-3, whose expansion has only odd degrees, at n = 20, p = 0.05,
    seeds 1-2 (refute_csp);
  * 3-parity, whose expansion has degrees 0 and 3 only, at n = 20,
    p = 0.05, seeds 1-2 (refute_csp);
  * the 5-ary table default_rng(0).integers(0, 2, size=32) and
    majority-5, each at n = 8, p = 0.002, seeds 1-2 (refute_csp);
  * 5-XOR at n = 8, p = 0.3, seeds 1-2 (refute_xor);
  * criterion 5's 60 graphs through inf_to_one_certificate, gelfand mode;
  * the two instances of test_refutation_golden_digests, at z = 6.

bound_ledger.json maps each certificate's name to its final bound, the
value of each named step and the commit that wrote it: the short hash of
HEAD, with "-dirty" when src/ differed from it. A change that tightens a
chain rewrites the file from the new chain:

  python tests/bound_ledger.py --write

Without --write the script compares the current code against the file
and prints how many bounds fell or rose, and the largest relative drop.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from nbrefute import certify, instances, refute  # noqa: E402

from conftest import graph_corpus  # noqa: E402

LEDGER = HERE / "bound_ledger.json"
# Relative slack over a pinned bound: BLAS thread counts and the witness
# guide's float32 products can move the last bits of a bound.
TOLERANCE = 1e-7


def corpus():
    """(name, thunk) pairs, each thunk returning one Certificate."""
    table = instances.predicate_table("3sat")
    items = []
    for n in (20, 30, 45):
        for mult in (10, 40):
            for seed in (1, 2, 3):
                I = instances.sample_kxor(n, 3, mult * n ** -1.5, seed)
                items.append((f"xor3/n{n}/mult{mult}/s{seed}",
                              lambda I=I: refute.refute_xor(I)))
    for n, p in ((20, 0.05), (40, 0.01), (40, 0.03)):
        for seed in (1, 2, 3):
            J = instances.sample_csp(table, n, 3, p, seed)
            items.append((f"3sat/n{n}/p{p}/s{seed}",
                          lambda J=J: refute.refute_csp(J)))
    majority, majority5 = (
        np.array([float(sum(instances.assignment_from_index(i, k)) > 0)
                  for i in range(2 ** k)]) for k in (3, 5))
    table5 = np.random.default_rng(0).integers(0, 2, size=32)
    for family, P, n, k, p in (("majority3", majority, 20, 3, 0.05),
                               ("parity3", instances.predicate_table(
                                   "parity"), 20, 3, 0.05),
                               ("table5", table5, 8, 5, 0.002),
                               ("majority5", majority5, 8, 5, 0.002)):
        for seed in (1, 2):
            J = instances.sample_csp(P, n, k, p, seed)
            items.append((f"{family}/n{n}/p{p}/s{seed}",
                          lambda J=J: refute.refute_csp(J)))
    for seed in (1, 2):
        I = instances.sample_kxor(8, 5, 0.3, seed)
        items.append((f"xor5/n8/p0.3/s{seed}",
                      lambda I=I: refute.refute_xor(I)))
    for i, dense in enumerate(graph_corpus(60, 10, seed=5)):
        items.append((f"norm/criterion5/{i:02d}",
                      lambda A=dense: certify.inf_to_one_certificate(
                          A, mode="gelfand", z=16)))
    I = instances.sample_kxor(30, 3, 0.02, seed=3)
    J = instances.sample_csp(table, 20, 3, 0.03, seed=1)
    items.append(("golden/xor", lambda: refute.refute_xor(I, z=6)))
    items.append(("golden/csp", lambda: refute.refute_csp(J, z=6)))
    return items


def compute():
    """{name: {"final_bound", "steps"}} of the corpus at the current code."""
    out = {}
    for name, make in corpus():
        cert = make()
        out[name] = {"final_bound": cert.final_bound,
                     "steps": {s["name"]: s["value"] for s in cert.steps}}
    return out


def load():
    return json.loads(LEDGER.read_text())


def _commit():
    def git(*args):
        return subprocess.run(["git", *args], cwd=HERE, capture_output=True,
                              text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode:
        return "unknown"
    dirty = git("diff", "--quiet", "HEAD", "--", "../src").returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def compare(ledger, current):
    """(fell, rose, largest relative drop, rises over TOLERANCE) of the
    current final bounds against the ledger's, over their common names."""
    fell = rose = 0
    drop = 0.0
    over = []
    for name, entry in current.items():
        old, new = ledger[name]["final_bound"], entry["final_bound"]
        fell += new < old
        rose += new > old
        if old > 0:
            drop = max(drop, (old - new) / old)
        if new > old * (1.0 + TOLERANCE):
            over.append((name, old, new))
    return fell, rose, drop, over


def medians(current):
    """Median final bound per corpus family (the name up to its first /)."""
    families = {}
    for name, entry in current.items():
        families.setdefault(name.split("/")[0], []).append(
            entry["final_bound"])
    return {k: float(np.median(v)) for k, v in sorted(families.items())}


def write(current):
    """Rewrite the ledger; an entry whose final bound did not change keeps
    the commit that wrote it."""
    old = load() if LEDGER.exists() else {}
    commit = _commit()
    for name, entry in current.items():
        kept = old.get(name)
        entry["commit"] = (kept["commit"] if kept and kept["final_bound"]
                           == entry["final_bound"] else commit)
    LEDGER.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")


def main(argv):
    current = compute()
    if "--write" in argv:
        write(current)
        print(f"wrote {len(current)} entries to {LEDGER.name}")
    else:
        fell, rose, drop, over = compare(load(), current)
        print(f"{len(current)} entries: {fell} fell, {rose} rose, largest "
              f"drop {drop:.4f}; {len(over)} above tolerance")
        for name, old, new in over:
            print(f"  {name}: {old!r} -> {new!r}")
    for family, value in medians(current).items():
        print(f"  median {family}: {value:.6g}")


if __name__ == "__main__":
    main(sys.argv[1:])
