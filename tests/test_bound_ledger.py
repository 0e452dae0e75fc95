import bound_ledger


def test_no_bound_rose_above_the_ledger():
    ledger, current = bound_ledger.load(), bound_ledger.compute()
    assert sorted(current) == sorted(ledger)
    fell, rose, drop, over = bound_ledger.compare(ledger, current)
    print(f"bound ledger: {fell} fell, {rose} rose, largest drop {drop:.4g}; "
          f"medians {bound_ledger.medians(current)}")
    assert not over, f"bounds above the ledger: {over}"
