from perfbench.stats import tail


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    value, pct, n = tail(values)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_is_order_independent_and_exact_at_the_boundary():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, pct, n = tail(values)
    assert value == 1.0 and n == 11
    assert sum(v > value for v in values) == 10


def test_no_tail_with_ten_or_fewer_samples():
    assert tail([1.0] * 10) is None

