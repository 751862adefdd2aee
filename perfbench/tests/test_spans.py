import threading

import pytest

from perfbench.spans import Recorder, Span, blocking_path, layer_self_times, self_times

MAIN, EXEC1, EXEC2 = 1, 2, 3


def _tree():
    # statement [0, 10] on the main thread; a main-thread child [1, 4]; two
    # fragments of that child's work on executor threads, overlapping each
    # other and sticking out of the child they were submitted from
    return [
        Span(1, None, "root", 0.0, 10.0, 0, MAIN),
        Span(2, 1, "scan", 1.0, 6.0, 0, MAIN),
        Span(3, 2, "read", 2.0, 5.0, 0, EXEC1),
        Span(4, 2, "read", 3.0, 7.0, 0, EXEC2),
        Span(5, 1, "compile", 7.0, 9.0, 0, MAIN),
    ]


def test_self_time_subtracts_union_of_children():
    own = self_times(_tree())
    assert own[1] == pytest.approx(10 - (5 + 2))  # children [1,6] and [7,9]
    # cross-thread children overlap: union [2, 7] clipped to [1, 6] is 4
    assert own[2] == pytest.approx(5 - 4)
    assert own[3] == pytest.approx(3) and own[4] == pytest.approx(4)


def test_layer_self_times_sum_over_threads():
    by_layer = layer_self_times(_tree())
    assert by_layer["read"] == pytest.approx(7)  # busy time summed over executors
    assert by_layer["compile"] == pytest.approx(2)


def test_blocking_path_adds_up_to_wall_time():
    bp = blocking_path(_tree())
    assert bp["wall_s"] == pytest.approx(10)
    assert bp["blocking_s"] == pytest.approx(10)
    assert bp["attributed_s"] == pytest.approx(7)


def test_parent_crosses_into_executor_thread():
    rec = Recorder()
    rec.begin_statement(42)

    def fragment(ctx):
        rec.adopt(ctx)
        rec.call("read", lambda: None)

    def scan():
        t = threading.Thread(target=fragment, args=(rec.context(),))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.call("scan", scan)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["read"].parent == by_name["scan"].sid
    assert by_name["read"].stmt == 42
    assert by_name["read"].thread != by_name["scan"].thread
