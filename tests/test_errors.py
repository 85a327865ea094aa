"""The contract of `errors.resample` and `errors.Draws`."""

import pytest

from curvecones.errors import (DegenerateInput, Draws, InVertex,
                               VerificationFailed, resample)


def scripted(script: str, calls: list):
    """A draw that logs its index k and then acts on script[k]: 'x' raises
    `InVertex`, '!' raises `VerificationFailed`, '-' returns None, and any
    other character returns (k, character)."""
    def draw(k: int):
        calls.append(k)
        c = script[k]
        if c == "x":
            raise InVertex("scripted")
        if c == "!":
            raise VerificationFailed("scripted")
        return None if c == "-" else (k, c)
    return draw


def closure_collect(label: str, attempts: int, draw, n: int) -> list:
    """N usable draws the way a loop collected them before `Draws.take`: a
    closure that appends each item and ends a `take(1)` at the n-th."""
    got: list = []

    def step(k: int):
        item = draw(k)
        if item is not None:
            got.append(item)
        return got if len(got) == n else None

    Draws(label, attempts, step).take(1)
    return got


SCRIPTS = ["ab-c", "x-axbxc-d", "----", "xxab", "a"]


class TestResample:
    def test_first_usable_draw(self):
        calls: list = []
        assert resample("r", 6, scripted("x-ab", calls)) == (2, "a")
        assert calls == [0, 1, 2]

    def test_exhaustion_names_label_and_budget(self):
        with pytest.raises(DegenerateInput,
                           match="^thing: no usable draw in 2 attempts$"):
            resample("thing", 2, scripted("x-", []))

    def test_other_error_propagates(self):
        calls: list = []
        with pytest.raises(VerificationFailed):
            resample("r", 4, scripted("x!a", calls))
        assert calls == [0, 1]


class TestDraws:
    def test_take_zero_makes_no_draw(self):
        calls: list = []
        draws = Draws("d", 5, scripted("abcde", calls))
        assert draws.take(0) == []
        assert calls == [] and draws.made == 0 and draws.left == 5

    @pytest.mark.parametrize("script", SCRIPTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_take_draws_as_the_closure_loop(self, script, n):
        loop_calls: list = []
        loop = closure_collect("d", len(script), scripted(script, loop_calls),
                               n)
        calls: list = []
        draws = Draws("d", len(script), scripted(script, calls))
        assert draws.take(n) == loop
        assert calls == loop_calls
        assert draws.made == len(calls)

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_rounds_draw_as_one_loop(self, script):
        # rounds that ask for what is still missing, as the batched loops do
        n = 3
        whole: list = []
        want = Draws("d", len(script), scripted(script, whole)).take(n)
        calls: list = []
        draws = Draws("d", len(script), scripted(script, calls))
        got: list = []
        while len(got) < n and draws.left:
            got += draws.take(min(2, n - len(got)))
        assert got == want and calls == whole

    @pytest.mark.parametrize("script", SCRIPTS + ["abcabcdd", "cccab"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_batch_rounds_draw_as_one_loop(self, script, n):
        # a draw's result is degenerate for 'b' and None for 'c'
        def result(item):
            return InVertex("batch") if item[1] == "b" \
                else None if item[1] == "c" else item[1].upper()

        def evaluated(k):
            item = scripted(script, whole)(k)
            if item is None:
                return None
            if isinstance(result(item), InVertex):
                raise result(item)
            return None if result(item) is None else (item, result(item))

        whole: list = []
        want = Draws("d", len(script), evaluated).take(n)
        calls: list = []
        rounds: list = []

        def evaluate(items):
            rounds.append(len(items))
            return [result(item) for item in items]

        draws = Draws("d", len(script), scripted(script, calls))
        assert draws.rounds(n, evaluate) == want
        assert calls == whole and draws.made == len(calls)
        assert all(0 < k <= n for k in rounds)

    def test_batch_rounds_raise_other_errors_in_draw_order(self):
        draws = Draws("d", 4, scripted("abcd", []))
        results = [InVertex("first"), VerificationFailed("second"), "c",
                   VerificationFailed("fourth")]
        with pytest.raises(VerificationFailed, match="second"):
            draws.rounds(3, lambda items: results[:len(items)])

    def test_false_is_an_item(self):
        # the criteria collect verdicts, and a failed verdict is one
        assert Draws("d", 3, lambda k: k == 1).take(2) == [False, True]

    def test_other_error_propagates(self):
        calls: list = []
        draws = Draws("d", 4, scripted("-x!a", calls))
        with pytest.raises(VerificationFailed):
            draws.take(2)
        assert calls == [0, 1, 2]

    def test_short_harvest_returns_what_it_found(self):
        calls: list = []
        draws = Draws("d", 5, scripted("a-xb-", calls))
        assert draws.take(4) == [(0, "a"), (3, "b")]
        assert calls == [0, 1, 2, 3, 4] and draws.left == 0
        assert draws.take(1) == [] and calls == [0, 1, 2, 3, 4]

    def test_exhausted_carries_resample_message(self):
        with pytest.raises(DegenerateInput) as raised:
            resample("square rows", 16, scripted("-" * 16, []))
        exhausted = Draws("square rows", 16, scripted("", [])).exhausted()
        assert type(exhausted) is DegenerateInput
        assert str(exhausted) == str(raised.value)
