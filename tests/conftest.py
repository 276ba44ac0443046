import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from concord.domain import (
    Alternative,
    Combiner,
    Profile,
    Stakeholder,
    Statement,
    VariableSpace,
)
from concord.reasoner import DEFAULT_LIMITS, _canonical_levels, classify, is_consistent
from concord.domain import Triviality

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"

# Filled by the acceptance tests; echoed after the run so the verdict lines
# survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def alt(*values: int) -> Alternative:
    return Alternative(tuple(values))


def stmt(left, right, strict=True) -> Statement:
    return Statement(Alternative(tuple(left)), Alternative(tuple(right)), strict)


def lane_signs(signs, i: int) -> tuple[int, ...]:
    """Statement ``i``'s per-variable signs, read off the top bit of each
    lane of its row in ``reasoner.sign_matrix``'s result."""
    win, lose, _ = signs.rows[i]
    tops = [(v + 1) * signs.width - 1 for v in range(signs.nvars)]
    return tuple((win >> t & 1) - (lose >> t & 1) for t in tops)


# Sign + 1 (0, 1, 2 for lose, tie, win) to the binary digit of a win or a
# lose row.
_WIN_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"001")
_LOSE_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"100")


def reference_row(s: Statement, space: VariableSpace, c: Combiner) -> tuple:
    """``s``'s hierarchical row compiled level by level, the reference for
    ``Reasoner.row``: both sides folded with ``Combiner.fold`` over each
    canonical level and compared with ``Combiner.compare_values``, one digit
    per level (level 0 last), parsed in base 2."""
    n = space.size
    signs = bytes(
        c.compare_values(
            c.fold([s.left.values[v] for v in range(n) if mask >> v & 1]),
            c.fold([s.right.values[v] for v in range(n) if mask >> v & 1]),
        ) + 1
        for mask in _canonical_levels(n)
    )[::-1]
    return int(signs.translate(_WIN_DIGITS), 2), int(signs.translate(_LOSE_DIGITS), 2), s.strict


def random_statement(rng: random.Random, space: VariableSpace) -> Statement:
    left = tuple(rng.choice(dom) for dom in space.domains)
    right = tuple(rng.choice(dom) for dom in space.domains)
    return Statement(Alternative(left), Alternative(right), rng.random() < 0.5)


def _usable(statements, space, c, model_class) -> bool:
    """Consistent and falsifiable, i.e. acceptable as a stakeholder set."""
    if not is_consistent(statements, space, c, model_class, DEFAULT_LIMITS).consistent:
        return False
    return any(
        classify(s, space, c, model_class, DEFAULT_LIMITS) is not Triviality.TAUTOLOGY
        for s in statements
    )


def random_profile(
    rng: random.Random,
    space: VariableSpace,
    c: Combiner,
    model_class: str,
    n_stakeholders: int,
    max_statements: int,
    max_tries: int = 200,
) -> Profile:
    """Profile whose stakeholders all pass the non-triviality precondition.

    Draws each stakeholder set by rejection sampling; raises RuntimeError if a
    space is so degenerate that no usable set shows up.
    """
    stakeholders = []
    for i in range(n_stakeholders):
        for _ in range(max_tries):
            k = rng.randint(1, max_statements)
            cand = tuple(random_statement(rng, space) for _ in range(k))
            if _usable(cand, space, c, model_class):
                stakeholders.append(Stakeholder("s%d" % i, cand))
                break
        else:
            raise RuntimeError("could not draw a usable stakeholder set")
    return Profile(space, c, model_class, tuple(stakeholders))
